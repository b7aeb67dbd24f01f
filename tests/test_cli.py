import csv
import io
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import intfunc
from intfunc import (
    ALL_REGISTERS,
    Axis,
    GenerationMode,
    GenerationTrace,
    IntegerFunction,
    IntegerPair,
    RegisterBank,
    RegisterOverflowError,
    StepKind,
    TraceRecord,
    difference_field,
    from_step_sequence,
    full_derivative,
    generate,
)
from intfunc.cli import main
from intfunc.curves import (
    composite_generate,
    egg_figure_config,
    harmonic_config,
    line_config,
)
from intfunc.io import (
    TRACE_COLUMNS,
    ParseError,
    config_from_items,
    format_config,
    function_from_trace,
    parse_config_items,
    read_trace,
    read_trace_file,
    trace_for_function,
    write_trace,
    write_trace_file,
)

def run_cli(*argv, capsys=None):
    code = main(list(argv))
    if capsys is None:
        return code, "", ""
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigFiles:
    def test_round_trip(self):
        config = line_config(3, 5, 8)
        text = format_config(config)
        rebuilt = config_from_items(parse_config_items(text.splitlines()))
        assert rebuilt == config
        assert format_config(rebuilt) == text

    def test_while_positive_round_trip(self):
        config = harmonic_config(100, cap=500)
        rebuilt = config_from_items(parse_config_items(format_config(config).splitlines()))
        assert rebuilt == config

    def test_defaults(self):
        config = config_from_items(parse_config_items(["STOP=COUNT", "CAP=3", "X=1", "Y=1"]))
        assert config.start == IntegerPair(0, 0)
        assert config.mode is GenerationMode.MONOTONE
        assert config.bank.RX == 0

    def test_comments_and_blanks(self):
        lines = ["# a config", "", "X=2  # j rate", "Y=1", "STOP=COUNT", "CAP=4"]
        config = config_from_items(parse_config_items(lines))
        assert config.bank.X == 2

    @pytest.mark.parametrize("lines", [
        ["Q=1", "STOP=COUNT", "CAP=1"],
        ["X=one", "STOP=COUNT", "CAP=1"],
        ["STOP=NEVER", "CAP=1", "X=1"],
        ["STOP=WHILE_POSITIVE:Q", "CAP=1"],
        ["STOP=COUNT"],
        ["CAP=1"],
        ["X=1", "X=2", "STOP=COUNT", "CAP=1"],
        ["MODE=UPWARD", "STOP=COUNT", "CAP=1"],
        ["just text"],
    ])
    def test_malformed_configs(self, lines):
        with pytest.raises(ParseError):
            config_from_items(parse_config_items(lines))


class TestTraceFiles:
    def test_line_trace_rows(self, tmp_path):
        _, trace = generate(line_config(3, 5, 8))
        path = tmp_path / "trace.csv"
        write_trace_file(trace, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == ("k,step,i,j,RX,RY,X,Y,XX,XY,YX,YY,"
                            "XXX,XXY,XYX,XYY,YXX,YXY,YYX,YYY")
        assert lines[1] == "1,i+,1,0,3,0,3,5,0,0,0,0,0,0,0,0,0,0,0,0"
        assert len(lines) == 9
        assert read_trace_file(str(path)) == trace

    def test_empty_trace_is_header_only(self):
        buffer = io.StringIO()
        write_trace(GenerationTrace(), buffer)
        assert buffer.getvalue().count("\n") == 1
        assert read_trace(io.StringIO(buffer.getvalue())) == GenerationTrace()

    def test_wrong_column_count_rejected(self, tmp_path):
        _, trace = generate(line_config(1, 1, 2))
        path = tmp_path / "trace.csv"
        write_trace_file(trace, str(path))
        lines = path.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0]  # drop one column -> 19
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            read_trace_file(str(path))

    def test_bad_step_token_rejected(self):
        text = ("k,step,i,j,RX,RY,X,Y,XX,XY,YX,YY,XXX,XXY,XYX,XYY,YXX,YXY,YYX,YYY\n"
                "1,up,1,0" + ",0" * 16 + "\n")
        with pytest.raises(ParseError):
            read_trace(io.StringIO(text))

    def test_out_of_order_index_rejected(self):
        text = ("k,step,i,j,RX,RY,X,Y,XX,XY,YX,YY,XXX,XXY,XYX,XYY,YXX,YXY,YYX,YYY\n"
                "2,i+,1,0" + ",0" * 16 + "\n")
        with pytest.raises(ParseError):
            read_trace(io.StringIO(text))

    def test_fuzzed_round_trips(self):
        rng = random.Random(5)
        kinds = [StepKind(a, s) for a in (Axis.I, Axis.J) for s in (1, -1)]
        for _ in range(30):
            i, j = rng.randint(-9, 9), rng.randint(-9, 9)
            records = []
            for k in range(1, rng.randint(1, 25)):
                step = rng.choice(kinds)
                i += step.sign if step.axis is Axis.I else 0
                j += step.sign if step.axis is Axis.J else 0
                bank = RegisterBank.from_mapping(
                    {"RX": rng.randint(-10**18, 10**18), "XXY": rng.randint(-5, 5)})
                records.append(TraceRecord(k, step, i, j, bank))
            trace = GenerationTrace(tuple(records))
            buffer = io.StringIO()
            write_trace(trace, buffer)
            assert read_trace(io.StringIO(buffer.getvalue())) == trace

    def test_rows_match_csv_writer(self):
        # Negative and 19-digit register values, generated and composite
        # traces: the column writer must produce csv.writer's bytes.
        rng = random.Random(29)
        kinds = [StepKind(a, s) for a in (Axis.I, Axis.J) for s in (1, -1)]
        traces = [generate(harmonic_config(10**6))[1],
                  composite_generate(egg_figure_config(300))[1]]
        for _ in range(30):
            i, j = rng.randint(-9, 9), rng.randint(-9, 9)
            records = []
            for k in range(1, rng.randint(1, 40)):
                step = rng.choice(kinds)
                i += step.sign if step.axis is Axis.I else 0
                j += step.sign if step.axis is Axis.J else 0
                bank = RegisterBank.from_mapping({
                    name: rng.choice([-1, 1]) * rng.randint(10**18, 2**63 - 1)
                    for name in rng.sample(ALL_REGISTERS, rng.randint(0, 16))})
                records.append(TraceRecord(k, step, i, j, bank))
            traces.append(GenerationTrace(records))
        for trace in traces:
            expected = io.StringIO()
            writer = csv.writer(expected, lineterminator="\n")
            writer.writerow(TRACE_COLUMNS)
            for r in trace.records:
                writer.writerow([r.k, r.step.token, r.i, r.j]
                                + [r.bank.value(name) for name in ALL_REGISTERS])
            buffer = io.StringIO()
            write_trace(trace, buffer)
            assert buffer.getvalue() == expected.getvalue()
            assert read_trace(io.StringIO(buffer.getvalue())) == trace

    def test_register_beyond_capacity_is_an_overflow(self, tmp_path, capsys):
        _, trace = generate(line_config(3, 5, 8))
        path = tmp_path / "trace.csv"
        write_trace_file(trace, str(path))
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[TRACE_COLUMNS.index("XY")] = str(2**63)
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RegisterOverflowError, match="line 4"):
            read_trace_file(str(path))
        code, out, err = run_cli("render", "--in", str(path), "--format", "ascii",
                                 capsys=capsys)
        assert (code, out) == (4, "")
        assert "overflow" in err

    def test_position_beyond_range_is_a_parse_error(self):
        text = ",".join(TRACE_COLUMNS) + "\n" + f"1,i+,{2**63},0" + ",0" * 16 + "\n"
        with pytest.raises(ParseError, match="line 2"):
            read_trace(io.StringIO(text))

    @pytest.mark.parametrize("first, second", [(3, 5), (5000, 9000), (4098, 4099)])
    def test_earlier_of_two_defects_is_reported(self, first, second):
        # Line numbers count the header as line 1; the defects may fall in
        # one chunk of rows or in two.
        _, trace = generate(line_config(7, 11, 10000))
        buffer = io.StringIO()
        write_trace(trace, buffer)
        lines = buffer.getvalue().splitlines()
        lines[first - 1] = lines[first - 1].replace("i+", "up").replace("j+", "up")
        cells = lines[second - 1].split(",")
        cells[TRACE_COLUMNS.index("RX")] = "1e3"
        lines[second - 1] = ",".join(cells)
        with pytest.raises(ParseError, match=f"line {first}:"):
            read_trace(io.StringIO("\n".join(lines) + "\n"))
        # Swapped kinds: the overflow on the earlier line wins.
        cells = lines[first - 1].split(",")
        cells[TRACE_COLUMNS.index("YYY")] = str(-2**63)
        lines[first - 1] = ",".join(cells).replace("up", "i+")
        with pytest.raises(RegisterOverflowError, match=f"line {first}:"):
            read_trace(io.StringIO("\n".join(lines) + "\n"))

    def test_function_round_trip_through_trace(self, sample_if):
        trace = trace_for_function(sample_if)
        assert function_from_trace(trace) == sample_if


class TestMechCommand:
    def test_uniform_golden(self, capsys):
        code, out, _ = run_cli("mech", "uniform", "--il", "5", "--jl", "3",
                               capsys=capsys)
        assert code == 0
        assert out == ("I0=0\nJ0=0\nMODE=MONOTONE\nSTOP=COUNT\nCAP=8\n"
                       "X=3\nY=5\n")

    def test_harmonic_emits_watchdog_stop(self, capsys):
        code, out, _ = run_cli("mech", "harmonic", "--x0", "100", capsys=capsys)
        assert code == 0
        assert "STOP=WHILE_POSITIVE:X" in out
        assert "X=100" in out and "Y=100" in out
        assert "XX=-1" in out and "XXY=-1" in out

    def test_freefall_to_file_then_generate(self, tmp_path, capsys):
        config_path = tmp_path / "fall.cfg"
        code, _, _ = run_cli("mech", "freefall", "--xx", "2", "--y", "100",
                             "--steps", "40", "--out", str(config_path),
                             capsys=capsys)
        assert code == 0
        trace_path = tmp_path / "fall.csv"
        code, out, _ = run_cli("generate", "--config", str(config_path),
                               "--out", str(trace_path), capsys=capsys)
        assert code == 0
        assert read_trace_file(str(trace_path)).records


class TestGenerateCommand:
    def test_generate_with_overrides(self, tmp_path, capsys):
        config_path = tmp_path / "line.cfg"
        config_path.write_text("X=3\nY=5\nSTOP=COUNT\nCAP=8\n")
        trace_path = tmp_path / "line.csv"
        code, out, _ = run_cli("generate", "--config", str(config_path),
                               "--set", "X=1", "--set", "Y=1", "--set", "CAP=2",
                               "--out", str(trace_path), capsys=capsys)
        assert code == 0
        trace = read_trace_file(str(trace_path))
        assert [r.step.token for r in trace] == ["i+", "j+"]

    def test_sign_harmonized_config(self, tmp_path, capsys):
        config_path = tmp_path / "egg.cfg"
        config_path.write_text(
            "I0=25\nJ0=60\nMODE=SIGN_HARMONIZED\nSTOP=COUNT\nCAP=2000\n"
            "X=500000\nY=10\nXX=-10000\nYY=10000\nYYY=-125\n")
        trace_path = tmp_path / "egg.csv"
        code, _, _ = run_cli("generate", "--config", str(config_path),
                             "--out", str(trace_path), capsys=capsys)
        assert code == 0
        trace = read_trace_file(str(trace_path))
        assert len(trace) == 2000
        assert any(r.step.sign < 0 for r in trace)


class TestDeriveCommand:
    def test_class_3_of_sample(self, tmp_path, capsys, sample_if):
        trace_path = tmp_path / "sample.csv"
        write_trace_file(trace_for_function(sample_if), str(trace_path))
        code, out, _ = run_cli("derive", "--in", str(trace_path),
                               "--axis", "i", "--class", "3", capsys=capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "coordinate,d"
        assert [line.split(",")[1] for line in lines[1:]] == \
            ["3", "3", "3", "3", "3", "2", "2", "1", "2", "1", "1", "0"]

    def test_all_classes(self, tmp_path, capsys, sample_if):
        trace_path = tmp_path / "sample.csv"
        write_trace_file(trace_for_function(sample_if), str(trace_path))
        code, out, _ = run_cli("derive", "--in", str(trace_path),
                               "--axis", "i", "--all", capsys=capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "class,coordinate,d"
        classes = {int(line.split(",")[0]) for line in lines[1:]}
        assert classes == set(range(1, 15))


class TestPiCommand:
    def test_golden_line(self, capsys):
        code, out, _ = run_cli("pi", "--x0", "10000000", capsys=capsys)
        assert code == 0
        tokens = dict(part.split("=") for part in out.split())
        assert tokens["i"] == "4967"
        assert tokens["j"] == "3161"
        assert tokens["lower"] == "1.570524"
        assert tokens["upper"] == "1.571655"
        assert tokens["steps"] == "8128"
        assert tokens["elapsed"].endswith("s")
        # Printed at 7 significant digits with outward rounding, the interval
        # still contains the true half circle constant.
        assert float(tokens["lower"]) < math.pi / 2 < float(tokens["upper"])

    def test_trace_option(self, tmp_path, capsys):
        trace_path = tmp_path / "pi.csv"
        code, out, _ = run_cli("pi", "--x0", "100", "--trace", str(trace_path),
                               capsys=capsys)
        assert code == 0
        trace = read_trace_file(str(trace_path))
        assert len(trace) == 24
        assert (trace[-1].i, trace[-1].j) == (15, 9)

    def test_trace_prints_bounds_then_summary(self, tmp_path, capsys):
        trace_path = tmp_path / "pi.csv"
        code, out, _ = run_cli("pi", "--x0", "100", "--trace", str(trace_path),
                               capsys=capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("i=15 j=9 lower=1.4 upper=1.777778 steps=24 ")
        assert lines[1:] == [f"wrote {trace_path}: 24 steps"]

    def test_trace_overflow_prints_nothing(self, tmp_path, capsys):
        # pi_bounds keeps only RX - RY, but the traced machine keeps both
        # regulators, and RY passes 2**63 at step 184 469 at this seed.
        trace_path = tmp_path / "big.csv"
        code, out, err = run_cli("pi", "--x0", "100000000000000", "--trace",
                                 str(trace_path), capsys=capsys)
        assert (code, out) == (4, "")
        assert "overflow" in err
        assert not trace_path.exists()


class TestDigitizeAndRender:
    def test_pipeline(self, tmp_path, capsys):
        samples_path = tmp_path / "line.samples"
        samples_path.write_text("\n".join(
            f"{k}/10,{k * 4}/100" for k in range(50)) + "\n")
        trace_path = tmp_path / "digit.csv"
        code, _, _ = run_cli("digitize", "--unit", "1", "--samples",
                             str(samples_path), "--out", str(trace_path),
                             capsys=capsys)
        assert code == 0
        f = function_from_trace(read_trace_file(str(trace_path)))
        assert f.elements == (IntegerPair(0, 0), IntegerPair(1, 0), IntegerPair(2, 0),
                              IntegerPair(2, 1), IntegerPair(3, 1), IntegerPair(4, 1))
        code, out, _ = run_cli("render", "--in", str(trace_path),
                               "--format", "ascii", capsys=capsys)
        assert code == 0
        assert out == "..###\n###..\n"

    def test_render_pbm_and_viewport(self, tmp_path, capsys):
        trace_path = tmp_path / "elbow.csv"
        write_trace_file(trace_for_function(from_step_sequence((0, 0), "i j")),
                         str(trace_path))
        out_path = tmp_path / "elbow.pbm"
        code, _, _ = run_cli("render", "--in", str(trace_path), "--format", "pbm",
                             "--viewport", "0:1:0:1", "--out", str(out_path),
                             capsys=capsys)
        assert code == 0
        assert out_path.read_bytes() == b"P1\n2 2\n01\n11\n"

    def test_viewport_with_negative_bounds(self, tmp_path, capsys):
        # argparse reads "-1:1:-1:1" as an option, so a negative first bound
        # goes after "=", as the --help text says.
        trace_path = tmp_path / "elbow.csv"
        write_trace_file(trace_for_function(from_step_sequence((0, 0), "i j")),
                         str(trace_path))
        code, out, _ = run_cli("render", "--in", str(trace_path), "--format", "ascii",
                               "--viewport=-1:1:-1:1", capsys=capsys)
        assert code == 0
        assert out == "..#\n.##\n...\n"
        code, out, _ = run_cli("render", "--help", capsys=capsys)
        assert code == 0 and "--viewport=-3:10:-2:8" in out

    def test_render_svg_with_label(self, tmp_path, capsys):
        trace_path = tmp_path / "elbow.csv"
        write_trace_file(trace_for_function(from_step_sequence((0, 0), "i j")),
                         str(trace_path))
        code, out, _ = run_cli("render", "--in", str(trace_path), "--format", "svg",
                               "--label", "1 to 0.01", capsys=capsys)
        assert code == 0
        assert out.startswith("<?xml")
        assert "1 to 0.01" in out


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert run_cli(capsys=capsys)[0] == 2
        assert run_cli("frobnicate", capsys=capsys)[0] == 2
        assert run_cli("pi", capsys=capsys)[0] == 2
        assert run_cli("pi", "--x0", "ten", capsys=capsys)[0] == 2

    def test_parse_error_unknown_key(self, tmp_path, capsys):
        config_path = tmp_path / "bad.cfg"
        config_path.write_text("Q=1\nSTOP=COUNT\nCAP=1\n")
        code, _, err = run_cli("generate", "--config", str(config_path),
                               "--out", str(tmp_path / "out.csv"), capsys=capsys)
        assert code == 3
        assert "unknown key" in err

    def test_parse_error_tampered_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "t.csv"
        write_trace_file(trace_for_function(from_step_sequence((0, 0), "i")),
                         str(trace_path))
        lines = trace_path.read_text().splitlines()
        lines[1] += ",7"  # 21 columns
        trace_path.write_text("\n".join(lines) + "\n")
        code, _, _ = run_cli("render", "--in", str(trace_path),
                             "--format", "ascii", capsys=capsys)
        assert code == 3

    def test_missing_file(self, tmp_path, capsys):
        code, _, _ = run_cli("render", "--in", str(tmp_path / "nope.csv"),
                             "--format", "ascii", capsys=capsys)
        assert code == 3

    def test_overflow_exit(self, tmp_path, capsys):
        # RY at capacity forces i steps; the second RX += X leaves range.
        config_path = tmp_path / "big.cfg"
        config_path.write_text(
            f"X={2**63 - 1}\nRY={2**63 - 1}\nY=1\nSTOP=COUNT\nCAP=3\n")
        code, _, err = run_cli("generate", "--config", str(config_path),
                               "--out", str(tmp_path / "out.csv"), capsys=capsys)
        assert code == 4
        assert "overflow" in err

    def test_precondition_exit_on_cap_exhaustion(self, tmp_path, capsys):
        config_path = tmp_path / "stuck.cfg"
        config_path.write_text("X=100\nY=100\nXX=-1\nXXY=-1\n"
                               "STOP=WHILE_POSITIVE:X\nCAP=5\n")
        code, _, _ = run_cli("generate", "--config", str(config_path),
                             "--out", str(tmp_path / "out.csv"), capsys=capsys)
        assert code == 5

    def test_precondition_exit_on_empty_render(self, tmp_path, capsys):
        trace_path = tmp_path / "empty.csv"
        write_trace_file(GenerationTrace(), str(trace_path))
        code, _, _ = run_cli("render", "--in", str(trace_path),
                             "--format", "ascii", capsys=capsys)
        assert code == 5

    def test_pi_overflow_exit(self, capsys):
        code, _, _ = run_cli("pi", "--x0", str(10**18), capsys=capsys)
        assert code == 4

    def test_digitize_sparse_exit(self, tmp_path, capsys):
        samples_path = tmp_path / "sparse.samples"
        samples_path.write_text("0,0\n5,0\n")
        code, _, _ = run_cli("digitize", "--unit", "1", "--samples",
                             str(samples_path), "--out", str(tmp_path / "o.csv"),
                             capsys=capsys)
        assert code == 5

    def test_digitize_bad_rational_exit(self, tmp_path, capsys):
        samples_path = tmp_path / "bad.samples"
        samples_path.write_text("zero,0\n")
        code, _, _ = run_cli("digitize", "--unit", "1", "--samples",
                             str(samples_path), "--out", str(tmp_path / "o.csv"),
                             capsys=capsys)
        assert code == 3


def _first_difference(got, want):
    """None, or the first line where two long outputs differ (a plain ==
    would make pytest diff every line on failure)."""
    if got == want:
        return None
    got_lines, want_lines = got.splitlines(True), want.splitlines(True)
    n = next((n for n, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b),
             min(len(got_lines), len(want_lines)))
    return n, got_lines[n:n + 1], want_lines[n:n + 1]


class TestStreamedDerive:
    """derive writes one class at a time; stdout must be what one print per
    entry of the eager API gives."""

    @pytest.fixture
    def harmonic_trace(self, tmp_path):
        _, trace = generate(harmonic_config(10**5))
        path = tmp_path / "harmonic.csv"
        write_trace_file(trace, str(path))
        return path, function_from_trace(trace)

    @pytest.mark.parametrize("axis", ["i", "j"])
    def test_all_matches_full_derivative(self, harmonic_trace, capsys, axis):
        path, f = harmonic_trace
        code, out, _ = run_cli("derive", "--in", str(path), "--axis", axis, "--all",
                               capsys=capsys)
        assert code == 0
        expected = "class,coordinate,d\n" + "".join(
            f"{diff_class},{c},{d}\n"
            for diff_class, field in sorted(full_derivative(f, Axis(axis)).items())
            for c, d in field)
        assert _first_difference(out, expected) is None

    @pytest.mark.parametrize("diff_class", [1, 5, 200, 10**6])
    def test_class_matches_difference_field(self, harmonic_trace, capsys, diff_class):
        path, f = harmonic_trace
        code, out, _ = run_cli("derive", "--in", str(path), "--axis", "i",
                               "--class", str(diff_class), capsys=capsys)
        assert code == 0
        field = difference_field(f, Axis.I, diff_class)
        expected = "coordinate,d\n" + "".join(f"{c},{d}\n" for c, d in field)
        assert _first_difference(out, expected) is None

    @pytest.mark.parametrize("mode", [["--all"], ["--class", "1"]])
    def test_decreasing_study_axis_prints_nothing(self, tmp_path, capsys, mode):
        path = tmp_path / "back.csv"
        write_trace_file(trace_for_function(from_step_sequence((0, 0), "i j i- i")),
                         str(path))
        code, out, err = run_cli("derive", "--in", str(path), "--axis", "i", *mode,
                                 capsys=capsys)
        assert code == 5
        assert out == ""
        assert "decreases at step 3" in err


class TestGridLimit:
    """ASCII and PBM refuse a viewport over MAX_GRID_CELLS before any output."""

    @pytest.fixture
    def elbow_path(self, tmp_path):
        path = tmp_path / "elbow.csv"
        write_trace_file(trace_for_function(from_step_sequence((0, 0), "i j")), str(path))
        return path

    @pytest.mark.parametrize("fmt", ["ascii", "pbm"])
    def test_viewport_over_limit(self, elbow_path, tmp_path, capsys, fmt):
        # 100 001 x 1 000 cells, just over 10**8.
        out_path = tmp_path / f"big.{fmt}"
        for out_args in ([], ["--out", str(out_path)]):
            code, out, err = run_cli("render", "--in", str(elbow_path), "--format", fmt,
                                     "--viewport", "0:100000:0:999", *out_args,
                                     capsys=capsys)
            assert code == 5
            assert out == ""
            assert "grid limit" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("fmt", ["ascii", "pbm"])
    def test_bounding_box_over_limit(self, tmp_path, capsys, fmt):
        # 10 000 i steps then 10 000 j steps: a 10 001 x 10 001 box.
        path = tmp_path / "corner.csv"
        f = IntegerFunction((0, 0), [StepKind(Axis.I, 1)] * 10**4 + [StepKind(Axis.J, 1)] * 10**4)
        write_trace_file(trace_for_function(f), str(path))
        out_path = tmp_path / f"corner.{fmt}"
        for out_args in ([], ["--out", str(out_path)]):
            code, out, err = run_cli("render", "--in", str(path), "--format", fmt,
                                     *out_args, capsys=capsys)
            assert code == 5
            assert out == ""
            assert "10001 x 10001" in err
        assert not out_path.exists()

    def test_svg_has_no_area_limit(self, elbow_path, capsys):
        code, out, _ = run_cli("render", "--in", str(elbow_path), "--format", "svg",
                               "--viewport", "0:100000:0:999", capsys=capsys)
        assert code == 0
        assert out.count("<rect") == 3


# What importing the package must not load: dataclasses and the modules it
# brings (inspect, ast, dis, tokenize) cost start-up time on every command.
START_UP_EXCLUDED = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def _modules_after(statement, tmp_path):
    src = str(Path(intfunc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", f"{statement}import sys; print(*sys.modules)"],
                            env=env, cwd=tmp_path, capture_output=True, text=True, check=True)
    return set(result.stdout.split())


@pytest.mark.parametrize("module", ["intfunc.cli", "intfunc"])
def test_import_leaves_dataclasses_out(module, tmp_path):
    # A fresh interpreter: pytest itself has loaded dataclasses in this one.
    added = _modules_after(f"import {module}; ", tmp_path) - _modules_after("", tmp_path)
    assert module in added
    assert not added & START_UP_EXCLUDED
