"""intfunc.io: the file formats on their own, apart from the CLI.

Covers the import boundary (no argparse), a path that open() would take as
a file descriptor, input that is not UTF-8 or that the CSV reader refuses,
a trace header that is missing or wrong, config and samples lines at any
line ending, the step-index column, the one KEY=VALUE item parser behind
config lines and --set, the rule that a trace error names the first bad
line wherever the chunks of rows fall, the one trace assembler at batch and
chunk edges, a read's memory against what it keeps, and reads of the same
text split into other lines.
"""

import csv
import hashlib
import io
import os
import subprocess
import sys
import tracemalloc
from array import array
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import intfunc
from intfunc import core
from intfunc import (
    ALL_REGISTERS,
    REGISTER_CAPACITY,
    GenerationMode,
    GenerationTrace,
    GeneratorConfig,
    IntegerFunction,
    IntegerFunctionError,
    ParseError,
    PreconditionError,
    RegisterBank,
    RegisterOverflowError,
    StepCount,
    composite_generate,
    from_step_sequence,
    generate,
)
from intfunc.cli import main
from intfunc.curves import (
    PRESETS,
    conic_config,
    egg_figure_config,
    exponential_config,
    free_fall_config,
    harmonic_config,
    line_config,
    parabola_config,
    pi_bounds,
    semicubic_config,
    sine_config,
    sinusoid_figure_config,
    uniform_motion_config,
)
from intfunc.io import (
    TRACE_COLUMNS,
    _read_parsed,
    parse_rational,
    read_config,
    read_samples_file,
    read_trace,
    trace_for_function,
    write_trace,
)

HEADER = ",".join(TRACE_COLUMNS)


def _row(k, token, i, j):
    return f"{k},{token},{i},{j}" + ",0" * 16


def _one_line_error(capsys, code, argv):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    return captured.err


def test_import_leaves_argparse_out():
    # Neither argparse, nor what only samples files need (fractions and
    # curves), nor calculus.
    src = str(Path(intfunc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    left_out = ("argparse", "fractions", "intfunc.curves", "intfunc.calculus")
    probe = f"import sys, intfunc.io; print(*(m in sys.modules for m in {left_out!r}))"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "False False False False\n"


@pytest.mark.parametrize("call", [
    "write_trace_file(GenerationTrace(), True)",
    "read_trace_file(True)",
    "read_config(True)",
    "read_samples_file(True)",
])
def test_a_path_that_is_not_a_name_is_refused(call, tmp_path):
    # open() would take True as file descriptor 1 and close it on exit, so
    # the print after the call would fail.  In a fresh process, whose fd 1
    # the test can lose.
    src = str(Path(intfunc.__file__).resolve().parents[1])
    probe = ("from intfunc import GenerationTrace, PreconditionError\n"
             "from intfunc.io import (read_config, read_samples_file, read_trace_file,\n"
             "                        write_trace_file)\n"
             "try:\n"
             f"    {call}\n"
             "except PreconditionError as exc:\n"
             "    print(exc)\n"
             "print('stdout still open')\n")
    result = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                            cwd=tmp_path, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "path must be a str or an os.PathLike\nstdout still open\n"


class TestNotUtf8:
    # The error names the file and the first line holding a byte that is
    # not UTF-8.
    def test_trace_header(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(HEADER.encode() + b"\xff\n" + _row(1, "i+", 1, 0).encode() + b"\n")
        err = _one_line_error(capsys, 3, ["render", "--in", str(path), "--format", "ascii"])
        assert err == f"parse error: {path} line 1: not UTF-8 text (invalid start byte)\n"

    def test_config(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"X=1\r\nY=\xe2\x82\n")
        err = _one_line_error(capsys, 3, ["generate", "--config", str(path),
                                          "--out", str(tmp_path / "out.csv")])
        assert err == (f"parse error: {path} line 2: not UTF-8 text "
                       "(invalid continuation byte)\n")
        assert not (tmp_path / "out.csv").exists()

    def test_samples(self, tmp_path, capsys):
        path = tmp_path / "bad.samples"
        path.write_bytes(b"0,0\n# one\r1/2,\xff\n")
        err = _one_line_error(capsys, 3, ["digitize", "--unit", "1", "--samples", str(path),
                                          "--out", str(tmp_path / "out.csv")])
        assert err == f"parse error: {path} line 3: not UTF-8 text (invalid start byte)\n"
        assert not (tmp_path / "out.csv").exists()


def test_oversized_cell_names_its_line(tmp_path, capsys):
    text = "\n".join([HEADER, _row(1, "i+", 1, 0), _row(2, "i+", "2" * 200_000, 0)]) + "\n"
    with pytest.raises(ParseError, match=r"^line 3: field larger than field limit"):
        read_trace(io.StringIO(text))
    path = tmp_path / "huge.csv"
    path.write_text(text)
    err = _one_line_error(capsys, 3, ["derive", "--in", str(path), "--axis", "i", "--class", "1"])
    assert "line 3:" in err


@pytest.mark.parametrize("rows, line", [(1, 2), (3, 4), (5000, 5001)])
def test_step_index_beyond_64_bits_is_out_of_order(rows, line):
    # k is a step index, not a register: 2**64 is out of order, not an overflow.
    lines = [_row(k, "i+", k, 0) for k in range(1, rows)] + [_row(2**64, "i+", rows, 0)]
    with pytest.raises(ParseError, match=f"^line {line}: step index {2**64} out of order$"):
        read_trace(io.StringIO("\n".join([HEADER, *lines]) + "\n"))


def test_start_outside_the_range_wins_over_a_later_defect(tmp_path, capsys):
    # Line 2's i+ step to -CAP starts the path at -2**63; line 3 has a bad token.
    path = tmp_path / "edge.csv"
    path.write_text("\n".join([HEADER, _row(1, "i+", -REGISTER_CAPACITY, 0),
                               _row(2, "up", 1 - REGISTER_CAPACITY, 0)]) + "\n")
    err = _one_line_error(capsys, 5, ["derive", "--in", str(path), "--axis", "i", "--class", "1"])
    assert "positions" in err


class TestConfigItems:
    @pytest.fixture
    def config_path(self, tmp_path):
        path = tmp_path / "line.cfg"
        path.write_text("X=3\nY=5\nSTOP=COUNT\nCAP=8\n")
        return path

    @pytest.mark.parametrize("item, message", [
        ("Q=1", "--set: unknown key 'Q'"),
        ("X1", "--set: expected KEY=VALUE, got 'X1'"),
    ])
    def test_set_and_config_lines_share_one_rule(self, tmp_path, capsys, config_path,
                                                  item, message):
        out = str(tmp_path / "out.csv")
        err = _one_line_error(capsys, 3, ["generate", "--config", str(config_path),
                                          "--set", item, "--out", out])
        assert err == f"parse error: {message}\n"
        # The item is refused before --config is opened: a missing file is not named.
        err = _one_line_error(capsys, 3, ["generate", "--config", str(tmp_path / "missing.cfg"),
                                          "--set", item, "--out", out])
        assert err == f"parse error: {message}\n"
        config_path.write_text(f"X=3\n{item}\n")
        err = _one_line_error(capsys, 3, ["generate", "--config", str(config_path), "--out", out])
        assert err == f"parse error: {message.replace('--set', 'line 2')}\n"


def test_samples_name_the_bad_token(tmp_path, capsys):
    path = tmp_path / "bad.samples"
    path.write_text("0,0\n1/2, zero\n")
    err = _one_line_error(capsys, 3, ["digitize", "--unit", "1", "--samples", str(path),
                                      "--out", str(tmp_path / "out.csv")])
    assert err.startswith("parse error: line 2: invalid rational 'zero'")


# Fraction builds 10**exponent exactly, which takes seconds once the exponent
# is in the millions; one past the integer-string limit is refused at once.
_INT_DIGITS = getattr(sys, "get_int_max_str_digits", int)()
needs_limit = pytest.mark.skipif(not _INT_DIGITS, reason="no integer-string limit")


@needs_limit
def test_exponent_limit_is_the_integer_string_limit():
    limit = _INT_DIGITS
    assert parse_rational(f"1e{limit}") == 10**limit
    assert parse_rational(f"-1E-{limit}") == Fraction(-1, 10**limit)
    assert parse_rational(f"1e{'0' * 9}5") == 10**5
    for token in (f"1e{limit + 1}", f"1E-{limit + 1}", f"2.5e+{limit + 1}", " 1e99_999_999 ",
                  "1e" + "9" * (limit + 1)):
        with pytest.raises(ParseError) as info:
            parse_rational(token)
        assert str(info.value) == f"invalid rational {token!r}: its exponent is beyond +/- {limit}"


@needs_limit
@pytest.mark.parametrize("unit", ["1e999999999", "1E-99999999"])
def test_huge_exponent_unit_is_refused(tmp_path, capsys, unit):
    path, out = tmp_path / "line.txt", tmp_path / "out.csv"
    path.write_text("0,0\n1/4,1/4\n")
    err = _one_line_error(capsys, 3, ["digitize", "--unit", unit, "--samples", str(path),
                                      "--out", str(out)])
    assert err == (f"parse error: invalid rational {unit!r}: its exponent is beyond "
                   f"+/- {_INT_DIGITS}\n")
    assert not out.exists()


@needs_limit
def test_huge_exponent_sample_names_its_line(tmp_path, capsys):
    path, out = tmp_path / "line.txt", tmp_path / "out.csv"
    path.write_text("0,0\n1/4,1e10000000\n")
    err = _one_line_error(capsys, 3, ["digitize", "--unit", "1/4", "--samples", str(path),
                                      "--out", str(out)])
    assert err == (f"parse error: line 2: invalid rational '1e10000000': its exponent is "
                   f"beyond +/- {_INT_DIGITS}\n")
    assert not out.exists()


# A trace of 6 000 rows spans several chunks of rows; each defect kind below
# breaks one row rule.
_DEFECTS = {
    "width": lambda cells: cells[:-1],
    "index": lambda cells: ["x", *cells[1:]],
    "token": lambda cells: [cells[0], "up", *cells[2:]],
    "position": lambda cells: [*cells[:2], str(int(cells[2]) + 2), *cells[3:]],
    "range": lambda cells: [*cells[:3], str(REGISTER_CAPACITY + 1), *cells[4:]],
    "register": lambda cells: [*cells[:4], str(-2**63), *cells[5:]],
    "integer": lambda cells: [*cells[:7], "1.5", *cells[8:]],
}


@pytest.fixture(scope="module")
def long_trace_lines():
    buffer = io.StringIO()
    write_trace(generate(line_config(7, 11, 6000))[1], buffer)
    return buffer.getvalue().splitlines()


@settings(max_examples=25, deadline=None)
@given(defects=st.lists(st.tuples(st.integers(3, 6001), st.sampled_from(sorted(_DEFECTS))),
                        min_size=1, max_size=3))
def test_error_is_that_of_the_first_bad_line(long_trace_lines, defects):
    # Reading the whole file must fail as reading it up to its first bad
    # line does, where that line is the last row and no chunk can hide it.
    lines = list(long_trace_lines)
    for lineno, kind in defects:
        lines[lineno - 1] = ",".join(_DEFECTS[kind](lines[lineno - 1].split(",")))
    first = min(lineno for lineno, _ in defects)
    errors = []
    for text in (lines, lines[:first]):
        with pytest.raises((ParseError, RegisterOverflowError)) as caught:
            read_trace(io.StringIO("\n".join(text) + "\n"))
        errors.append((type(caught.value), str(caught.value)))
    assert errors[0] == errors[1]
    assert errors[0][1].startswith(f"line {first}: ")


def test_refused_line_waits_for_an_earlier_bad_row():
    # Line 101 has a bad token and the line of the chunk's last row a cell
    # over the CSV field size limit: the earlier line is the one named.
    last = core._BATCH_STEPS
    lines = [HEADER] + [_row(k, "i+", k, 0) for k in range(1, last + 1)]
    lines[100] = _row(100, "up", 100, 0)
    lines[last] = _row(last, "i+", "2" * 200_000, 0)
    text = "\n".join(lines) + "\n"
    for reader in (read_trace, _read_parsed):
        with pytest.raises(ParseError, match=r"^line 101: invalid step token 'up'"):
            reader(io.StringIO(text))


def test_error_names_the_line_a_row_starts_on():
    # Row 1's quoted RX cell spans lines 2 and 3, so row 2 starts on line 4.
    lines = [HEADER, '1,i+,1,0,"1\n"' + ",0" * 15, _row(2, "up", 2, 0)]
    text = "\n".join(lines) + "\n"
    assert text.count("\n") == 4
    for reader in (read_trace, _read_parsed):
        with pytest.raises(ParseError, match=r"^line 4: invalid step token 'up'"):
            reader(io.StringIO(text))


@pytest.mark.parametrize("text, message", [
    ("", "empty trace file (missing header)"),
    ("k,step,i,j\n", "trace header does not match the expected 20 columns"),
    ("k" * (csv.field_size_limit() + 1) + "\n",
     f"line 1: field larger than field limit ({csv.field_size_limit()})"),
])
def test_a_bad_header_is_refused(text, message):
    for reader in (read_trace, _read_parsed):
        with pytest.raises(ParseError) as info:
            reader(io.StringIO(text))
        assert str(info.value) == message


def _read_or_refuse(path, reader):
    try:
        return reader(str(path))
    except ParseError as exc:
        return str(exc)


@pytest.mark.parametrize("ending", ["\r\n", "\r"])
def test_config_and_samples_read_alike_at_any_line_ending(tmp_path, ending):
    # Files open with newline="", so lines keep their ending; config and
    # samples lines strip it, and a line is numbered alike at any ending.
    files = {
        "line.cfg": ("# a line\nX=3\n\nY=5  # rate\nSTOP=COUNT\nCAP=8\n", read_config),
        "bad.cfg": ("X=3\n\nY=5\nX1\n", read_config),
        "line.txt": ("# x,y\n0,0\n\n1/4, 3/20 # one\n1/2,3/10\n", read_samples_file),
        "bad.txt": ("# x,y\n\n0,0,0\n", read_samples_file),
    }
    for name, (text, reader) in files.items():
        lf, other = tmp_path / name, tmp_path / f"other-{name}"
        lf.write_bytes(text.encode())
        other.write_bytes(text.replace("\n", ending).encode())
        assert _read_or_refuse(lf, reader) == _read_or_refuse(other, reader)
    assert read_config(str(tmp_path / "other-line.cfg")) == GeneratorConfig(
        (0, 0), RegisterBank(X=3, Y=5), StepCount(8))
    assert _read_or_refuse(tmp_path / "other-bad.cfg", read_config) == (
        "line 4: expected KEY=VALUE, got 'X1'")
    assert read_samples_file(str(tmp_path / "other-line.txt")).points == (
        (0, 0), (Fraction(1, 4), Fraction(3, 20)), (Fraction(1, 2), Fraction(3, 10)))
    assert _read_or_refuse(tmp_path / "other-bad.txt", read_samples_file) == (
        "line 3: expected x,y")


def test_write_trace_takes_any_object_with_a_write_method():
    trace = generate(line_config(3, 5, 8))[1]
    written, text = [], io.StringIO()
    write_trace(trace, SimpleNamespace(write=written.append))
    write_trace(trace, text)
    assert "".join(written) == text.getvalue()
    with pytest.raises(PreconditionError) as info:
        write_trace(trace, SimpleNamespace(write="text"))
    assert str(info.value) == "stream must have a write method"


# One trace per preset, with negative constant registers among them, and a
# bare path with its all-zero bank.
_PRESET_CONFIGS = {
    "line": line_config(7, 11, 40),
    "uniform": uniform_motion_config(5, 3),
    "parabola": parabola_config(-2, 9, 60, x=1),
    "freefall": free_fall_config(-1, 30, 50, 20),
    "exponential": exponential_config(-1, 4, 30, x=2),
    "conic": conic_config(-2, 3, 40, x=9, y=1),
    "sine": sine_config(-1, 7, 40, x=7, xx=-1),
    "harmonic": harmonic_config(10**4),
    "semicubic": semicubic_config(2, -3, 30, x=1, yy=1, y=4),
    "egg_figure": egg_figure_config(300),
    "sinusoid_figure": sinusoid_figure_config(300),
}


def _run(config):
    if config.mode is GenerationMode.MONOTONE:
        return generate(config)[1]
    return composite_generate(config)[1]


@pytest.fixture(scope="module")
def traces():
    assert set(_PRESET_CONFIGS) == set(PRESETS)
    bare = trace_for_function(from_step_sequence((-3, 2), "i j i- j- j- i i"))
    return [_run(config) for config in _PRESET_CONFIGS.values()] + [bare, GenerationTrace()]


def _text(trace):
    buffer = io.StringIO()
    write_trace(trace, buffer)
    return buffer.getvalue()


def test_write_trace_is_what_csv_writer_writes(traces, monkeypatch):
    assert any(isinstance(entry, int) and entry < 0
               for trace in traces for entry in trace.registers)
    for trace in traces:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        writer.writerows(zip(range(1, len(trace) + 1), (s.token for s in trace.path.steps),
                             trace.i, trace.j, *map(trace.column, ALL_REGISTERS)))
        assert _text(trace) == buffer.getvalue()
    # What write_trace writes reads back as the trace it wrote, and a run's
    # file, fixed by its row 1, never needs the csv.reader path after it.
    for trace in traces:
        assert read_trace(io.StringIO(_text(trace))) == trace
    monkeypatch.setattr(intfunc.io, "_read_csv_rows", None)
    for trace in traces[:-2]:
        assert read_trace(io.StringIO(_text(trace))) == trace


def test_a_step_index_spelled_otherwise_is_parsed(traces):
    # 05, +6 and " 7" are the step indices 5, 6 and 7 to the row checker,
    # which parses k only where its text is not the expected index.
    lines = _text(traces[0]).splitlines(keepends=True)
    for k, text in ((5, "05"), (6, "+6"), (7, " 7")):
        lines[k] = text + lines[k][len(str(k)):]
    text = "".join(lines)
    assert read_trace(io.StringIO(text)) == _read_parsed(io.StringIO(text)) == traces[0]


# sha256 of the file `pi --x0 1000000 --trace` writes (2 569 rows), which
# a change to the trace writer must keep.
PI_1E6_TRACE_SHA256 = "56afc6da5af34db5f664b31f444b1d8e1763c29c6c51642582994e7941c5343d"


def test_pi_trace_file_is_unchanged(tmp_path, capsys):
    path = tmp_path / "pi.csv"
    assert main(["pi", "--x0", str(10**6), "--trace", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PI_1E6_TRACE_SHA256


# sha256 of what write_trace writes for two sign-harmonized runs of 3 000
# rows, each across two chunk edges, with i- and j- rows among them.
FIGURE_TRACE_SHA256 = {
    "egg_figure": "db8f1822caf58d44c04183acde5c664f2f69a182f3343a9c10d68119700967ca",
    "sinusoid_figure": "1ad5543592cc9b90908002dd7ebd98b2526dd9a66da731b90481a7d257fe6a17",
}


@pytest.mark.parametrize("name", sorted(FIGURE_TRACE_SHA256))
def test_sign_harmonized_trace_file_is_unchanged(name):
    trace = composite_generate(PRESETS[name](3000))[1]
    assert len(trace) > 2 * core._BATCH_STEPS
    text = _text(trace)
    assert "-," in text
    assert hashlib.sha256(text.encode()).hexdigest() == FIGURE_TRACE_SHA256[name]


# core._Parts builds every trace.  Each run below crosses batch and chunk
# edges: in the two lines one regulator holds for about 10 000 steps, so it is
# an int in some parts and a column in a later one, and the other way round.
_EDGE_CONFIGS = [*_PRESET_CONFIGS.values(), harmonic_config(10**6),
                 line_config(10000, 1, 10100), line_config(1, 10000, 10100)]


@pytest.fixture(scope="module")
def edge_traces():
    return [_run(config) for config in _EDGE_CONFIGS]


@pytest.mark.parametrize("size", [1, 3, 64])
def test_parts_join_at_every_edge(edge_traces, size, monkeypatch):
    # == compares the paths and the registers, and so whether each register
    # is kept as an int or as an array.
    monkeypatch.setattr(core, "_BATCH_STEPS", size)
    for config, expected in zip(_EDGE_CONFIGS, edge_traces):
        trace = _run(config)
        text = _text(trace)
        for built in (trace, GenerationTrace(trace.records),
                      read_trace(io.StringIO(text)), _read_parsed(io.StringIO(text))):
            assert built == expected


def test_one_part_size_for_runs_writes_and_replays(monkeypatch):
    # core._BATCH_STEPS alone sets the part size: a run's batches, the
    # chunks write_trace writes after the header and the chunks read_trace
    # replays after row 1, which it reads alone.
    monkeypatch.setattr(core, "_BATCH_STEPS", 3)
    batches, batch = [], core._batch

    def counted(regs, shape, steps, start):
        batches.append(steps)
        return batch(regs, shape, steps, start)

    monkeypatch.setattr(core, "_batch", counted)
    monkeypatch.setattr(intfunc.io, "_batch", counted)
    trace = generate(line_config(7, 11, 10))[1]
    assert batches == [3, 3, 3, 1]
    writes = []
    write_trace(trace, SimpleNamespace(write=writes.append))
    assert [text.count("\n") for text in writes] == [1, 3, 3, 3, 1]
    batches.clear()
    assert read_trace(io.StringIO("".join(writes))) == trace
    assert batches == [3, 3, 3]


def test_parts_keep_an_int_until_a_part_differs():
    f = from_step_sequence((2, 3), "i j i j i")
    first = IntegerFunction.from_codes((2, 3), f.codes[:2])
    second = IntegerFunction.from_codes(first.end, f.codes[2:])
    # Per register: the first part's entry, the second's, and the joined entry.
    cases = [(5, 5, 5), (5, array("q", [5] * 3), 5), (array("q", [5, 5]), 5, 5),
             (5, 6, array("q", [5, 5, 6, 6, 6])),
             (array("q", [1, 2]), 2, array("q", [1, 2, 2, 2, 2])),
             (4, array("q", [4, 5, 4]), array("q", [4, 4, 4, 5, 4]))]
    cases += [(0, 0, 0)] * (len(ALL_REGISTERS) - len(cases))
    firsts, seconds, joined = zip(*cases)
    trace = core._Parts().add(first, firsts).add(second, seconds).trace()
    assert trace.path == f and trace.codes == f.codes
    assert list(trace.i) == list(f.i[1:]) and list(trace.j) == list(f.j[1:])
    assert trace.registers == joined
    assert core._Parts().trace() == GenerationTrace()


def _pi_trace(x0):
    return generate(harmonic_config(x0, cap=pi_bounds(x0).step_count))[1]


def _read_overhead(x0):
    """Rows of the pi trace of ``x0``, and the tracemalloc peak of one
    read_trace of its lines less what the read keeps."""
    trace = _pi_trace(x0)
    lines = _text(trace).splitlines(keepends=True)
    tracemalloc.start()
    try:
        read = read_trace(lines)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert read == trace
    return len(trace), peak - kept


def test_read_memory_does_not_grow_past_what_it_keeps():
    # A read holds one chunk of cells beside the trace it builds, so what it
    # needs beyond what it keeps stays near one chunk's worth at any length.
    (rows, overhead), (more_rows, more_overhead) = map(_read_overhead, (10**8, 10**9))
    assert (rows, more_rows) == (25706, 81294)
    assert more_overhead - overhead <= 16 * (more_rows - rows)
    # One chunk of 1 024 rows is about 1 MiB of cells, lines and text.
    assert more_overhead <= 1.5 * 2**20


def test_write_holds_one_chunk():
    # write_trace joins one chunk of rows at a time, about 0.36 MiB here.
    trace = _pi_trace(10**9)
    with open(os.devnull, "w", encoding="utf-8") as null:
        tracemalloc.start()
        try:
            write_trace(trace, null)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 0.75 * 2**20


def _edit_cells(change):
    def mutate(lines, at, column):
        body = lines[at].rstrip("\r\n")
        cells = body.split(",")
        if len(cells) > 1:  # not a blank line
            change(cells, min(column, len(cells) - 1))
            lines[at] = ",".join(cells) + lines[at][len(body):]
    return mutate


def _set(cells, column, text):
    cells[column] = text


def _end_line(lines, at, ending):
    lines[at] = lines[at].rstrip("\r\n") + ending


def _step_along_i(cells, column):
    if len(cells) > 2 and cells[2].lstrip("-").isdigit():
        cells[2] = str(int(cells[2]) + 1)


def _move(lines, at, column):
    # Row ``at`` and every row after it one step further along i: the path
    # breaks at that row only, even where it opens a chunk.
    for n in range(at, len(lines)):
        _edit_cells(_step_along_i)(lines, n, column)


def _shift(lines, at, column):
    # The last cell of a row opens the next one: 19 and 21 cells that add up
    # to two rows' worth of commas.
    if at + 1 < len(lines):
        body = lines[at].rstrip("\r\n")
        head, _, last = body.rpartition(",")
        lines[at] = head + lines[at][len(body):]
        lines[at + 1] = f"{last},{lines[at + 1]}"


# Changes to a trace file that csv.reader reads in its own way (a quote, a
# carriage return, a NUL, a cell over its field size limit), or that break a
# row rule: one line and one column each.
_MUTATIONS = {
    "quote": _edit_cells(lambda cells, c: _set(cells, c, f'"{cells[c]}"')),
    "crlf": lambda lines, at, c: _end_line(lines, at, "\r\n"),
    "cr": _edit_cells(lambda cells, c: _set(cells, c, cells[c] + "\r")),
    "blank": lambda lines, at, c: lines.insert(at, "\n"),
    "nul": _edit_cells(lambda cells, c: _set(cells, c, cells[c] + "\0")),
    "zero": _edit_cells(lambda cells, c: _set(cells, c, "0" + cells[c])),
    "plus": _edit_cells(lambda cells, c: _set(cells, c, "+" + cells[c])),
    "space": _edit_cells(lambda cells, c: _set(cells, c, " " + cells[c])),
    "token": _edit_cells(lambda cells, c: _set(cells, 1, "up")),
    "moved": _move,
    "narrow": _edit_cells(lambda cells, c: cells.pop()),
    "wide": _edit_cells(lambda cells, c: cells.append("0")),
    "shift": _shift,
    # int() takes the spaces, csv.reader refuses the cell.
    "oversized": _edit_cells(
        lambda cells, c: _set(cells, c, " " * csv.field_size_limit() + cells[c])),
    "unterminated": lambda lines, at, c: _end_line(lines, -1, ""),
}


@pytest.fixture(scope="module")
def trace_files(traces, long_trace_lines):
    return [_text(trace).splitlines(keepends=True) for trace in traces[:-1]] + [
        [line + "\n" for line in long_trace_lines]]


def _outcome_of_lines(reader, lines):
    try:
        return reader(lines)
    except IntegerFunctionError as exc:
        return type(exc), str(exc)


def _outcome(reader, text, newline):
    return _outcome_of_lines(reader, io.StringIO(text, newline=newline))


# Rows 1 and B open and close the first chunk of B lines that the parser
# reads, and B + 1 opens its second; a replay reads row 1 alone, so rows
# B + 1 and B + 2 close its first chunk and open its second.  The long file
# has 6 000 rows.
B = core._BATCH_STEPS
_EDGES = (1, 2, B - 1, B, B + 1, B + 2, 6000)


# ``pick`` is a preset's file, the bare path's (11) or the long file's (-1).
@settings(max_examples=80, deadline=None)
@given(pick=st.one_of(st.just(-1), st.integers(0, len(_PRESET_CONFIGS))),
       mutations=st.lists(st.tuples(st.one_of(st.sampled_from(_EDGES), st.integers(1, 10**4)),
                                    st.sampled_from(sorted(_MUTATIONS)),
                                    st.sampled_from(range(len(TRACE_COLUMNS)))),
                          min_size=1, max_size=3),
       newline=st.sampled_from(["\n", ""]))
@example(pick=-1, mutations=[(B + 1, "moved", 0)], newline="\n")
@example(pick=-1, mutations=[(B, "shift", 0)], newline="\n")
@example(pick=-1, mutations=[(100, "token", 0), (2000, "oversized", 7)], newline="\n")
@example(pick=0, mutations=[(3, "cr", 5)], newline="\n")
@example(pick=0, mutations=[(3, "crlf", 0), (9, "nul", 4)], newline="")
def test_csv_edits_read_as_the_parser_reads(trace_files, pick, mutations, newline):
    lines = list(trace_files[pick])
    for row, kind, column in mutations:
        _MUTATIONS[kind](lines, (row - 1) % (len(lines) - 1) + 1, column)
    text = "".join(lines)
    assert _outcome(read_trace, text, newline) == _outcome(_read_parsed, text, newline)


# read_trace parses row 1 and replays the machine from it; _read_parsed
# parses every row.  Every file below, and every edit of one, must read the
# same through both.

@pytest.fixture(scope="module")
def replay_files(traces):
    """The preset files, and the pi file cut to row 1 and 1, 2 and 3 replayed
    chunks of rows after it, one row short of, at and one row past each
    chunk edge."""
    b = core._BATCH_STEPS
    pi = _text(_pi_trace(10**7)).splitlines(keepends=True)
    assert len(pi) > 3 * b + 2
    cuts = [1, 2] + [n * b + d for n in (1, 2, 3) for d in (0, 1, 2)]
    return [_text(trace).splitlines(keepends=True) for trace in traces[:-1]] + [
        pi[:1 + rows] for rows in cuts]


def _changed_byte(column):
    # One character of the cell in ``column`` (a register column when None)
    # becomes another: a digit, a sign, a letter or a space.
    def edit(lines, at, n):
        cells = lines[at].split(",")
        c = 4 + n % 16 if column is None else column
        body = cells[c].rstrip("\r\n")
        spot = n % len(body)
        cells[c] = body[:spot] + "0159-x "[n % 7] + cells[c][spot + 1:]
        lines[at] = ",".join(cells)
    return edit


_EDITS = {
    "register": _changed_byte(None),
    "i": _changed_byte(2),
    "k": _changed_byte(0),
    "delete": lambda lines, at, n: lines.pop(at),
    "duplicate": lambda lines, at, n: lines.insert(at, lines[at]),
    "crlf": lambda lines, at, n: _end_line(lines, at, "\r\n"),
    "no final newline": lambda lines, at, n: _end_line(lines, -1, ""),
    "blank": lambda lines, at, n: lines.insert(at, "\n"),
}


@settings(max_examples=120, deadline=None)
@given(pick=st.integers(0, 10**3), edit=st.sampled_from(sorted(_EDITS)),
       row=st.integers(1, 10**4), n=st.integers(0, 10**6))
@example(pick=-1, edit="register", row=3074, n=5)
@example(pick=-2, edit="i", row=2049, n=0)
@example(pick=-6, edit="delete", row=1025, n=0)
@example(pick=-7, edit="duplicate", row=2, n=0)
@example(pick=-8, edit="crlf", row=1024, n=0)
@example(pick=-4, edit="no final newline", row=1, n=0)
@example(pick=-5, edit="blank", row=1026, n=0)
@example(pick=-3, edit="k", row=1, n=3)
def test_replay_reads_as_the_parser_reads(replay_files, pick, edit, row, n):
    lines = list(replay_files[pick % len(replay_files)])
    _EDITS[edit](lines, (row - 1) % (len(lines) - 1) + 1, n)
    text = "".join(lines)
    assert (_outcome(read_trace, text, "")
            == _outcome(_read_parsed, text, ""))


@pytest.fixture
def parses(monkeypatch):
    """Each _parse_rows call from here on, as its first step index."""
    calls, parse = [], intfunc.io._parse_rows

    def counted(rows, k, last):
        calls.append(k)
        return parse(rows, k, last)

    monkeypatch.setattr(intfunc.io, "_parse_rows", counted)
    return calls


def _machine_traces():
    b = core._BATCH_STEPS
    harmonized = GenerationMode.SIGN_HARMONIZED
    late_minus = composite_generate(GeneratorConfig(
        (0, 0), RegisterBank(X=b, Y=b, XX=-1), StepCount(3 * b), harmonized))[1]
    first_minus = composite_generate(GeneratorConfig(
        (5, -5), RegisterBank(X=-3, Y=2, XX=1), StepCount(2 * b + 1), harmonized))[1]
    falling = generate(parabola_config(-1, 1, 2 * b + 1, x=8))[1]
    edge = REGISTER_CAPACITY - (3 * b // 4 + 32)
    near_capacity = generate(GeneratorConfig(
        (0, 0), RegisterBank(RX=edge, RY=edge, X=1, Y=1), StepCount(3 * b // 2)))[1]
    minus = [n for n, code in enumerate(late_minus.codes) if code in (2, 3)]
    assert minus and minus[0] >= b
    assert first_minus.codes[0] == 2
    assert falling.path.is_monotone() and min(falling.column("X")) < 0
    return [late_minus, first_minus, falling, near_capacity]


def test_machine_runs_are_replayed_after_row_1(parses, monkeypatch):
    fits, fitted = [], core._batch_fits

    def batch_fits(regs, steps):
        fits.append(result := fitted(regs, steps))
        return result

    monkeypatch.setattr(core, "_batch_fits", batch_fits)
    for trace in _machine_traces():
        text = _text(trace)
        parses.clear()
        fits.clear()
        assert read_trace(io.StringIO(text)) == trace
        assert parses == [1]
    # The last trace runs within 2**63 - 1 only by a little more than its
    # length, so its first replay is checked.
    assert fits[0] is False


@pytest.fixture(scope="module")
def machine_files():
    """The lines of each machine trace and of the pi trace of 1e6, whose
    harmonic run replays monotone."""
    return [_text(trace).splitlines(keepends=True)
            for trace in _machine_traces() + [_pi_trace(10**6)]]


def _resplit(lines, how, at, cut):
    """Re-split ``lines`` in place, keeping its text: element ``at`` (for
    "edge", the row that closes a replayed chunk, cut) is joined with the
    next, cut in two, or preceded by an empty str."""
    if how == "edge":
        b = core._BATCH_STEPS
        at, how = 1 + b * (1 + at % ((len(lines) - 2) // b)), "cut"
    if how == "join":
        lines[at:at + 2] = ["".join(lines[at:at + 2])]
    elif how == "cut":
        cut = 1 + cut % max(len(lines[at]) - 1, 1)
        lines[at:at + 1] = [lines[at][:cut], lines[at][cut:]]
    else:
        lines.insert(at, "")


# read_trace takes any iterable of str, as csv.reader does: a replayed chunk
# counts only where its elements are the replayed rows one for one, so an
# element that holds two rows or part of one reads as _read_parsed reads it,
# even where the chunk's joined text is the rows' text.
_SPLIT = st.tuples(st.sampled_from(["join", "cut", "empty", "edge"]),
                   st.integers(1, 10**4), st.integers(0, 200))


@settings(max_examples=60, deadline=None)
@given(pick=st.integers(0, 4), splits=st.lists(_SPLIT, min_size=1, max_size=2))
@example(pick=4, splits=[("join", 2, 0), ("cut", 2, 69)])  # row 2 + row 3[:5], row 3[5:]
@example(pick=4, splits=[("edge", 1, 40)])
@example(pick=0, splits=[("cut", 2000, 10)])
@example(pick=1, splits=[("join", 3, 0)])
@example(pick=2, splits=[("empty", 1500, 0)])
def test_any_split_of_the_lines_reads_as_the_parser_reads(machine_files, pick, splits):
    lines = list(machine_files[pick])
    for how, at, cut in splits:
        _resplit(lines, how, 1 + (at - 1) % (len(lines) - 1), cut)
    assert "".join(lines) == "".join(machine_files[pick])
    assert _outcome_of_lines(read_trace, lines) == _outcome_of_lines(_read_parsed, lines)


def test_a_run_is_replayed_on_the_kernel_it_ran_on():
    # X starts at zero and is not at row 1, but it is live in both: the
    # replay's key is the run's dead set, so it compiles nothing new.
    config = parabola_config(3, 7, 5000)
    assert config.bank.X == 0
    core._compile_kernel.cache_clear()
    trace = generate(config)[1]
    compiled = core._compile_kernel.cache_info().misses
    assert trace.column("X")[0] != 0
    assert read_trace(io.StringIO(_text(trace))) == trace
    assert core._compile_kernel.cache_info().misses == compiled


def _row_1_spellings(line):
    """Row 1 of a run's file as the writer would not write it, by name."""
    cells = line.split(",")
    quoted = cells[:1] + [f'"{cells[1]}"'] + cells[2:]
    spanning = cells[:4] + [f'"{cells[4]}\n"'] + cells[5:]
    return {"01": "0" + line, "+1": "+" + line, "quoted": ",".join(quoted),
            "quoted over lines 2-3": ",".join(spanning),
            "crlf": line.replace("\n", "\r\n")}


def test_a_row_1_the_writer_would_not_write_is_parsed_from_row_1(traces, parses):
    # Row 1 opens the replay only when its line is the text write_trace
    # writes for it; any other spelling is read as _read_parsed reads it,
    # with row 2 intact and with a bad token.
    lines = _text(traces[0]).splitlines(keepends=True)
    bad = lines[2].split(",")
    bad[1] = "up"
    for name, line in _row_1_spellings(lines[1]).items():
        for row_2 in (lines[2], ",".join(bad)):
            text = "".join([lines[0], line, row_2, *lines[3:]])
            parses.clear()
            outcome = _outcome(read_trace, text, "")
            assert parses[:2] == [1, 1], name
            assert outcome == _outcome(_read_parsed, text, ""), name
            assert (outcome == traces[0]) == (row_2 is lines[2]), name
    assert _row_1_spellings(lines[1])["quoted over lines 2-3"].count("\n") == 2


def _digitized(tmp_path):
    samples = tmp_path / "line.txt"
    samples.write_text("".join(f"{x}/40,{3 * x}/200\n" for x in range(4000)))
    out = tmp_path / "line.csv"
    assert main(["digitize", "--unit", "1/10", "--samples", str(samples), "--out", str(out)]) == 0
    return out.read_text()


def test_other_files_are_parsed_after_a_miss(parses, tmp_path):
    b = core._BATCH_STEPS
    bare = trace_for_function(from_step_sequence((-3, 2), "i j i- j- j- i i " * b))
    zeros = ",0" * 11
    overflow = "".join([
        HEADER + "\n",
        f"1,i+,1,0,0,0,{REGISTER_CAPACITY},0,1{zeros}\n",  # the machine's next X overflows
        f"2,i+,2,0,0,0,{REGISTER_CAPACITY},0,1{zeros}\n"])
    for text in (_text(bare), _digitized(tmp_path), overflow):
        parses.clear()
        read = read_trace(io.StringIO(text))
        assert parses[0] == 1 and len(parses) > 1
        # Once a chunk misses, every later one is parsed.
        assert parses[1:] == list(range(2, len(read) + 1, b))
        assert read == _read_parsed(io.StringIO(text))
    assert read_trace(io.StringIO(_text(bare))) == bare
