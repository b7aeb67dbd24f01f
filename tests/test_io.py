"""intfunc.io: the file formats on their own, apart from the CLI.

Covers the import boundary (no argparse), input that is not UTF-8 or that
the CSV reader refuses, the step-index column, the one KEY=VALUE item
parser behind config lines and --set, and the rule that a trace error names
the first bad line wherever the chunks of rows fall.
"""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import intfunc
from intfunc import REGISTER_CAPACITY, ParseError, RegisterOverflowError, generate
from intfunc.cli import main
from intfunc.curves import line_config
from intfunc.io import TRACE_COLUMNS, read_trace, write_trace

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
    src = str(Path(intfunc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, intfunc.io; print('argparse' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"


class TestNotUtf8:
    def test_trace_header(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(HEADER.encode() + b"\xff\n" + _row(1, "i+", 1, 0).encode() + b"\n")
        err = _one_line_error(capsys, 3, ["render", "--in", str(path), "--format", "ascii"])
        assert err.startswith("parse error:") and "not UTF-8" in err

    def test_config(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"X=1\xff\n")
        err = _one_line_error(capsys, 3, ["generate", "--config", str(path),
                                          "--out", str(tmp_path / "out.csv")])
        assert "not UTF-8" in err
        assert not (tmp_path / "out.csv").exists()

    def test_samples(self, tmp_path, capsys):
        path = tmp_path / "bad.samples"
        path.write_bytes(b"1/2,\xff\n")
        err = _one_line_error(capsys, 3, ["digitize", "--unit", "1", "--samples", str(path),
                                          "--out", str(tmp_path / "out.csv")])
        assert "not UTF-8" in err
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
        config_path.write_text(f"X=3\n{item}\n")
        err = _one_line_error(capsys, 3, ["generate", "--config", str(config_path), "--out", out])
        assert err == f"parse error: {message.replace('--set', 'line 2')}\n"


def test_samples_name_the_bad_token(tmp_path, capsys):
    path = tmp_path / "bad.samples"
    path.write_text("0,0\n1/2, zero\n")
    err = _one_line_error(capsys, 3, ["digitize", "--unit", "1", "--samples", str(path),
                                      "--out", str(tmp_path / "out.csv")])
    assert err.startswith("parse error: line 2: invalid rational 'zero'")


# A trace of 6 000 rows spans two chunks of rows; each defect kind below
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
