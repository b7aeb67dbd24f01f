"""A GenerationTrace is the path it walked plus register columns.

Here: generate and composite_generate hand back one path as the function and
inside the trace, the memory the two keep together, positions that must
follow from their steps (trace records, columns and trace files), and the
exit codes of `render --cell-px 0`.
"""

import io
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intfunc import core
from intfunc import (
    Axis,
    GenerationTrace,
    I_MINUS,
    I_PLUS,
    IntegerFunction,
    J_PLUS,
    PreconditionError,
    REGISTER_CAPACITY,
    RegisterBank,
    StepKind,
    TraceRecord,
    composite_generate,
    from_step_sequence,
    generate,
    harmonic_config,
)
from intfunc.cli import main
from intfunc.curves import egg_figure_config, line_config
from intfunc.io import (
    TRACE_COLUMNS,
    ParseError,
    function_from_trace,
    read_trace,
    trace_for_function,
    write_trace,
    write_trace_file,
)

CAP = REGISTER_CAPACITY
# read_trace reads row 1 alone, then replays chunks of B rows: rows kB + 1
# and kB + 2 close chunk k and open chunk k + 1, on lines kB + 2 and kB + 3.
B = core._BATCH_STEPS
I_COLUMN, J_COLUMN = TRACE_COLUMNS.index("i"), TRACE_COLUMNS.index("j")


def trace_lines(trace) -> list[str]:
    buffer = io.StringIO()
    write_trace(trace, buffer)
    return buffer.getvalue().splitlines()


def moved(line, column, delta) -> str:
    cells = line.split(",")
    cells[column] = str(int(cells[column]) + delta)
    return ",".join(cells)


def nudged(lines, lineno, column, delta) -> list[str]:
    """``lines`` with the cell in ``column`` of line ``lineno`` (from 1) moved by ``delta``."""
    return lines[:lineno - 1] + [moved(lines[lineno - 1], column, delta)] + lines[lineno:]


def read_lines(lines):
    return read_trace(io.StringIO("\n".join(lines) + "\n"))


class TestSharedPath:
    def test_generate_returns_the_trace_path(self):
        f, trace = generate(harmonic_config(10**4))
        assert trace.path is f

    def test_composite_generate_returns_the_trace_path(self):
        f, trace = composite_generate(egg_figure_config(300))
        assert trace.path is f

    def test_views_read_the_path(self):
        f, trace = composite_generate(egg_figure_config(300))
        assert trace.codes is f.codes
        assert list(trace.i) == list(f.i[1:]) and list(trace.j) == list(f.j[1:])
        with pytest.raises(TypeError):
            trace.i[0] = 5
        assert function_from_trace(trace) is f
        assert trace_for_function(f).path is f

    def test_list_register_columns_are_packed(self):
        # A register column given as a list is stored as the array('q') the
        # same values give, so the two traces are equal and both write.
        listed = GenerationTrace.from_columns(b"\0\0", [1, 2], [0, 0], [[1, 2]] + [0] * 15)
        packed = array("q", [1, 2])
        given = GenerationTrace.from_columns(b"\0\0", [1, 2], [0, 0], [packed] + [0] * 15)
        assert listed == given
        assert given.registers[0] is packed
        assert type(listed.column("RX")) is array
        assert read_lines(trace_lines(listed)) == listed

    def test_empty_traces_are_equal_whatever_their_start(self):
        empty = trace_for_function(IntegerFunction((5, -3)))
        assert empty == GenerationTrace() and hash(empty) == hash(GenerationTrace())
        with pytest.raises(PreconditionError, match="no steps"):
            function_from_trace(empty)

    def test_function_and_trace_per_step(self):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            f, trace = generate(harmonic_config(10**9))
            both = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trace) > 80_000
        assert both / len(trace) < 55


class TestPositionsFollowSteps:
    def test_record_with_a_non_unit_step(self):
        records = [TraceRecord(1, I_PLUS, 1, 0, RegisterBank()),
                   TraceRecord(2, StepKind(Axis.I, 2), 3, 0, RegisterBank())]
        with pytest.raises(PreconditionError, match="step 2 "):
            GenerationTrace(records)

    def test_record_with_a_contradicting_position(self):
        for i, j in ((2, 0), (1, 0), (1, 2), (CAP + 5, 0), (-CAP - 5, 0)):
            records = [TraceRecord(1, I_PLUS, 1, 0, RegisterBank()),
                       TraceRecord(2, J_PLUS, i, j, RegisterBank())]
            with pytest.raises(PreconditionError, match="step 2$"):
                GenerationTrace(records)

    def test_columns_with_a_contradicting_position(self):
        with pytest.raises(PreconditionError, match="step 3$"):
            GenerationTrace.from_columns(b"\0\1\2", array("q", [1, 1, 1]),
                                         array("q", [0, 1, 0]), [0] * 16)
        assert GenerationTrace.from_columns(
            b"\0\1\2", array("q", [1, 1, 0]), array("q", [0, 1, 1]), [0] * 16).path.start == (0, 0)

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
           st.lists(st.sampled_from([I_PLUS, J_PLUS, I_MINUS, StepKind(Axis.J, -1)]),
                    min_size=2, max_size=40),
           st.data())
    def test_nudged_row_names_its_line(self, start, steps, data):
        lines = trace_lines(trace_for_function(IntegerFunction(start, steps)))
        assert function_from_trace(read_lines(lines)) == IntegerFunction(start, steps)
        # Row 1 sits on line 2 and fixes the start; any later row must follow.
        lineno = data.draw(st.integers(3, len(steps) + 1))
        column = data.draw(st.sampled_from([I_COLUMN, J_COLUMN]))
        delta = data.draw(st.integers(-3, 3).filter(bool))
        with pytest.raises(ParseError, match=f"^line {lineno}: position"):
            read_lines(nudged(lines, lineno, column, delta))

    @pytest.fixture(scope="class")
    def long_lines(self):
        # 10 000 rows: row 1, then the chunks of B rows that read_trace
        # replays, at least eight of them.  Lines 4B + 2 and 4B + 3 hold the
        # last row of the fourth chunk and the first of the fifth, and line
        # 8B + 2 the last row of the eighth.
        lines = trace_lines(generate(line_config(7, 11, 10000))[1])
        assert len(lines) >= 8 * B + 2
        return lines

    @pytest.mark.parametrize("lineno", [3, 4 * B + 1, 4 * B + 2, 4 * B + 3, 8 * B + 2, 10001])
    def test_nudged_row_in_any_chunk(self, long_lines, lineno):
        with pytest.raises(ParseError, match=f"^line {lineno}: position"):
            read_lines(nudged(long_lines, lineno, J_COLUMN, 1))

    @pytest.mark.parametrize("lineno", [3, 4 * B + 2, 8 * B + 2])
    def test_shifted_rest_of_file(self, long_lines, lineno):
        # Every row from ``lineno`` on moves alike, so only that row breaks
        # from the one before, across a chunk boundary too.
        lines = long_lines[:lineno - 1] + [moved(line, I_COLUMN, 2)
                                           for line in long_lines[lineno - 1:]]
        with pytest.raises(ParseError, match=f"^line {lineno}: position"):
            read_lines(lines)

    def test_position_defect_before_a_later_token_defect(self, long_lines):
        lines = nudged(long_lines, 100, I_COLUMN, -1)
        lines[5000 - 1] = lines[5000 - 1].replace("i+", "up").replace("j+", "up")
        with pytest.raises(ParseError, match="^line 100: position"):
            read_lines(lines)
        lines = nudged(long_lines, 5000, I_COLUMN, -1)
        lines[100 - 1] = lines[100 - 1].replace("i+", "up").replace("j+", "up")
        with pytest.raises(ParseError, match="^line 100: invalid step token"):
            read_lines(lines)

    def test_derive_and_render_exit_3(self, tmp_path, capsys):
        path = tmp_path / "moved.csv"
        lines = trace_lines(trace_for_function(from_step_sequence((0, 0), "i j i j")))
        path.write_text("\n".join(nudged(lines, 4, I_COLUMN, 1)) + "\n")
        for argv in (["derive", "--axis", "i", "--class", "1"], ["derive", "--axis", "j", "--all"],
                     ["render", "--format", "ascii"], ["render", "--format", "svg"]):
            assert main([*argv, "--in", str(path)]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "line 4: position" in captured.err

    def test_start_outside_the_range_exits_5(self, tmp_path, capsys):
        # An i+ step to -CAP starts the path at -2**63.
        path = tmp_path / "edge.csv"
        path.write_text(",".join(TRACE_COLUMNS) + "\n"
                        + f"1,i+,{-CAP},0" + ",0" * 16 + "\n"
                        + f"2,i+,{-CAP + 1},0" + ",0" * 16 + "\n")
        assert main(["derive", "--in", str(path), "--axis", "i", "--class", "1"]) == 5
        captured = capsys.readouterr()
        assert captured.out == "" and "positions" in captured.err


class TestCellPx:
    @pytest.fixture
    def elbow_path(self, tmp_path):
        path = tmp_path / "elbow.csv"
        write_trace_file(trace_for_function(from_step_sequence((0, 0), "i j")), str(path))
        return path

    @pytest.mark.parametrize("extra, code", [
        (["--cell-px", "0"], 5),
        (["--cell-px", "0", "--viewport", "0:1:0:1"], 5),
        (["--viewport", "5:0:0:3"], 3),
        (["--cell-px", "-2", "--viewport", "0:1:3:0"], 3),
    ])
    def test_exit_codes(self, elbow_path, capsys, extra, code):
        assert main(["render", "--in", str(elbow_path), "--format", "svg", *extra]) == code
        assert capsys.readouterr().out == ""
