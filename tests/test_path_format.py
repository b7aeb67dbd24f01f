"""IntegerFunction stored as step codes and i/j columns.

The reference below keeps a path the readable way, a StepKind and an
IntegerPair per step, and every view of the coded path must agree with it.
Also here: the position bound of paths and trace records, malformed steps,
the memory the format keeps, and XML-invalid SVG labels on the command line.
"""

import tracemalloc
from fractions import Fraction
from itertools import accumulate
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intfunc import (
    Axis,
    GenerationTrace,
    I_MINUS,
    I_PLUS,
    IntegerFunction,
    IntegerPair,
    IntegerScale,
    J_MINUS,
    J_PLUS,
    PreconditionError,
    REGISTER_CAPACITY,
    RegisterBank,
    StepKind,
    TraceRecord,
    from_step_sequence,
    generate,
    harmonic_config,
)
from intfunc.cli import main
from intfunc.curves import RealSampleSeries, digitize
from intfunc.io import function_from_trace, trace_for_function, write_trace_file

CAP = REGISTER_CAPACITY
FAST = settings(max_examples=300, deadline=None)


class TuplePath:
    """A path kept as one StepKind and one IntegerPair per step."""

    def __init__(self, start, steps):
        self.start = IntegerPair(*start)
        self.steps = tuple(steps)
        di = [s.sign if s.axis is Axis.I else 0 for s in self.steps]
        dj = [s.sign if s.axis is Axis.J else 0 for s in self.steps]
        self.elements = tuple(IntegerPair(i, j) for i, j in
                              zip(accumulate(di, initial=self.start.i),
                                  accumulate(dj, initial=self.start.j)))

    def in_range(self) -> bool:
        return all(abs(c) <= CAP for e in self.elements for c in e)

    def transposed(self) -> "TuplePath":
        other = {Axis.I: Axis.J, Axis.J: Axis.I}
        return TuplePath((self.start.j, self.start.i),
                         [StepKind(other[s.axis], s.sign) for s in self.steps])

    def key(self):
        return self.start, self.steps


coordinates = st.one_of(st.integers(-20, 20), st.integers(-CAP, CAP),
                        st.sampled_from((CAP, -CAP, CAP - 2, -CAP + 2, CAP + 1, -CAP - 1)))
starts = st.tuples(coordinates, coordinates)
step_lists = st.lists(st.sampled_from((I_PLUS, J_PLUS, I_MINUS, J_MINUS)), max_size=40)


def assert_same_path(f, ref):
    assert f.start == ref.start
    assert f.steps == ref.steps
    assert f.elements == ref.elements
    assert f.end == ref.elements[-1]
    assert f.length == len(ref.steps)
    assert f.is_monotone() == all(s.sign > 0 for s in ref.steps)
    assert type(f.steps) is tuple and type(f.elements) is tuple
    assert all(type(e) is IntegerPair for e in f.elements)


class TestEquivalence:
    @FAST
    @given(starts, step_lists)
    def test_views_match_the_tuple_path(self, start, steps):
        ref = TuplePath(start, steps)
        if not ref.in_range():
            with pytest.raises(PreconditionError, match="positions"):
                IntegerFunction(start, steps)
            return
        f = IntegerFunction(start, steps)
        assert_same_path(f, ref)
        t = f.transposed()
        assert_same_path(t, ref.transposed())
        assert t == IntegerFunction(*ref.transposed().key())
        assert t.transposed() == f

    @FAST
    @given(starts, step_lists, starts, step_lists, st.integers(0, 3))
    def test_equality_and_hash(self, start, steps, other_start, other_steps, how):
        # Half the pairs share a start or steps, so equal paths come up often.
        if how & 1:
            other_start = start
        if how & 2:
            other_steps = steps[:len(other_steps)]
        a, b = TuplePath(start, steps), TuplePath(other_start, other_steps)
        if not (a.in_range() and b.in_range()):
            return
        f, g = IntegerFunction(start, steps), IntegerFunction(other_start, other_steps)
        assert (f == g) == (a.key() == b.key())
        assert f == IntegerFunction(*a.key())
        assert hash(f) == hash(IntegerFunction(*a.key()))
        if f == g:
            assert hash(f) == hash(g)

    @FAST
    @given(starts, step_lists.filter(bool))
    def test_trace_round_trip(self, start, steps):
        # The start is inferred from the first row, whichever step it holds.
        if TuplePath(start, steps).in_range():
            f = IntegerFunction(start, steps)
            assert function_from_trace(trace_for_function(f)) == f

    def test_empty_paths(self):
        for start in ((0, 0), (CAP, -CAP), (-CAP, CAP)):
            f = IntegerFunction(start)
            assert_same_path(f, TuplePath(start, ()))
            assert f.transposed().start == (start[1], start[0])
            assert f.is_monotone()


class TestPositionBound:
    def test_at_the_bound(self):
        f = IntegerFunction((CAP - 1, -CAP + 1), [I_PLUS, J_MINUS])
        assert f.end == (CAP, -CAP)
        assert from_step_sequence((CAP, CAP), "i- j-").end == (CAP - 1, CAP - 1)

    @pytest.mark.parametrize("start, steps", [
        ((CAP, 0), [I_PLUS]),
        ((0, -CAP), [J_MINUS]),
        ((CAP + 1, 0), []),
        ((0, -CAP - 1), []),       # -2**63 fits array('q') but not the bound
        ((-CAP, 5), [I_PLUS, I_MINUS, I_MINUS]),
    ])
    def test_one_past_the_bound(self, start, steps):
        with pytest.raises(PreconditionError, match="positions"):
            IntegerFunction(start, steps)

    def test_trace_records(self):
        for step, i, j in ((I_PLUS, CAP, -CAP), (I_MINUS, -CAP, CAP)):
            trace = GenerationTrace([TraceRecord(1, step, i, j, RegisterBank())])
            assert (trace.i[0], trace.j[0]) == (i, j)
        # -2**63 fits array('q') but not the bound.  An i+ step to -CAP
        # starts the path at -2**63.
        for step, i, j in ((I_MINUS, -CAP - 1, 0), (I_MINUS, 0, -CAP - 1),
                           (I_MINUS, CAP + 1, 0), (I_MINUS, 0, CAP + 1), (I_PLUS, -CAP, CAP)):
            with pytest.raises(PreconditionError, match="positions"):
                GenerationTrace([TraceRecord(1, step, i, j, RegisterBank())])

    def test_from_step_sequence(self):
        with pytest.raises(PreconditionError, match="positions"):
            from_step_sequence((0, -CAP), "j j- j-")

    def test_digitize_huge_samples(self):
        unit = IntegerScale(Fraction(1))
        at = RealSampleSeries(((Fraction(CAP), Fraction(-CAP)),
                               (Fraction(CAP) + Fraction(1, 2), Fraction(-CAP))))
        assert digitize(at, unit).elements == (IntegerPair(CAP, -CAP),)
        for x, y in ((CAP + 1, 0), (0, -CAP - Fraction(1, 2))):
            past = RealSampleSeries(((Fraction(x) - 1, Fraction(y)), (Fraction(x), Fraction(y))))
            with pytest.raises(PreconditionError, match="positions"):
                digitize(past, unit)


class TestMalformedSteps:
    def test_bad_step_names_its_index(self):
        with pytest.raises(PreconditionError, match="step 1 "):
            IntegerFunction((0, 0), [StepKind(Axis.I, 2), StepKind(Axis.J, 0)])
        with pytest.raises(PreconditionError, match="step 3 "):
            IntegerFunction((0, 0), [I_PLUS, J_PLUS, StepKind(Axis.J, 0), I_PLUS])
        with pytest.raises(PreconditionError, match="step 2 "):
            IntegerFunction((0, 0), [I_PLUS, "i+"])

    def test_bad_code_names_its_index(self):
        with pytest.raises(PreconditionError, match="step 4 "):
            IntegerFunction.from_codes((0, 0), b"\0\1\2\7\4")

    def test_codes_build_the_same_path(self):
        f = IntegerFunction.from_codes((3, -2), bytearray(b"\0\1\2\3\1"))
        assert f == IntegerFunction((3, -2), [I_PLUS, J_PLUS, I_MINUS, J_MINUS, J_PLUS])
        assert type(f.codes) is bytes


class TestMemory:
    def test_function_and_trace_per_step(self):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            f, trace = generate(harmonic_config(10**9))
            both = tracemalloc.get_traced_memory()[0] - before
            del trace
            alone = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert f.length > 80_000
        assert both / f.length < 80
        assert alone / f.length < 24


@pytest.fixture(scope="module")
def elbow_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("svg") / "elbow.csv"
    write_trace_file(trace_for_function(from_step_sequence((0, 0), "i j")), str(path))
    return path


class TestSvgLabels:
    def test_invalid_character_exits_5(self, elbow_file, capsys):
        out = elbow_file.parent / "bad.svg"
        for label in ("a\x01b", "\x00", "\x0b", "\x1f", "x\ufffe", "\uffff", "\udc80"):
            for out_args in ([], ["--out", str(out)]):
                code = main(["render", "--in", str(elbow_file), "--format", "svg",
                             "--label", label, *out_args])
                captured = capsys.readouterr()
                assert code == 5
                assert captured.out == ""
                assert "XML 1.0" in captured.err
        assert not out.exists()

    def test_label_unused_outside_svg(self, elbow_file, capsys):
        code = main(["render", "--in", str(elbow_file), "--format", "ascii", "--label", "\x01"])
        assert code == 0
        assert capsys.readouterr().out == ".#\n##\n"

    @settings(max_examples=200, deadline=None)
    @given(st.text())
    def test_label_raises_or_round_trips(self, elbow_file, label):
        out = elbow_file.parent / "label.svg"
        out.unlink(missing_ok=True)
        code = main(["render", "--in", str(elbow_file), "--format", "svg",
                     f"--label={label}", "--out", str(out)])
        if code != 0:
            assert code == 5 and not out.exists()
            return
        root = ElementTree.fromstring(out.read_bytes())
        (text,) = root.findall("{http://www.w3.org/2000/svg}text")
        # XML parsers turn each line end (\r\n or a lone \r) into \n.
        assert (text.text or "") == label.replace("\r\n", "\n").replace("\r", "\n")
