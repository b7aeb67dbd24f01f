"""Fast paths against readable references kept here.

Difference fields are built from one cross-coordinate list, digitize floors
on integers, ASCII and PBM grids are byte rows, and SVG is written as text.
Each reference below is the straightforward version of the same definition:
a coordinate dict, Fraction division, the occupancy grid, an ElementTree.
"""

import math
import tracemalloc
from fractions import Fraction
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intfunc import (
    Axis,
    I_MINUS,
    I_PLUS,
    IntegerFunction,
    IntegerPair,
    J_MINUS,
    J_PLUS,
    PreconditionError,
    StepKind,
    Viewport,
    difference_field,
    full_derivative,
    occupancy,
    render_ascii,
    render_pbm,
    render_svg,
)
from intfunc import render
from intfunc.calculus import IntegerScale
from intfunc.curves import RealSampleSeries, digitize

FAST = settings(max_examples=200, deadline=None)


# ---------------------------------------------------------------------------
# References

def _points_reference(f, axis):
    """(study, cross) at each characteristic element, walking the steps."""
    points = []
    for k, step in enumerate(f.steps, start=1):
        if step.axis is not axis:
            continue
        if step.sign < 0:
            raise PreconditionError(
                f"{axis.value} coordinate decreases at step {k}; difference fields "
                f"need a non-decreasing {axis.value} coordinate")
        element = f.elements[k]
        points.append((element.i, element.j) if axis is Axis.I else (element.j, element.i))
    return points


def _field_reference(f, axis, diff_class):
    points = _points_reference(f, axis)
    cross = {c: x for c, x in points}
    return tuple((c, cross[c + diff_class] - x) for c, x in points if c + diff_class in cross)


def _full_reference(f, axis):
    points = _points_reference(f, axis)
    if len(points) < 2:
        return {}
    span = points[-1][0] - points[0][0]
    fields = {d: _field_reference(f, axis, d) for d in range(1, span + 1)}
    return {d: entries for d, entries in fields.items() if entries}


def _digitize_reference(points, unit):
    cells = []
    for x, y in points:
        cell = IntegerPair(math.floor(x / unit), math.floor(y / unit))
        if not cells or cells[-1] != cell:
            cells.append(cell)
    steps = []
    for previous, current in zip(cells, cells[1:]):
        di, dj = current.i - previous.i, current.j - previous.j
        if abs(di) > 1 or abs(dj) > 1:
            raise PreconditionError(
                f"samples too sparse: cell jump ({di}, {dj}) between "
                f"{tuple(previous)} and {tuple(current)}")
        if di:
            steps.append(StepKind(Axis.I, di))
        if dj:
            steps.append(StepKind(Axis.J, dj))
    return IntegerFunction(cells[0], steps)


def _ascii_reference(f, viewport):
    grid = occupancy(f, viewport)
    return "".join("".join("#" if cell else "." for cell in row) + "\n" for row in grid)


def _pbm_reference(f, viewport):
    rows = ["".join("1" if cell else "0" for cell in row) for row in occupancy(f, viewport)]
    lines = ["P1", f"{viewport.columns} {viewport.rows}"] + rows
    return ("\n".join(lines) + "\n").encode("ascii")


def _xml_char(c):
    """The Char production of XML 1.0."""
    n = ord(c)
    return c in "\t\n\r" or 0x20 <= n <= 0xD7FF or 0xE000 <= n <= 0xFFFD or n >= 0x10000


def _svg_reference(f, viewport, scale_label=None):
    px = viewport.cell_px
    width, height = viewport.columns * px, viewport.rows * px
    svg = ElementTree.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg",
        "width": str(width),
        "height": str(height),
        "viewBox": f"0 0 {width} {height}",
    })
    for i, j in sorted(set(f.elements)):
        if viewport.i_min <= i <= viewport.i_max and viewport.j_min <= j <= viewport.j_max:
            ElementTree.SubElement(svg, "rect", {
                "x": str((i - viewport.i_min) * px),
                "y": str((viewport.j_max - j) * px),
                "width": str(px),
                "height": str(px),
                "fill": "black",
            })
    if scale_label is not None:
        label = ElementTree.SubElement(svg, "text", {
            "x": "2",
            "y": str(max(12, px - 2)),
            "font-size": str(max(10, px - 4)),
            "fill": "red",
        })
        label.text = scale_label
    body = ElementTree.tostring(svg, encoding="unicode")
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + body + "\n"


def _outcome(fn, *args):
    """The result, or the error class and message."""
    try:
        return fn(*args)
    except PreconditionError as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# Strategies

starts = st.tuples(st.integers(-20, 20), st.integers(-20, 20))
any_steps = st.lists(st.sampled_from((I_PLUS, J_PLUS, I_MINUS, J_MINUS)), max_size=60)
# Monotone along i but free along j, and fully monotone.
partly_monotone = st.lists(st.sampled_from((I_PLUS, J_PLUS, J_MINUS)), max_size=60)
monotone = st.lists(st.sampled_from((I_PLUS, J_PLUS)), max_size=60)
functions = st.builds(IntegerFunction, starts, st.one_of(monotone, partly_monotone, any_steps))
axes = st.sampled_from((Axis.I, Axis.J))


class TestDifferenceFields:
    @FAST
    @given(functions, axes, st.integers(1, 70))
    def test_difference_field(self, f, axis, diff_class):
        expected = _outcome(_field_reference, f, axis, diff_class)
        got = _outcome(difference_field, f, axis, diff_class)
        if isinstance(got, tuple) and got and got[0] is PreconditionError:
            assert got == expected
        else:
            assert got.entries == expected
            assert (got.axis, got.diff_class) == (axis, diff_class)

    @FAST
    @given(functions, axes)
    def test_full_derivative(self, f, axis):
        expected = _outcome(_full_reference, f, axis)
        got = _outcome(full_derivative, f, axis)
        if isinstance(got, dict):
            assert type(got) is dict
            assert {d: field.entries for d, field in got.items()} == expected
            assert list(got) == sorted(got)
            assert all(type(field.entries) is tuple for field in got.values())
            n = len(got) + 1
            assert sum(map(len, got.values())) == n * (n - 1) // 2
        else:
            assert got == expected

    @FAST
    @given(starts, partly_monotone, st.integers(0, 60), axes)
    def test_decreasing_study_axis(self, start, steps, at, axis):
        down = I_MINUS if axis is Axis.I else J_MINUS
        steps = list(steps)
        steps.insert(min(at, len(steps)), down)
        f = IntegerFunction(start, steps)
        k = steps.index(down) + 1
        message = (f"{axis.value} coordinate decreases at step {k}; difference "
                   f"fields need a non-decreasing {axis.value} coordinate")
        for call in (lambda: difference_field(f, axis, 1), lambda: full_derivative(f, axis)):
            with pytest.raises(PreconditionError) as caught:
                call()
            assert str(caught.value) == message


# ---------------------------------------------------------------------------
# Digitize

rationals = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    # Small denominators land exactly on cell edges and corners.
    st.builds(Fraction, st.integers(-60, 60), st.sampled_from((1, 2, 3, 4, 6, 12))),
)
units = st.one_of(
    st.fractions(min_value=Fraction(1, 50), max_value=20, max_denominator=50),
    st.sampled_from((Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
                     Fraction(1, 4), Fraction(3))),
).filter(lambda u: u > 0)


@st.composite
def dense_walks(draw):
    """x in steps of 1/12, y a walk in steps of at most 1/12: never more than
    one cell per sample at units of 1/12 and up, with corner crossings."""
    x0 = draw(st.integers(-40, 40))
    moves = draw(st.lists(st.integers(-1, 1), min_size=0, max_size=80))
    y = Fraction(draw(st.integers(-40, 40)), 12)
    points = [(Fraction(x0, 12), y)]
    for k, move in enumerate(moves, start=1):
        y += Fraction(move, 12)
        points.append((Fraction(x0 + k, 12), y))
    return points


scattered = st.lists(st.tuples(rationals, rationals), min_size=1, max_size=30,
                     unique_by=lambda p: p[0]).map(sorted)


class TestDigitize:
    @FAST
    @given(rationals, rationals, units)
    def test_cell_of(self, x, y, unit):
        expected = IntegerPair(math.floor(x / unit), math.floor(y / unit))
        assert IntegerScale(unit).cell_of(x, y) == expected
        assert IntegerScale(unit).cell_of(int(x), int(y)) == IntegerPair(
            math.floor(int(x) / unit), math.floor(int(y) / unit))

    @FAST
    @given(st.one_of(dense_walks(), scattered), units)
    def test_digitize(self, points, unit):
        series = RealSampleSeries(tuple(points))
        assert _outcome(digitize, series, IntegerScale(unit)) == \
            _outcome(_digitize_reference, points, unit)

    @FAST
    @given(dense_walks(), st.sampled_from((Fraction(1, 12), Fraction(1, 6), Fraction(1, 4),
                                           Fraction(1, 3), Fraction(1))))
    def test_dense_walks_digitize(self, points, unit):
        # Never too sparse, so the path itself is compared.
        f = digitize(RealSampleSeries(tuple(points)), IntegerScale(unit))
        assert f == _digitize_reference(points, unit)

    def test_corner_takes_i_first(self):
        points = ((Fraction(-1, 2), Fraction(-1, 2)), (Fraction(1, 2), Fraction(1, 2)))
        f = digitize(RealSampleSeries(points), IntegerScale(Fraction(1)))
        assert f.steps == (I_PLUS, J_PLUS)
        down = ((Fraction(-1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(-1, 2)))
        f = digitize(RealSampleSeries(down), IntegerScale(Fraction(1)))
        assert f.start == IntegerPair(-1, 0) and f.steps == (I_PLUS, J_MINUS)

    def test_sparse_message(self):
        points = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(-3)))
        with pytest.raises(PreconditionError,
                           match=r"cell jump \(1, -3\) between \(0, 0\) and \(1, -3\)"):
            digitize(RealSampleSeries(points), IntegerScale(Fraction(1)))


class TestSampleSeries:
    @FAST
    @given(st.lists(st.tuples(st.one_of(rationals, st.integers(-50, 50)),
                              st.one_of(rationals, st.integers(-50, 50))), max_size=20))
    def test_validation(self, points):
        xs = [Fraction(x) for x, _ in points]
        increasing = all(b > a for a, b in zip(xs, xs[1:]))
        if increasing:
            series = RealSampleSeries(tuple(points))
            assert series.points == tuple((Fraction(x), Fraction(y)) for x, y in points)
            assert all(type(v) is Fraction for p in series.points for v in p)
        else:
            with pytest.raises(PreconditionError, match="strictly increasing"):
                RealSampleSeries(tuple(points))

    def test_floats_rejected(self):
        for point in ((0.5, Fraction(1)), (Fraction(1), 0.5)):
            with pytest.raises(PreconditionError, match="exact rationals"):
                RealSampleSeries((point,))

    def test_fractions_kept(self):
        x, y = Fraction(1, 3), Fraction(2, 7)
        series = RealSampleSeries(((x, y),))
        assert series.points[0][0] is x and series.points[0][1] is y


# ---------------------------------------------------------------------------
# Rendering

@st.composite
def views(draw):
    """A function (composite paths revisit cells) and a viewport that may
    clip it, miss it, or be its bounding box."""
    f = draw(st.builds(IntegerFunction, starts, any_steps))
    if draw(st.booleans()):
        return f, Viewport.around(f, cell_px=draw(st.integers(1, 40)))
    i_min, j_min = draw(st.integers(-40, 40)), draw(st.integers(-40, 40))
    viewport = Viewport(i_min, i_min + draw(st.integers(0, 30)),
                        j_min, j_min + draw(st.integers(0, 30)),
                        cell_px=draw(st.integers(1, 40)))
    return f, viewport


class TestRender:
    @FAST
    @given(views())
    def test_ascii_and_pbm(self, view):
        f, viewport = view
        assert render_ascii(f, viewport) == _ascii_reference(f, viewport)
        assert render_pbm(f, viewport) == _pbm_reference(f, viewport)

    @FAST
    @given(views(), st.one_of(st.none(), st.text(max_size=12),
                              st.sampled_from(("", "a&b<c>\"d'", "1 -> 0.01", "a\x01b"))))
    def test_svg(self, view, label):
        f, viewport = view
        if label and not all(map(_xml_char, label)):
            with pytest.raises(PreconditionError, match="XML 1.0"):
                render_svg(f, viewport, scale_label=label)
        else:
            assert render_svg(f, viewport, scale_label=label) == \
                _svg_reference(f, viewport, scale_label=label)

    @FAST
    @given(st.builds(IntegerFunction, starts, any_steps))
    def test_around(self, f):
        v = Viewport.around(f)
        assert (v.i_min, v.i_max, v.j_min, v.j_max) == (
            min(e.i for e in f.elements), max(e.i for e in f.elements),
            min(e.j for e in f.elements), max(e.j for e in f.elements))

    def test_empty_svg_self_closes(self):
        f = IntegerFunction((0, 0))
        doc = render_svg(f, Viewport(5, 6, 5, 6))
        assert doc.endswith('viewBox="0 0 32 32" />\n')
        assert doc == _svg_reference(f, Viewport(5, 6, 5, 6))

    def test_grid_limit(self, monkeypatch):
        monkeypatch.setattr(render, "MAX_GRID_CELLS", 12)
        f = IntegerFunction((0, 0), (I_PLUS, J_PLUS))
        # Exactly at the limit still renders.
        assert render_ascii(f, Viewport(0, 3, 0, 2)) == "....\n.#..\n##..\n"
        for fn in (render_ascii, render_pbm):
            with pytest.raises(PreconditionError, match="grid limit of 12 cells"):
                fn(f, Viewport(0, 12, 0, 0))
        # SVG cost follows the occupied cells, so it has no area limit.
        assert render_svg(f, Viewport(0, 12, 0, 0)).count("<rect") == 2

    def test_tall_viewport_memory(self):
        # One column, a million rows: 2 MB of output.  One object per row
        # would take at least 57 MB.
        rows = 10**6
        f = IntegerFunction((0, 0), (J_PLUS,))
        tracemalloc.start()
        try:
            payload = render_pbm(f, Viewport(0, 0, 0, rows - 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert payload.endswith(b"\n0\n1\n1\n")
        assert peak < 8 * rows

    def test_grid_limit_default(self):
        assert render.MAX_GRID_CELLS == 10**8
        f = IntegerFunction((0, 0))
        for fn in (render_ascii, render_pbm):
            with pytest.raises(PreconditionError, match="over the ASCII/PBM grid limit"):
                fn(f, Viewport(0, 10**4, 0, 10**4 - 1))
