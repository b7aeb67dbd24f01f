"""Fast paths against readable references kept here.

Difference fields are built from one cross-coordinate list, and every class
of a list spanning less than 2**15 from its 16-bit lanes packed into one int
(the packed path); digitize floors on integers and maps its cell jumps to step
codes through byte tables, ASCII and PBM grids are byte rows, and SVG is
written as text.  Each reference below is the straightforward version of the
same definition: a coordinate dict and one subtraction per entry, Fraction
division, the occupancy grid, an ElementTree.
"""

import math
import operator
import tracemalloc
from fractions import Fraction
from xml.etree import ElementTree

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intfunc import (
    Axis,
    I_MINUS,
    I_PLUS,
    IntegerFunction,
    IntegerPair,
    IntegerScale,
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
from intfunc.calculus import _class_values, _packed_values
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
# Packed classes: every class of a cross list from one packed int

LAST_PACKED = 2**15 - 1


def _subtracted(cross):
    return [tuple(map(operator.sub, cross[d:], cross)) for d in range(1, len(cross))]


@st.composite
def cross_lists(draw, spans):
    """Cross lists spanning a drawn span exactly: once there are two entries,
    the minimum and the maximum both occur, in either order."""
    span = draw(spans)
    low = draw(st.one_of(st.sampled_from((0, -1, -2**62, 2**62 - span)),
                         st.integers(-2**62, 2**62 - span)))
    offsets = draw(st.lists(st.integers(0, span), max_size=40))
    if len(offsets) >= 2:
        at, to = draw(st.permutations(range(len(offsets))))[:2]
        offsets[at], offsets[to] = 0, span
    return [low + v for v in offsets]


class TestPackedClasses:
    @FAST
    @given(cross_lists(st.one_of(st.sampled_from((0, 1, LAST_PACKED)),
                                 st.integers(0, LAST_PACKED))))
    @example([])
    @example([-7])
    @example([5, 5])
    @example([0, LAST_PACKED])
    @example([LAST_PACKED, 0])
    @example([-2**62, -2**62 + LAST_PACKED, -2**62])
    @example([2**62, 2**62 - LAST_PACKED, 2**62])
    def test_packed_values_match_subtraction(self, cross):
        got = list(_packed_values(cross))
        assert got == _subtracted(cross)
        assert all(type(values) is tuple for values in got)
        assert all(type(d) is int for values in got for d in values)

    @FAST
    @given(cross_lists(st.one_of(st.sampled_from((0, LAST_PACKED, 2**15, 2**15 + 1)),
                                 st.integers(0, 2**16))))
    @example([0, 2**15])
    @example([2**15, 0])
    @example([-2**62, -2**62 + 2**15, 0])
    @example([2**62 - 2**15, 2**62])
    @example([-2**62, 2**62])
    def test_class_values_match_subtraction(self, cross):
        # Spans from 2**15 on keep the subtraction per entry.
        assert list(_class_values(cross)) == _subtracted(cross)

    def test_first_fallback_span_would_carry_across_lanes(self):
        # A difference of 2**15 does not fit a lane: packed, it carries into
        # the next one.  This is why 2**15 - 1 is the last packed span.
        assert list(_packed_values([0, 2**15])) != [(2**15,)]
        assert list(_class_values([0, 2**15])) == [(2**15,)]


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

    # Samples at unit 1 in the given cells, x rising within a cell.  The codes
    # come from di and dj + 1 as bytes: a jump that no byte holds (bytes()
    # raises ValueError) and one that a table maps to 0xFE both end in the
    # scan that names the first jump of more than one cell.
    @staticmethod
    def _outcomes(cells):
        points = [(i + Fraction(k, 2 * len(cells)), Fraction(j))
                  for k, (i, j) in enumerate(cells)]
        got = _outcome(digitize, RealSampleSeries(tuple(points)), IntegerScale(Fraction(1)))
        return got, _outcome(_digitize_reference, points, Fraction(1))

    @pytest.mark.parametrize("cells, jump", [
        ([(0, 0), (300, 0)], (300, 0)),            # di past a byte
        ([(0, 0), (256, 0)], (256, 0)),
        ([(0, 0), (255, 0)], (255, 0)),            # di in a byte, too far
        ([(0, 0), (2, 0)], (2, 0)),
        ([(0, 0), (0, -2)], (0, -2)),              # dj + 1 below a byte
        ([(0, 0), (1, -300)], (1, -300)),
        ([(0, 0), (0, 2)], (0, 2)),                # dj + 1 in a byte, too far
        ([(0, 0), (0, 254)], (0, 254)),
        ([(0, 0), (0, 255)], (0, 255)),            # dj + 1 past a byte
        ([(0, 0), (1, 1), (1, 3), (400, 3)], (0, 2)),  # the first jump is named
        ([(0, 0), (1, 1), (1, -1), (1, 3)], (0, -2)),
    ])
    def test_too_sparse_edges(self, cells, jump):
        got, reference = self._outcomes(cells)
        assert got == reference
        assert got[0] is PreconditionError
        assert got[1].startswith(f"samples too sparse: cell jump {jump} between ")

    @pytest.mark.parametrize("cells, elements", [
        ([(5, -7)], [(5, -7)]),                    # one sample: no codes
        ([(0, 0), (0, 0), (0, 0), (1, 0), (1, 0)], [(0, 0), (1, 0)]),
        ([(0, 0), (1, 1), (2, 0)], [(0, 0), (1, 0), (1, 1), (2, 1), (2, 0)]),
        ([(0, 0), (1, -1), (1, 0)], [(0, 0), (1, 0), (1, -1), (1, 0)]),
    ])
    def test_path_edges(self, cells, elements):
        got, reference = self._outcomes(cells)
        assert got == reference
        assert got.elements == tuple(map(IntegerPair._make, elements))


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

    def test_fraction_slot_layout(self):
        # RealSampleSeries and digitize read these slots, not the properties.
        assert Fraction.__slots__ == ("_numerator", "_denominator")

    def test_subclasses_and_ints_stored_as_fractions(self):
        # Converted on the way in, so digitize never reads a subclass's slots.
        class Rational(Fraction):
            pass

        points = ((Rational(1, 2), 3), (1, Rational(5, 2)))
        series = RealSampleSeries(points)
        assert series.points == ((Fraction(1, 2), Fraction(3)), (Fraction(1), Fraction(5, 2)))
        assert all(type(v) is Fraction for p in series.points for v in p)
        assert digitize(series, IntegerScale(Fraction(1))) == \
            _digitize_reference(series.points, Fraction(1))


# ---------------------------------------------------------------------------
# Rendering

@st.composite
def views(draw):
    """A function (+ only, partly monotone, or composite, which revisits
    cells) and a viewport that may clip it, miss it, or be its bounding box."""
    f = draw(functions)
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
    @given(functions)
    def test_around(self, f):
        v = Viewport.around(f)
        assert (v.i_min, v.i_max, v.j_min, v.j_max) == (
            min(e.i for e in f.elements), max(e.i for e in f.elements),
            min(e.j for e in f.elements), max(e.j for e in f.elements))

    @pytest.mark.parametrize("bounds", [
        (2, 9, -5, 9),     # clips the first cells
        (-9, 3, -9, 2),    # clips the last cells
        (1, 3, 0, 9),      # clips both ends, by i
        (2, 9, 0, 2),      # clips the first cells by i, the last by j
        (0, 2, 1, 9),      # keeps one cell: the first by j, the last by i
        (5, 9, -9, -1),    # misses the path
        (0, 1, 2, 4),      # misses the path, inside its bounding box
        (-9, 9, -9, 9),    # holds the whole path
    ])
    @pytest.mark.parametrize("label", [None, "1 -> 0.01"])
    def test_svg_plus_only_runs(self, bounds, label):
        # (0, 0) i i j i j j i j: cells from (0, 0) to (4, 4).
        f = IntegerFunction((0, 0), (I_PLUS, I_PLUS, J_PLUS, I_PLUS, J_PLUS, J_PLUS,
                                     I_PLUS, J_PLUS))
        assert f.is_monotone()
        viewport = Viewport(*bounds, cell_px=5)
        assert render_svg(f, viewport, label) == _svg_reference(f, viewport, label)

    @pytest.mark.parametrize("bounds", [(3, 3, -7, -7), (3, 4, -8, -7), (4, 5, -7, -6)])
    def test_svg_one_element_path(self, bounds):
        f = IntegerFunction((3, -7))
        viewport = Viewport(*bounds)
        assert render_svg(f, viewport) == _svg_reference(f, viewport)
        assert Viewport.around(f) == Viewport(3, 3, -7, -7)

    def test_svg_tables_span_the_cells(self):
        # A string table per viewport column or row would take petabytes.
        f = IntegerFunction((-2, 5), (I_PLUS, J_PLUS, I_PLUS))
        viewport = Viewport(-10**15, 10**15, -10**15, 10**15)
        tracemalloc.start()
        try:
            doc = render_svg(f, viewport)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert doc == _svg_reference(f, viewport)
        assert peak < 64 * 1024

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
