import random
from xml.etree import ElementTree

import pytest

from intfunc import (
    MAX_GRID_CELLS,
    REGISTER_CAPACITY,
    IntegerFunction,
    PreconditionError,
    Viewport,
    from_step_sequence,
    occupancy,
    render_ascii,
    render_pbm,
    render_svg,
)

from helpers import random_steps


@pytest.fixture
def elbow():
    return from_step_sequence((0, 0), "i j")


class TestViewport:
    def test_validation(self):
        with pytest.raises(PreconditionError):
            Viewport(1, 0, 0, 0)
        with pytest.raises(PreconditionError):
            Viewport(0, 0, 0, 0, cell_px=0)

    def test_around_bounding_box(self, sample_if):
        v = Viewport.around(sample_if)
        assert (v.i_min, v.i_max, v.j_min, v.j_max) == (0, 15, 0, 9)
        assert (v.columns, v.rows) == (16, 10)


class TestAscii:
    def test_two_by_two(self, elbow):
        assert render_ascii(elbow, Viewport(0, 1, 0, 1)) == ".#\n##\n"

    def test_disjoint_viewport_is_blank(self, elbow):
        assert render_ascii(elbow, Viewport(5, 6, 5, 6)) == "..\n..\n"

    def test_sample_staircase(self, sample_if):
        text = render_ascii(sample_if, Viewport(0, 15, 0, 9))
        rows = text.splitlines()
        assert len(rows) == 10
        assert all(len(row) == 16 for row in rows)
        assert sum(row.count("#") for row in rows) == 25
        # Top row holds the tail of the staircase, bottom row its head.
        assert rows[0] == "...........#####"
        assert rows[-1] == "##.............."


class TestPbm:
    def test_two_by_two(self, elbow):
        assert render_pbm(elbow, Viewport(0, 1, 0, 1)) == b"P1\n2 2\n01\n11\n"

    def test_single_cell(self):
        f = IntegerFunction((0, 0))
        assert render_pbm(f, Viewport(0, 0, 0, 0)) == b"P1\n1 1\n1\n"

    def test_sample_bit_count(self, sample_if):
        payload = render_pbm(sample_if, Viewport(0, 15, 0, 9))
        header, dims, *rows = payload.decode("ascii").splitlines()
        assert header == "P1"
        assert dims == "16 10"
        assert sum(row.count("1") for row in rows) == 25

    def test_matches_ascii_occupancy(self):
        rng = random.Random(3)
        for _ in range(25):
            f = IntegerFunction((rng.randint(-4, 4), rng.randint(-4, 4)),
                                random_steps(rng, max_len=30))
            v = Viewport.around(f)
            ascii_rows = render_ascii(f, v).splitlines()
            pbm_rows = render_pbm(f, v).decode("ascii").splitlines()[2:]
            for arow, prow in zip(ascii_rows, pbm_rows):
                assert [c == "#" for c in arow] == [c == "1" for c in prow]

    def test_composite_duplicates_render_once(self):
        loop = from_step_sequence((0, 0), "i j i- j-")
        payload = render_pbm(loop, Viewport.around(loop))
        rows = payload.decode("ascii").splitlines()[2:]
        assert sum(row.count("1") for row in rows) == 4


class TestSvg:
    def test_single_cell_single_rect(self):
        f = IntegerFunction((0, 0))
        doc = render_svg(f, Viewport(0, 0, 0, 0))
        root = ElementTree.fromstring(doc)
        rects = root.findall("{http://www.w3.org/2000/svg}rect")
        assert len(rects) == 1

    def test_sample_has_25_rects(self, sample_if):
        doc = render_svg(sample_if, Viewport.around(sample_if))
        root = ElementTree.fromstring(doc)
        assert len(root.findall("{http://www.w3.org/2000/svg}rect")) == 25

    def test_j_axis_points_up(self, elbow):
        # (1, 1) must sit above (1, 0): smaller y pixel coordinate.
        doc = render_svg(elbow, Viewport(0, 1, 0, 1, cell_px=10))
        root = ElementTree.fromstring(doc)
        rects = {(r.get("x"), r.get("y"))
                 for r in root.findall("{http://www.w3.org/2000/svg}rect")}
        assert ("10", "0") in rects   # cell (1, 1)
        assert ("10", "10") in rects  # cell (1, 0)

    def test_label_appears_verbatim(self, elbow):
        # Verbatim at the XML text level; '>' is entity-escaped in the raw
        # markup, as well-formedness requires.
        doc = render_svg(elbow, Viewport.around(elbow), scale_label="1 -> 0.01")
        root = ElementTree.fromstring(doc)
        texts = root.findall("{http://www.w3.org/2000/svg}text")
        assert len(texts) == 1
        assert texts[0].text == "1 -> 0.01"
        plain = render_svg(elbow, Viewport.around(elbow), scale_label="1 to 0.01")
        assert "1 to 0.01" in plain

    def test_no_label_no_text_element(self, elbow):
        doc = render_svg(elbow, Viewport.around(elbow))
        root = ElementTree.fromstring(doc)
        assert root.findall("{http://www.w3.org/2000/svg}text") == []

    def test_widest_viewport_and_cell(self, elbow):
        # cell_px and every bound at REGISTER_CAPACITY: each pixel coordinate
        # is at most 2**128, whose text str() writes at once.
        cap = REGISTER_CAPACITY
        doc = render_svg(elbow, Viewport(-cap, cap, -cap, cap, cell_px=cap))
        root = ElementTree.fromstring(doc)
        assert root.get("width") == str((2 * cap + 1) * cap)
        rects = root.findall("{http://www.w3.org/2000/svg}rect")
        x, y = cap * cap, cap * cap  # cell (0, 0)
        assert [(r.get("x"), r.get("y")) for r in rects] == [
            (str(x), str(y)), (str(x + cap), str(y)), (str(x + cap), str(y - cap))]


class TestOccupancy:
    def test_clipping(self, sample_if):
        grid = occupancy(sample_if, Viewport(0, 3, 0, 1))
        assert grid == [
            [False, True, True, False],
            [True, True, False, False],
        ]

    def test_grid_limit_before_any_cell(self, elbow):
        # One bool per cell: 10**10 cells are refused before any is built,
        # with the ASCII and PBM grid limit and text.
        viewport = Viewport(0, 10**5 - 1, 0, 10**5 - 1)
        with pytest.raises(PreconditionError) as info:
            occupancy(elbow, viewport)
        assert str(info.value) == (f"viewport of 100000 x 100000 = {10**10} cells is over "
                                   f"the ASCII/PBM grid limit of {MAX_GRID_CELLS} cells")
        with pytest.raises(PreconditionError, match=f"^{info.value}$"):
            render_ascii(elbow, viewport)
