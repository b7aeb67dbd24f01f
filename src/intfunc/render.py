"""Unit-square views of integer functions: ASCII, plain PBM, and SVG."""

from __future__ import annotations

import re
from itertools import compress, repeat
from operator import and_, sub

from .core import (REGISTER_CAPACITY, IntegerFunction, PreconditionError, _Frozen,
                   _check_positive, _is_int)

#: Largest viewport area, in cells, that ASCII and PBM output will fill.
#: Their size grows with the area; SVG grows with the occupied cells and has
#: no such limit.
MAX_GRID_CELLS = 10**8

# What XML 1.0 forbids: C0 controls but tab, LF and CR; lone surrogates; U+FFFE, U+FFFF.
# A pattern string: re compiles it on the first label check and caches it.
_XML_INVALID = r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"


def _check_cell_px(cell_px) -> None:
    """Refuse a cell size that is not a positive integer, or that is over
    REGISTER_CAPACITY: str() of a pixel coordinate must stay short."""
    _check_positive(cell_px, "cell_px")
    if cell_px > REGISTER_CAPACITY:
        raise PreconditionError(f"cell_px must be at most {REGISTER_CAPACITY}")


def _check_grid(columns: int, rows: int) -> None:
    """Refuse an ASCII or PBM grid of more than MAX_GRID_CELLS cells."""
    if columns * rows > MAX_GRID_CELLS:
        raise PreconditionError(
            f"viewport of {columns} x {rows} = {columns * rows} cells is over the "
            f"ASCII/PBM grid limit of {MAX_GRID_CELLS} cells")


def _check_label(text: str | None) -> None:
    """Refuse an SVG label holding a character that XML 1.0 does not allow."""
    if text and (bad := re.search(_XML_INVALID, text)):
        raise PreconditionError(f"scale label holds {bad.group()!r}, which XML 1.0 does not allow")


class Viewport(_Frozen):
    """Inclusive cell bounds; cells outside are clipped, not errors."""

    __slots__ = ("i_min", "i_max", "j_min", "j_max", "cell_px")

    def __init__(self, i_min: int, i_max: int, j_min: int, j_max: int, cell_px: int = 16):
        if not all(map(_is_int, (i_min, i_max, j_min, j_max))):
            raise PreconditionError("viewport bounds must be integers")
        if i_min > i_max or j_min > j_max:
            raise PreconditionError("viewport bounds must satisfy min <= max")
        # Every path position lies within +/- REGISTER_CAPACITY too.
        if max(-i_min, i_max, -j_min, j_max) > REGISTER_CAPACITY:
            raise PreconditionError(f"viewport bounds must lie within +/- {REGISTER_CAPACITY}")
        _check_cell_px(cell_px)
        self._set(i_min, i_max, j_min, j_max, cell_px)

    @classmethod
    def around(cls, f: IntegerFunction, cell_px: int = 16) -> "Viewport":
        i, j = f.i, f.j
        if f.is_monotone():  # both columns climb: the end points bound the path
            return cls(i[0], i[-1], j[0], j[-1], cell_px=cell_px)
        return cls(min(i), max(i), min(j), max(j), cell_px=cell_px)

    @property
    def columns(self) -> int:
        return self.i_max - self.i_min + 1

    @property
    def rows(self) -> int:
        return self.j_max - self.j_min + 1


def occupancy(f: IntegerFunction, viewport: Viewport) -> list[list[bool]]:
    """Cell occupancy grid, rows top (j_max) to bottom (j_min).

    Duplicate cells of a composite path count once.  One bool per viewport
    cell: over MAX_GRID_CELLS cells is a PreconditionError, as in ASCII and
    PBM output.
    """
    _check_grid(viewport.columns, viewport.rows)
    cells = set(zip(f.i, f.j))
    return [
        [(i, j) in cells for i in range(viewport.i_min, viewport.i_max + 1)]
        for j in range(viewport.j_max, viewport.j_min - 1, -1)
    ]


def _ascii_grid(f: IntegerFunction, viewport: Viewport) -> bytearray:
    """The ASCII text as one buffer, rows top to bottom, each ending in a
    newline, with '#' written at every path position in the viewport.  A
    cell that the path visits twice is written twice, to the same '#'.

    One buffer rather than one object per row keeps memory at the output
    size for any viewport shape.  Raises PreconditionError, before
    allocating anything, when the viewport holds more than MAX_GRID_CELLS
    cells.
    """
    columns, rows = viewport.columns, viewport.rows
    _check_grid(columns, rows)
    i_min, i_max, j_min, j_max = viewport.i_min, viewport.i_max, viewport.j_min, viewport.j_max
    width = columns + 1
    grid = bytearray(b"." * columns + b"\n") * rows
    for i, j in zip(f.i, f.j):
        if i_min <= i <= i_max and j_min <= j <= j_max:
            grid[(j_max - j) * width + i - i_min] = 0x23  # '#'
    return grid


_ASCII_TO_PBM = bytes.maketrans(b".#", b"01")


def render_ascii(f: IntegerFunction, viewport: Viewport) -> str:
    """'#' for occupied cells, '.' otherwise, one text row per cell row.

    Same cells as ``occupancy``; over MAX_GRID_CELLS cells is a
    PreconditionError.
    """
    return _ascii_grid(f, viewport).decode("ascii")


def render_pbm(f: IntegerFunction, viewport: Viewport) -> bytes:
    """Plain PBM (P1): magic, dimensions, then one row of 0/1 digits per line.

    Same cells as ``occupancy``; over MAX_GRID_CELLS cells is a
    PreconditionError.
    """
    header = f"P1\n{viewport.columns} {viewport.rows}\n".encode("ascii")
    return header + _ascii_grid(f, viewport).translate(_ASCII_TO_PBM)


def _run_edge(column, value: int) -> int:
    """Index of the first entry at least ``value`` in a column that climbs by
    0 or 1 per entry, so that every value between its ends is present."""
    if value <= column[0]:
        return 0
    if value > column[-1]:
        return len(column)
    return column.index(value)


def _rects(i, j, j_low: int, j_high: int, viewport: Viewport) -> list[str]:
    """The rect elements of the cells (i[k], j[k]), given in (i, j) order and
    in rows j_low to j_high, as texts to join: one x text per column and one
    y text per row."""
    px, i_min, j_max = viewport.cell_px, viewport.i_min, viewport.j_max
    xs = list(map(str, range((i[0] - i_min) * px, (i[-1] - i_min) * px + 1, px)))
    ys = list(map(str, range((j_max - j_low) * px, (j_max - j_high) * px - 1, -px)))
    head, mid, tail = '<rect x="', '" y="', f'" width="{px}" height="{px}" fill="black" />'
    cells = zip(map(xs.__getitem__, map(sub, i, repeat(i[0]))),
                map(ys.__getitem__, map(sub, j, repeat(j_low))))
    return [head, (tail + head).join(map(mid.join, cells)), tail]


def render_svg(f: IntegerFunction, viewport: Viewport,
               scale_label: str | None = None) -> str:
    """One square per occupied cell, j growing upward, optional scale label.

    Cells come once each, in (i, j) order.  A + only path (``is_monotone``)
    already visits them so, and a viewport keeps one run of it, found from
    the run's edges in the i and j columns; any other path is clipped,
    deduplicated and sorted.  The x and y texts come from string tables that
    span the occupied cells, not the viewport, so the cost follows the cells
    drawn.

    The text is what ElementTree would serialize for the same tree: no
    whitespace between elements, " />" closing empty ones, and only &, < and
    > escaped in the label.  A label holding a character that XML 1.0 does
    not allow raises PreconditionError.
    """
    _check_label(scale_label)
    px = viewport.cell_px
    width = viewport.columns * px
    height = viewport.rows * px
    i_min, i_max, j_min, j_max = viewport.i_min, viewport.i_max, viewport.j_min, viewport.j_max
    i, j = f.i, f.j
    parts = []
    if f.is_monotone():
        start = max(_run_edge(i, i_min), _run_edge(j, j_min))
        stop = min(_run_edge(i, i_max + 1), _run_edge(j, j_max + 1))
        if start < stop:
            parts += _rects(i[start:stop], j[start:stop], j[start], j[stop - 1], viewport)
    else:
        inside = map(and_, map(range(i_min, i_max + 1).__contains__, i),
                     map(range(j_min, j_max + 1).__contains__, j))
        cells = sorted(set(compress(zip(i, j), inside)))
        if cells:
            i, j = zip(*cells)
            parts += _rects(i, j, min(j), max(j), viewport)
    if scale_label is not None:
        text = f'<text x="2" y="{max(12, px - 2)}" font-size="{max(10, px - 4)}" fill="red"'
        if scale_label:
            escaped = scale_label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            parts.append(f"{text}>{escaped}</text>")
        else:
            parts.append(text + " />")
    svg = ('<?xml version="1.0" encoding="UTF-8"?>\n'
           f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
           f'viewBox="0 0 {width} {height}"')
    # One join: each concatenation would copy the whole document again.
    return "".join([svg, ">", *parts, "</svg>\n"]) if parts else svg + " />\n"
