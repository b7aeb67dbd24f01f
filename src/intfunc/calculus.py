"""Discrete differentiation of integer functions.

A step that changes the coordinate under study makes its element
"characteristic".  The difference of the cross coordinates of two
characteristic elements whose study coordinates are D apart is the
characteristic difference of class D; collected over all coordinates these
form a difference field, and the fields over all classes describe how the
two step kinds are interleaved.

``difference_field`` builds its one class with one subtraction per entry.
``full_derivative`` and ``derive --all`` build every class, and when the
cross coordinates span less than 2**15 they pack them once into the 16-bit
lanes of one int and build each class from a few big-int operations: every
lane holds its coordinate's offset from the minimum, below 2**15, so a lane
difference plus 2**15 stays within 0 .. 2**16 - 1 and no borrow crosses a
lane.  A wider span keeps the subtraction per entry.  Fraction is bound
only under TYPE_CHECKING, so typing.get_type_hints of IntegerScale's
methods raises NameError unless localns binds it.
"""

from __future__ import annotations

import operator
import sys
from array import array
from itertools import compress, islice
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .core import (
    Axis,
    GenerationTrace,
    IntegerFunction,
    IntegerPair,
    PreconditionError,
    _Frozen,
    _check_positive,
)

if TYPE_CHECKING:
    from fractions import Fraction


class CharacteristicIndex(NamedTuple):
    """Step index whose step changed the given axis."""

    k: int
    axis: Axis


def characteristic_indices(f: IntegerFunction, axis: Axis) -> list[CharacteristicIndex]:
    """All step indices k >= 1 whose step moved the given axis, in order."""
    return [CharacteristicIndex(k, axis)
            for k in compress(range(1, f.length + 1), f.axis_mask(axis))]


def _cross_coordinates(f: IntegerFunction, axis: Axis) -> tuple[int, list[int]]:
    """First characteristic coordinate and the cross coordinate at each
    characteristic element.

    The study axis must only take + steps, so the characteristic coordinates
    are first, first + 1, ... and a plain list indexed by their offset holds
    the cross coordinates.  A study step going down would make a coordinate
    repeat and the field ill-defined.  The cross axis is unconstrained, which
    is what allows differentiating derivatives whose cross coordinate goes
    back down.
    """
    study, other = (f.i, f.j) if axis is Axis.I else (f.j, f.i)
    cross = list(compress(islice(other, 1, None), f.axis_mask(axis)))
    # The study coordinate moves by (+ steps) - (- steps), and len(cross) is
    # (+ steps) + (- steps): they agree exactly when no study step goes down.
    if study[-1] - study[0] != len(cross):
        k = f.codes.index(2 if axis is Axis.I else 3) + 1
        raise PreconditionError(
            f"{axis.value} coordinate decreases at step {k}; difference fields "
            f"need a non-decreasing {axis.value} coordinate")
    return study[0] + 1, cross


class DifferenceField:
    """Characteristic differences of one class, ordered by coordinate.

    The coordinates are always consecutive, so a field keeps only the first
    one and the tuple of values; the (coordinate, d) ``entries`` are a view
    built on each read.
    """

    __slots__ = ("axis", "diff_class", "first", "_values")

    def __init__(self, axis: Axis, diff_class: int, entries):
        entries = tuple(entries)
        first = entries[0][0] if entries else 0
        if tuple(c for c, _ in entries) != tuple(range(first, first + len(entries))):
            raise PreconditionError("difference field coordinates must be consecutive")
        self.axis, self.diff_class, self.first = axis, diff_class, first
        self._values = tuple(d for _, d in entries)

    @classmethod
    def from_values(cls, axis: Axis, diff_class: int, first: int,
                    values: tuple[int, ...]) -> "DifferenceField":
        """The field whose entries are (first + k, values[k])."""
        field = cls.__new__(cls)
        field.axis, field.diff_class, field.first, field._values = axis, diff_class, first, values
        return field

    @property
    def entries(self) -> tuple[tuple[int, int], ...]:
        return tuple(self)

    def coordinates(self) -> tuple[int, ...]:
        return tuple(range(self.first, self.first + len(self._values)))

    def values(self) -> tuple[int, ...]:
        return self._values

    def scaled(self) -> tuple["ScaledDifference", ...]:
        return tuple(map(scale_difference, self._values))

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(range(self.first, self.first + len(self._values)), self._values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DifferenceField):
            return NotImplemented
        # Two empty fields are equal whatever their first coordinate.
        return (self.axis == other.axis and self.diff_class == other.diff_class
                and self._values == other._values
                and (self.first == other.first or not self._values))

    def __hash__(self) -> int:
        return hash((self.axis, self.diff_class, self.entries))

    def __repr__(self) -> str:
        return (f"DifferenceField(axis={self.axis}, diff_class={self.diff_class}, "
                f"first={self.first}, values={self._values})")


def difference_field(f: IntegerFunction, axis: Axis, diff_class: int) -> DifferenceField:
    """Differences of the cross coordinate over spans of ``diff_class``.

    For every characteristic coordinate c that has a characteristic partner
    at c + diff_class, emits (c, cross(c + diff_class) - cross(c)).
    Coordinates without a partner are omitted; a class at or beyond the
    coordinate span yields an empty field.
    """
    _check_positive(diff_class, "difference class")
    first, cross = _cross_coordinates(f, axis)
    return DifferenceField.from_values(axis, diff_class, first, _differences(cross, diff_class))


def _differences(cross: list[int], diff_class: int) -> tuple[int, ...]:
    """Class ``diff_class`` of the cross list, cross[c + D] - cross[c], by one
    subtraction per entry: the reference the packed path must equal."""
    return tuple(map(operator.sub, cross[diff_class:], cross))


# Cross lists spanning less than this pack into 16-bit lanes.
_LANE_SPAN = 1 << 15


def _class_values(cross: list[int]) -> Iterator[tuple[int, ...]]:
    """The values of classes 1 .. n - 1 of the cross list, in order, one
    tuple at a time: packed when the span allows, else by subtraction."""
    if len(cross) > 1 and max(cross) - min(cross) < _LANE_SPAN:
        return _packed_values(cross)
    return (_differences(cross, diff_class) for diff_class in range(1, len(cross)))


def _packed_values(cross: list[int]) -> Iterator[tuple[int, ...]]:
    """What _class_values gives, for a cross list spanning less than 2**15.

    Lane k (bits 16k .. 16k + 15) of ``packed`` holds v[k] = cross[k] -
    min(cross), in 0 .. 2**15 - 1, and ``high`` holds 2**15 in every lane.
    Lane k of (packed >> 16 D) + high - packed is then v[k + D] + 2**15 -
    v[k] (v[k + D] read as 0 past the end), within 1 .. 2**16 - 1, so no
    lane borrows from the next.  The xor with ``high`` turns each lane into
    the 16-bit two's complement of the difference, read back as signed
    shorts; the top D lanes have no partner and are dropped.  Packing costs
    about two passes of subtraction, so it pays only over many classes.
    """
    n, lo = len(cross), min(cross, default=0)
    lanes = array("H", [c - lo for c in cross])
    if sys.byteorder == "big":
        lanes.byteswap()
    packed = int.from_bytes(lanes.tobytes(), "little")
    high = int.from_bytes(b"\0\x80" * n, "little")
    base = packed - high
    for diff_class in range(1, n):
        values = array("h", (((packed >> 16 * diff_class) - base) ^ high).to_bytes(2 * n, "little"))
        del values[n - diff_class:]
        if sys.byteorder == "big":
            values.byteswap()
        yield tuple(values.tolist())


def _class_fields(f: IntegerFunction, axis: Axis) -> Iterator[DifferenceField]:
    """Every non-empty field, classes 1 .. n - 1 in order, built one at a time
    from a single cross list.  A study axis that goes down raises here, before
    the first field."""
    first, cross = _cross_coordinates(f, axis)
    return (DifferenceField.from_values(axis, diff_class, first, values)
            for diff_class, values in enumerate(_class_values(cross), 1))


class ScaledDifference(_Frozen):
    """The two-integer difference {d, d - 1} that survives scale refinement."""

    __slots__ = ("upper",)

    def __init__(self, upper: int):
        self._set(upper)

    @property
    def lower(self) -> int:
        return self.upper - 1

    def as_set(self) -> frozenset[int]:
        return frozenset((self.upper, self.lower))

    def __contains__(self, value: int) -> bool:
        return value == self.upper or value == self.lower


def scale_difference(d: int) -> ScaledDifference:
    return ScaledDifference(d)


def class_derivative(f: IntegerFunction, axis: Axis, diff_class: int) -> IntegerFunction:
    """Canonical integer function realizing one difference field.

    The derivative passes through [c, d] for every field entry (c, d), taking
    one i step and then as many j steps as the value change requires between
    consecutive entries.  Any path hitting d or d - 1 at each coordinate
    would qualify; the upper representative is fixed for determinism.
    """
    field = difference_field(f, axis, diff_class)
    values = field.values()
    if not values:
        raise PreconditionError(
            f"no characteristic pairs {field.diff_class} apart; empty field")
    # Step codes: 0 = i+, then 1 = j+ or 3 = j- for each unit of change.
    codes = bytearray()
    for previous, d in zip(values, values[1:]):
        codes += b"\0" + (b"\1" if d > previous else b"\3") * abs(d - previous)
    return IntegerFunction.from_codes((field.first, values[0]), codes)


def full_derivative(f: IntegerFunction, axis: Axis) -> dict[int, DifferenceField]:
    """Difference fields for every class that has at least one entry.

    With n characteristic elements that is classes 1 .. n - 1, holding
    n(n - 1)/2 entries in all, kept as one tuple of values per class.
    """
    return {field.diff_class: field for field in _class_fields(f, axis)}


class IntegerScale(_Frozen):
    """Real-world value of one integer step, as an exact rational."""

    __slots__ = ("unit",)

    def __init__(self, unit: Fraction):
        from fractions import Fraction

        if isinstance(unit, float):
            raise PreconditionError("scale unit must be exact; pass a Fraction, not a float")
        try:
            unit = Fraction(unit)
        except (TypeError, ValueError, ArithmeticError):
            raise PreconditionError(f"scale unit must be a rational number, got {unit!r}") from None
        if unit <= 0:
            raise PreconditionError("scale unit must be positive")
        self._set(unit)

    def refined(self, m: int) -> "IntegerScale":
        _check_positive(m, "refinement factor")
        return IntegerScale(self.unit / m)

    def cell_of(self, x: Fraction, y: Fraction) -> IntegerPair:
        """(floor(x / unit), floor(y / unit)), floored on numerators and
        denominators; unit > 0 keeps the divisor positive.  ``x`` and ``y``
        must be Fractions or ints: a float is refused, as IntegerScale
        refuses one."""
        from fractions import Fraction

        for value in (x, y):
            if not isinstance(value, (int, Fraction)):
                raise PreconditionError("cell coordinates must be exact; pass a Fraction "
                                        f"or an int, not {type(value).__name__}")
        # curves.digitize applies the same floor to every sample, on the
        # _numerator and _denominator slots of the exact Fractions a
        # RealSampleSeries stores.  Here x and y may be ints, which have no
        # such slots, so the public properties are read.
        num, den = self.unit.numerator, self.unit.denominator
        return IntegerPair((x.numerator * den) // (x.denominator * num),
                           (y.numerator * den) // (y.denominator * num))


def refinement_compatible(coarse: IntegerFunction, fine: IntegerFunction,
                          m: int) -> list[IntegerPair]:
    """Coarse elements with no fine witness under an m-fold refinement.

    A coarse element [i, j] is witnessed by a fine element [i', j'] with
    m*i <= i' < m*(i+1) and m*j <= j' < m*(j+1).  An empty list means the
    two functions belong together at scale ratio m.
    """
    _check_positive(m, "refinement factor m")
    covered = {(i // m, j // m) for i, j in zip(fine.i, fine.j)}
    return [IntegerPair(*e) for e in zip(coarse.i, coarse.j) if e not in covered]


def regulator_monotone_check(trace: GenerationTrace, axis_restricted: bool = False) -> bool:
    """Check the regulator sequences of a monotone-mode trace.

    With ``axis_restricted`` false, the RX values produced by i steps and the
    RY values produced by j steps must each be non-decreasing.

    With ``axis_restricted`` true, the combined per-step regulator sequence is
    restricted, per study axis, to the characteristic steps of that axis and
    the steps immediately preceding them; regulator values produced between
    two same-kind steps drop out.  The trace passes if some axis with at
    least one characteristic step sees a non-decreasing subsequence (the
    restriction exists to support one axis' characteristic study, and which
    axis that is depends on which step kind is sparser).
    """
    if not axis_restricted:
        return all(_non_decreasing(trace.regulator_series(axis)) for axis in (Axis.I, Axis.J))

    # The value each step left in its own axis' regulator.
    own = list(map(_pick_by_axis, trace.codes, trace.column("RX"), trace.column("RY")))
    any_study = False
    for axis in (Axis.I, Axis.J):
        mask = trace.path.axis_mask(axis)
        if 1 not in mask:
            continue
        any_study = True
        # Step t stays if it or step t + 1 is characteristic for the axis.
        keep = map(operator.or_, mask, mask[1:] + b"\0")
        if _non_decreasing(list(compress(own, keep))):
            return True
    return not any_study


def _pick_by_axis(code: int, rx: int, ry: int) -> int:
    """The regulator of the step's own axis: RY for j steps (odd codes)."""
    return ry if code & 1 else rx


def _non_decreasing(series: list[int]) -> bool:
    return not any(map(operator.gt, series, series[1:]))
