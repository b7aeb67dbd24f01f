"""DifferenceField stored as a first coordinate and a tuple of values.

The reference below keeps a field the readable way, one (coordinate, d)
tuple per entry, and every accessor of the columnar field must agree with
it.  Also here: the entries constructor, equality of empty fields, and the
memory a full derivative keeps.
"""

import tracemalloc
from dataclasses import dataclass

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from intfunc import (
    Axis,
    DifferenceField,
    I_MINUS,
    I_PLUS,
    IntegerFunction,
    J_MINUS,
    J_PLUS,
    PreconditionError,
    difference_field,
    full_derivative,
    generate,
    harmonic_config,
)
from intfunc.calculus import ScaledDifference

FAST = settings(max_examples=300, deadline=None)


@dataclass(frozen=True)
class TupleField:
    """A field kept as one (coordinate, d) tuple per entry."""

    axis: Axis
    diff_class: int
    entries: tuple

    def coordinates(self):
        return tuple(c for c, _ in self.entries)

    def values(self):
        return tuple(d for _, d in self.entries)

    def scaled(self):
        return tuple(ScaledDifference(d) for _, d in self.entries)


def _reference_field(f, axis, diff_class):
    """Walk the steps, keep (study, cross) per characteristic element, and
    pair coordinates diff_class apart through a dict."""
    cross = {}
    for k, step in enumerate(f.steps, start=1):
        if step.axis is axis:
            if step.sign < 0:
                return None
            e = f.elements[k]
            study, other = (e.i, e.j) if axis is Axis.I else (e.j, e.i)
            cross[study] = other
    entries = tuple((c, cross[c + diff_class] - x)
                    for c, x in cross.items() if c + diff_class in cross)
    return TupleField(axis, diff_class, entries)


def assert_same_field(got, ref):
    assert type(got.entries) is tuple
    assert got.entries == ref.entries
    assert got.coordinates() == ref.coordinates()
    assert got.values() == ref.values()
    assert got.scaled() == ref.scaled()
    assert len(got) == len(ref.entries)
    assert list(got) == list(ref.entries)
    assert (got.axis, got.diff_class) == (ref.axis, ref.diff_class)
    rebuilt = DifferenceField(ref.axis, ref.diff_class, ref.entries)
    assert got == rebuilt and rebuilt == got
    assert hash(got) == hash(rebuilt) == hash(ref)


starts = st.tuples(st.integers(-50, 50), st.integers(-50, 50))
any_steps = st.lists(st.sampled_from((I_PLUS, J_PLUS, I_MINUS, J_MINUS)), max_size=60)
partly_monotone = st.lists(st.sampled_from((I_PLUS, J_PLUS, J_MINUS)), max_size=60)
monotone = st.lists(st.sampled_from((I_PLUS, J_PLUS)), max_size=60)
functions = st.builds(IntegerFunction, starts, st.one_of(monotone, partly_monotone, any_steps))
axes = st.sampled_from((Axis.I, Axis.J))


class TestAccessors:
    @FAST
    @given(functions, axes, st.integers(1, 70))
    def test_difference_field(self, f, axis, diff_class):
        ref = _reference_field(f, axis, diff_class)
        assume(ref is not None)
        assert_same_field(difference_field(f, axis, diff_class), ref)

    @FAST
    @given(functions, axes)
    def test_full_derivative(self, f, axis):
        assume(_reference_field(f, axis, 1) is not None)
        fields = full_derivative(f, axis)
        for diff_class, field in fields.items():
            assert_same_field(field, _reference_field(f, axis, diff_class))
        # The class after the last is empty, and so is everything beyond it.
        beyond = len(fields) + 1
        assert _reference_field(f, axis, beyond).entries == ()
        assert difference_field(f, axis, beyond).entries == ()

    @FAST
    @given(axes, st.integers(1, 9), st.integers(-50, 50),
           st.lists(st.integers(-10, 10), max_size=20))
    def test_from_values(self, axis, diff_class, first, values):
        field = DifferenceField.from_values(axis, diff_class, first, tuple(values))
        entries = tuple(zip(range(first, first + len(values)), values))
        assert_same_field(field, TupleField(axis, diff_class, entries))


class TestEquality:
    def test_empty_fields_ignore_first(self):
        for first in (-3, 0, 1, 40):
            empty = DifferenceField.from_values(Axis.I, 2, first, ())
            assert empty == DifferenceField(Axis.I, 2, ())
            assert hash(empty) == hash(DifferenceField(Axis.I, 2, ()))
            assert empty.entries == () and empty.coordinates() == () and list(empty) == []

    def test_axis_class_first_and_values_count(self):
        field = DifferenceField.from_values(Axis.I, 2, 1, (3, 4))
        assert field == DifferenceField(Axis.I, 2, [(1, 3), (2, 4)])
        for other in (DifferenceField.from_values(Axis.J, 2, 1, (3, 4)),
                      DifferenceField.from_values(Axis.I, 3, 1, (3, 4)),
                      DifferenceField.from_values(Axis.I, 2, 2, (3, 4)),
                      DifferenceField.from_values(Axis.I, 2, 1, (3, 5)),
                      DifferenceField.from_values(Axis.I, 2, 1, ())):
            assert field != other
        assert field != field.entries

    def test_entries_are_read_only(self):
        field = DifferenceField.from_values(Axis.I, 1, 1, (0,))
        with pytest.raises(AttributeError):
            field.entries = ()


class TestEntriesConstructor:
    @FAST
    @given(st.lists(st.integers(-10, 10), min_size=2, max_size=20),
           st.integers(-50, 50), st.data())
    def test_non_consecutive_coordinates(self, values, first, data):
        coordinates = list(range(first, first + len(values)))
        at = data.draw(st.integers(0, len(values) - 1))
        coordinates[at] += data.draw(st.integers(-5, 5).filter(bool))
        with pytest.raises(PreconditionError, match="consecutive"):
            DifferenceField(Axis.I, 1, zip(coordinates, values))

    @pytest.mark.parametrize("entries", [
        [(1, 0), (3, 0)],
        [(2, 0), (1, 0)],
        [(1, 0), (1, 0)],
    ])
    def test_gaps_repeats_and_reversals(self, entries):
        with pytest.raises(PreconditionError, match="consecutive"):
            DifferenceField(Axis.J, 1, entries)

    def test_keyword_and_iterable_entries(self):
        field = DifferenceField(axis=Axis.I, diff_class=1, entries=iter([(5, -1), (6, 2)]))
        assert (field.first, field.values()) == (5, (-1, 2))


class TestMemory:
    def test_full_derivative_per_entry(self):
        f, _ = generate(harmonic_config(10**6))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fields = full_derivative(f, Axis.I)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        entries = sum(map(len, fields.values()))
        assert entries > 10**6
        assert kept / entries < 40
