import random

import pytest

from intfunc import (
    Axis,
    GenerationTrace,
    IntegerFunction,
    IntegerPair,
    PreconditionError,
    RegisterBank,
    StepKind,
    TraceRecord,
    characteristic_indices,
    class_derivative,
    difference_field,
    from_step_sequence,
    full_derivative,
    generate,
    refinement_compatible,
    regulator_monotone_check,
    scale_difference,
)
from intfunc.calculus import IntegerScale
from intfunc.curves import digitize, harmonic_config, line_config, RealSampleSeries
from fractions import Fraction

from helpers import assert_lattice_path, brute_force_field, random_monotone_steps


class TestCharacteristicIndices:
    def test_sample_axis_i(self, sample_if):
        ks = [c.k for c in characteristic_indices(sample_if, Axis.I)]
        assert ks == [1, 3, 5, 7, 9, 11, 13, 15, 16, 18, 19, 21, 22, 23, 24]
        coords = [sample_if.elements[k].i for k in ks]
        assert coords == list(range(1, 16))

    def test_sample_axis_j(self, sample_if):
        ks = [c.k for c in characteristic_indices(sample_if, Axis.J)]
        assert ks == [2, 4, 6, 8, 10, 12, 14, 17, 20]
        coords = [sample_if.elements[k].j for k in ks]
        assert coords == list(range(1, 10))

    def test_single_element(self):
        f = IntegerFunction((3, 4))
        assert characteristic_indices(f, Axis.I) == []
        assert characteristic_indices(f, Axis.J) == []


class TestDifferenceField:
    def test_sample_class_3(self, sample_if):
        field = difference_field(sample_if, Axis.I, 3)
        assert list(field.values()) == [3, 3, 3, 3, 3, 2, 2, 1, 2, 1, 1, 0]
        assert list(field.coordinates()) == list(range(1, 13))

    def test_sample_class_1(self, sample_if):
        # Recomputed from the step sequence by the definition; matches the
        # brute-force oracle below.
        field = difference_field(sample_if, Axis.I, 1)
        expected = [1, 1, 1, 1, 1, 1, 1, 0, 1, 0, 1, 0, 0, 0]
        assert list(field.values()) == expected
        oracle = brute_force_field(sample_if, Axis.I, 1)
        assert [d for _, d, _ in oracle] == expected

    def test_line_3_5_class_2(self):
        f, _ = generate(line_config(3, 5, 8))
        field = difference_field(f, Axis.I, 2)
        assert field.entries == ((1, 2), (2, 1), (3, 1))

    def test_class_beyond_span_is_empty(self, sample_if):
        assert difference_field(sample_if, Axis.I, 15).entries == ()

    def test_class_must_be_positive(self, sample_if):
        with pytest.raises(PreconditionError):
            difference_field(sample_if, Axis.I, 0)
        # bool is an int subclass, but True is not a class.
        with pytest.raises(PreconditionError, match="difference class"):
            difference_field(sample_if, Axis.I, True)
        with pytest.raises(PreconditionError, match="difference class"):
            class_derivative(sample_if, Axis.J, True)

    def test_decreasing_study_axis_rejected(self):
        f = from_step_sequence((0, 0), "i j i-")
        with pytest.raises(PreconditionError):
            difference_field(f, Axis.I, 1)
        # The j axis only ever climbs here, so its study still works.
        assert difference_field(f, Axis.J, 1).entries == ()

    def test_decreasing_cross_axis_allowed(self):
        f = from_step_sequence((0, 5), "i j- i j- j- i")
        field = difference_field(f, Axis.I, 1)
        assert list(field.values()) == [-1, -2]

    def test_definition_identity_fuzz(self):
        # j_{k'} - j_k must equal k' - k - D on monotone functions.
        rng = random.Random(29)
        for _ in range(1000):
            f = IntegerFunction((rng.randint(-9, 9), rng.randint(-9, 9)),
                                random_monotone_steps(rng))
            diff_class = rng.randint(1, 6)
            axis = rng.choice((Axis.I, Axis.J))
            field = difference_field(f, axis, diff_class)
            oracle = brute_force_field(f, axis, diff_class)
            assert [(c, d) for c, d, _ in oracle] == list(field.entries)
            for _, d, identity in oracle:
                assert d == identity

    def test_symmetry_under_transposition(self):
        rng = random.Random(31)
        for _ in range(200):
            f = IntegerFunction((0, 0), random_monotone_steps(rng))
            diff_class = rng.randint(1, 4)
            direct = difference_field(f, Axis.J, diff_class)
            swapped = difference_field(f.transposed(), Axis.I, diff_class)
            assert direct.entries == swapped.entries


class TestScaledDifference:
    @pytest.mark.parametrize("d,members", [(3, {3, 2}), (0, {0, -1}), (1, {1, 0})])
    def test_membership(self, d, members):
        scaled = scale_difference(d)
        assert scaled.as_set() == members
        assert scaled.lower == d - 1
        assert d in scaled


class TestClassDerivative:
    def test_sample_class_3(self, sample_if):
        derived = class_derivative(sample_if, Axis.I, 3)
        expected = [(1, 3), (2, 3), (3, 3), (4, 3), (5, 3), (6, 2), (7, 2),
                    (8, 1), (9, 2), (10, 1), (11, 1), (12, 0)]
        for point in expected:
            assert IntegerPair(*point) in derived.elements
        assert_lattice_path(derived)
        assert derived.start == IntegerPair(1, 3)
        assert derived.end == IntegerPair(12, 0)

    def test_line_derivatives_are_flat(self):
        # {X, Y} with X=3, Y=5: every class derivative wobbles at most
        # between floor(3D/5) and floor(3D/5) + 1.
        f, _ = generate(line_config(3, 5, 8))
        for diff_class, field in full_derivative(f, Axis.I).items():
            base = 3 * diff_class // 5
            assert set(field.values()) <= {base, base + 1}
            for scaled in field.scaled():
                assert base in scaled

    def test_single_entry_field(self):
        f = from_step_sequence((0, 0), "i j i")
        derived = class_derivative(f, Axis.I, 1)
        assert derived.elements == (IntegerPair(1, 1),)

    def test_empty_field_is_an_error(self):
        f = from_step_sequence((0, 0), "i")
        with pytest.raises(PreconditionError):
            class_derivative(f, Axis.I, 1)

    def test_round_trip_to_field(self, sample_if):
        # The canonical derivative must land exactly on its field's values:
        # the last element at each coordinate (after the connecting j steps)
        # is the field value there.
        field = difference_field(sample_if, Axis.I, 2)
        derived = class_derivative(sample_if, Axis.I, 2)
        landed = {e.i: e.j for e in derived.elements}
        for coordinate, d in field:
            assert landed[coordinate] == d


class TestFullDerivative:
    def test_sample_has_fourteen_classes(self, sample_if):
        classes = sorted(full_derivative(sample_if, Axis.I))
        assert classes == list(range(1, 15))

    def test_line_3_5_has_four_classes(self):
        f, _ = generate(line_config(3, 5, 8))
        assert sorted(full_derivative(f, Axis.I)) == [1, 2, 3, 4]

    def test_single_step_has_none(self):
        f = from_step_sequence((0, 0), "i")
        assert full_derivative(f, Axis.I) == {}
        assert full_derivative(f, Axis.J) == {}


class TestRefinement:
    def test_identity_at_factor_one(self, sample_if):
        assert refinement_compatible(sample_if, sample_if, 1) == []

    def test_tenth_scale_line(self):
        # y = 0.4 x sampled densely, digitized at units 1 and 1/10.
        xs = [Fraction(k, 100) for k in range(0, 500)]
        samples = RealSampleSeries(tuple((x, Fraction(2, 5) * x) for x in xs))
        coarse = digitize(samples, IntegerScale(Fraction(1)))
        fine = digitize(samples, IntegerScale(Fraction(1, 10)))
        assert refinement_compatible(coarse, fine, 10) == []
        # Exhaustive witness search, independent of the covered-set shortcut.
        for i, j in coarse.elements:
            witnesses = [(fi, fj) for fi, fj in fine.elements
                         if 10 * i <= fi < 10 * (i + 1) and 10 * j <= fj < 10 * (j + 1)]
            assert witnesses

    def test_missing_witness_reported(self):
        coarse = from_step_sequence((0, 0), "i")
        fine = from_step_sequence((0, 0), "i i i i i")
        assert refinement_compatible(coarse, fine, 10) == [IntegerPair(1, 0)]

    def test_zero_factor_rejected(self, sample_if):
        with pytest.raises(PreconditionError):
            refinement_compatible(sample_if, sample_if, 0)
        with pytest.raises(PreconditionError, match="refinement factor m"):
            refinement_compatible(sample_if, sample_if, True)


def _fabricated_trace(rx_values):
    records = []
    bank = RegisterBank()
    for k, rx in enumerate(rx_values, start=1):
        bank = RegisterBank(RX=rx)
        records.append(TraceRecord(k, StepKind(Axis.I, 1), k, 0, bank))
    return GenerationTrace(tuple(records))


class TestRegulatorMonotoneCheck:
    def test_line_3_5(self):
        _, trace = generate(line_config(3, 5, 8))
        assert trace.regulator_series(Axis.I) == [3, 6, 9, 12, 15]
        assert trace.regulator_series(Axis.J) == [5, 10, 15]
        assert regulator_monotone_check(trace) is True
        assert regulator_monotone_check(trace, axis_restricted=True) is True

    def test_quarter_wave_trace(self):
        # The terminating step adds a non-positive X into RX, so the plain
        # check passes only up to (not including) that step; the restricted
        # check drops that value and passes on the whole trace.
        _, trace = generate(harmonic_config(10**4))
        before_final = GenerationTrace(trace.records[:-1])
        assert regulator_monotone_check(before_final) is True
        assert regulator_monotone_check(trace) is False
        assert regulator_monotone_check(trace, axis_restricted=True) is True

    def test_fabricated_decrease_fails(self):
        trace = _fabricated_trace([3, 2])
        assert regulator_monotone_check(trace) is False
        assert regulator_monotone_check(trace, axis_restricted=True) is False

    def test_empty_trace_passes(self):
        assert regulator_monotone_check(GenerationTrace()) is True
        assert regulator_monotone_check(GenerationTrace(), axis_restricted=True) is True


class TestIntegerScale:
    def test_rejects_floats_and_nonpositive(self):
        with pytest.raises(PreconditionError):
            IntegerScale(0.1)
        with pytest.raises(PreconditionError):
            IntegerScale(Fraction(0))

    def test_cell_mapping(self):
        scale = IntegerScale(Fraction(1, 100))
        assert scale.cell_of(Fraction(1, 40), Fraction(0)) == IntegerPair(2, 0)
        assert scale.refined(10).unit == Fraction(1, 1000)
