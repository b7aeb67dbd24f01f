import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intfunc import (
    CapExhaustedError,
    GenerationMode,
    GeneratorConfig,
    IntegerPair,
    PreconditionError,
    RegisterBank,
    RegisterOverflowError,
    StepCount,
    WhilePositive,
    generate,
    implied_designation,
)
from intfunc import curves
from intfunc.calculus import IntegerScale
from intfunc.curves import (
    BOUND_DIGITS_LIMIT,
    PI_SEED_LIMIT,
    RealSampleSeries,
    composite_generate,
    digitize,
    egg_figure_config,
    format_bound,
    free_fall_config,
    harmonic_config,
    line_config,
    pi_bounds,
    preset_config,
    sinusoid_figure_config,
    uniform_motion_config,
)

from helpers import HAND_TRACE_SEED_100, assert_lattice_path, quarter_wave


class TestPresets:
    def test_uniform_motion(self):
        config = uniform_motion_config(5, 3)
        assert config.bank.X == 3
        assert config.bank.Y == 5
        assert config.bank.RX == config.bank.RY == 0
        assert config.stop == StepCount(8)
        f, _ = generate(config)
        assert f.end == IntegerPair(5, 3)

    def test_uniform_motion_needs_positive_totals(self):
        with pytest.raises(PreconditionError):
            uniform_motion_config(0, 3)

    def test_harmonic_matches_quarter_wave_setup(self):
        config = harmonic_config(100)
        bank = config.bank
        assert (bank.X, bank.Y, bank.XX, bank.XXY) == (100, 100, -1, -1)
        assert bank.RX == bank.RY == 0
        assert isinstance(config.stop, WhilePositive)
        assert config.stop.register == "X"
        assert implied_designation(bank) == {"XXY", "Y"}

    def test_free_fall_designation(self):
        config = free_fall_config(acceleration=2, time_rate=100, steps=50)
        assert implied_designation(config.bank) == {"XX", "Y"}

    def test_unknown_preset(self):
        with pytest.raises(PreconditionError):
            preset_config("circle", x=1)

    def test_zero_designation_register_rejected(self):
        with pytest.raises(PreconditionError):
            preset_config("parabola", xx=0, y=5, steps=10)

    def test_presets_populate_only_their_registers(self):
        # Everything a preset sets must be a designation register, a prefix
        # of one (the varying chain below it), or a regulator/start value.
        cases = {
            "line": dict(x=3, y=5, steps=8),
            "parabola": dict(xx=2, y=9, steps=20, x=1),
            "exponential": dict(xy=1, y=4, steps=20, x=2),
            "conic": dict(xx=-2, yy=3, steps=20, x=9, y=1),
            "sine": dict(xxy=-1, y=7, steps=20, x=7, xx=-1),
            "semicubic": dict(xx=2, yyy=3, steps=20, x=1, yy=1, y=4),
        }
        for name, params in cases.items():
            config = preset_config(name, **params)
            designation = implied_designation(config.bank)
            allowed = set(designation)
            for register in designation:
                for cut in range(1, len(register)):
                    allowed.add(register[:cut])
            populated = {n for n, v in config.bank.as_dict().items()
                         if v != 0 and n not in ("RX", "RY")}
            assert populated <= allowed, (name, populated, allowed)


class TestPiBounds:
    def test_smallest_seed(self):
        result = pi_bounds(2)
        assert (result.i_quarter, result.j_quarter) == (2, 1)
        assert result.lower == Fraction(1, 2)
        assert result.upper == Fraction(3)

    def test_seed_100_matches_hand_trace(self):
        result = pi_bounds(100)
        final = HAND_TRACE_SEED_100[-1]
        assert (result.i_quarter, result.j_quarter) == (final[2], final[3])
        assert result.lower == Fraction(7, 5)
        assert result.upper == Fraction(16, 9)
        assert result.step_count == len(HAND_TRACE_SEED_100)

    def test_seed_100_machine_replays_hand_trace(self):
        # Same run on the full two-regulator machine, record by record.
        _, trace = generate(harmonic_config(100, cap=1000))
        assert len(trace) == len(HAND_TRACE_SEED_100)
        for record, (k, token, i, j, x, xx, r) in zip(trace, HAND_TRACE_SEED_100):
            assert record.k == k
            assert record.step.token == token
            assert (record.i, record.j) == (i, j)
            assert record.bank.X == x
            assert record.bank.XX == xx
            assert record.bank.RX - record.bank.RY == r

    def test_seed_10000(self):
        result = pi_bounds(10**4)
        assert (result.i_quarter, result.j_quarter) == (157, 99)
        assert result.step_count == 256
        assert result.elapsed >= 0.0

    def test_odd_measurement_seed(self):
        # 3.7683e10: the one non-power-of-ten seed in the reference table
        # (printed there with the exponent off by one).
        result = pi_bounds(37_683_000_000)
        assert (result.i_quarter, result.j_quarter) == (304924, 194120)
        assert format_bound(result.lower, round_up=False) == "1.570788"
        assert format_bound(result.upper, round_up=True) == "1.570807"

    def test_matches_the_hand_written_quarter_wave(self):
        rng = random.Random(1965)
        seeds = [*range(2, 3001), 10**4, 10**7, 10**12, 37_683_000_000,
                 *(rng.randint(2, 10**9) for _ in range(200))]
        for x0 in seeds:
            result = pi_bounds(x0)
            assert (result.i_quarter, result.j_quarter, result.step_count) \
                == quarter_wave(x0), x0
            # The kernel runs under harmonic_config's cap and never reaches it.
            assert result.step_count < harmonic_config(x0).stop.cap, x0

    def test_elapsed_leaves_out_the_kernel_compile(self, monkeypatch):
        compile_kernel = curves._compile_kernel

        def slow_compile(*shape):
            time.sleep(0.05)
            return compile_kernel(*shape)

        monkeypatch.setattr(curves, "_compile_kernel", slow_compile)
        assert pi_bounds(2).elapsed < 0.05

    def test_cap_exhausted(self, monkeypatch):
        monkeypatch.setattr(curves, "harmonic_config", lambda x0: harmonic_config(x0, cap=10))
        with pytest.raises(CapExhaustedError,
                           match=r"^X still positive after 10 steps \(cap exhausted\)$"):
            pi_bounds(100)

    def test_bad_seeds(self):
        with pytest.raises(PreconditionError):
            pi_bounds(1)
        with pytest.raises(PreconditionError):
            pi_bounds(100.0)
        with pytest.raises(RegisterOverflowError):
            pi_bounds(PI_SEED_LIMIT + 1)


class TestFormatBound:
    @pytest.mark.parametrize("value,up,expected", [
        (Fraction(156, 100), False, "1.56"),
        (Fraction(158, 99), True, "1.59596"),
        (Fraction(4966, 3162), False, "1.570524"),
        (Fraction(4968, 3161), True, "1.571655"),
        (Fraction(1570795, 1000000), False, "1.570795"),
        (Fraction(1570797, 999999), True, "1.570799"),
        (Fraction(15707962, 10000000), False, "1.570796"),
        (Fraction(15707964, 9999999), True, "1.570797"),
        (Fraction(7, 5), False, "1.4"),
        (Fraction(16, 9), True, "1.777778"),
        (Fraction(2), True, "2"),
    ])
    def test_golden_values(self, value, up, expected):
        assert format_bound(value, round_up=up) == expected

    def test_rounding_up_across_power_of_ten(self):
        value = Fraction(99999995, 100000000)
        assert format_bound(value, round_up=True) == "1"
        assert format_bound(value, round_up=False) == "0.9999999"

    def test_outwardness(self):
        value = Fraction(1234567891, 1000000000)
        down = Fraction(format_bound(value, round_up=False))
        up = Fraction(format_bound(value, round_up=True))
        assert down <= value <= up
        assert down < up

    def test_rejects_nonpositive(self):
        with pytest.raises(PreconditionError):
            format_bound(Fraction(0), round_up=True)

    @pytest.mark.parametrize("digits", [0, -1, True])
    def test_rejects_digits_that_are_not_positive_ints(self, digits):
        with pytest.raises(PreconditionError, match="digits must be a positive integer"):
            format_bound(Fraction(157, 100), round_up=True, digits=digits)

    @pytest.mark.parametrize("digits", [10**18, BOUND_DIGITS_LIMIT + 1])
    def test_rejects_digits_past_the_limit(self, digits):
        started = time.perf_counter()
        with pytest.raises(PreconditionError, match=f"digits must be at most {BOUND_DIGITS_LIMIT}"):
            format_bound(Fraction(1, 3), round_up=True, digits=digits)
        assert time.perf_counter() - started < 0.1

    def test_formats_at_the_digit_limit(self):
        assert format_bound(Fraction(1, 3), round_up=True,
                            digits=BOUND_DIGITS_LIMIT) == "0." + "3" * 4299 + "4"
        assert format_bound(Fraction(1, 3), round_up=False,
                            digits=BOUND_DIGITS_LIMIT) == "0." + "3" * 4300

    def test_rejects_a_float(self):
        # 1.57 is exactly 1.5700000000000000621..., so "1.57" is no upper bound.
        with pytest.raises(PreconditionError, match="bound must be exact"):
            format_bound(1.57, round_up=True)

    def test_far_exponents(self):
        # Rounding happens at the value's own leading digit, however far it is.
        assert format_bound(Fraction(10**20000 + 1), round_up=True) == "1000001" + "0" * 19994
        assert format_bound(Fraction(10**20000 + 1), round_up=False) == "1" + "0" * 20000
        tiny = Fraction(1, 10**20000 - 1)  # 1.000...0001...e-20000
        assert format_bound(tiny, round_up=False) == "0." + "0" * 19999 + "1"
        assert format_bound(tiny, round_up=True) == "0." + "0" * 19999 + "1000001"


_RATIOS = st.builds(Fraction, st.integers(1, 10**15), st.integers(1, 10**15))
# Ratios scaled by 10**k, and values a few parts in 10**m from a power of ten.
_BOUND_VALUES = (
    st.builds(lambda ratio, k: ratio * Fraction(10) ** k, _RATIOS, st.integers(-25, 25))
    | st.builds(lambda s, m, k: (1 + Fraction(s, 10**m)) * Fraction(10) ** k,
                st.integers(-9, 9), st.integers(1, 20), st.integers(-40, 40)))


@settings(max_examples=500, deadline=None)
@given(value=_BOUND_VALUES, round_up=st.booleans(), digits=st.integers(1, 15))
def test_bound_text_is_outward_and_tight(value, round_up, digits):
    text = format_bound(value, round_up, digits)
    # Plain decimal: no exponent, no trailing zero after the point, no bare point.
    assert re.fullmatch(r"[1-9][0-9]*(\.[0-9]*[1-9])?|0\.[0-9]*[1-9]", text), text
    whole, _, part = text.partition(".")
    significant = (whole + part).strip("0")
    assert len(significant) <= digits
    # The leading digit sits at 10**lead, so the last of ``digits`` places at
    # 10**lead * unit.
    lead = len(whole) - 1 if whole != "0" else len(part.lstrip("0")) - len(part) - 1
    unit = Fraction(10) ** (lead - digits + 1)
    bound = Fraction(text)
    if round_up:
        # The next text below is one unit down, or a tenth of one below a
        # power of ten; it must lie below the value.
        assert value <= bound
        assert bound - (unit / 10 if significant == "1" else unit) < value
    else:
        assert bound <= value
        assert value < bound + unit


class TestRealSampleSeries:
    def test_rejects_floats(self):
        with pytest.raises(PreconditionError):
            RealSampleSeries(((0.0, Fraction(0)),))

    def test_requires_increasing_x(self):
        with pytest.raises(PreconditionError):
            RealSampleSeries(((Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))))

    def test_from_pairs_accepts_ints_and_strings(self):
        series = RealSampleSeries.from_pairs([(0, 0), ("1/2", "1/5"), (1, 1)])
        assert series.points[1] == (Fraction(1, 2), Fraction(1, 5))

    def test_exact_pairs_are_kept_as_given(self):
        exact = ((Fraction(0), Fraction(1, 3)), (Fraction(1, 2), Fraction(-2)),
                 (Fraction(3), Fraction(0)))
        assert RealSampleSeries(exact).points is exact

        class Rational(Fraction):
            pass

        # Any other input is rebuilt as a tuple of (Fraction, Fraction) tuples.
        others = [list(exact), tuple(map(list, exact)), (p for p in exact),
                  ((0, Fraction(1, 3)), (Fraction(1, 2), -2), (3, 0)),
                  ((Rational(0), Fraction(1, 3)), *exact[1:]),
                  (exact[0], (Fraction(1, 2), Rational(-2)), exact[2])]
        for given in others:
            points = RealSampleSeries(given).points
            assert points == exact and points is not given
            assert all(type(pair) is tuple for pair in points)
            assert {type(c) for pair in points for c in pair} == {Fraction}


class TestDigitize:
    def test_sloped_line(self):
        xs = [Fraction(k, 10) for k in range(50)]
        samples = RealSampleSeries(tuple((x, Fraction(2, 5) * x) for x in xs))
        f = digitize(samples, IntegerScale(Fraction(1)))
        assert f.elements == (IntegerPair(0, 0), IntegerPair(1, 0), IntegerPair(2, 0),
                              IntegerPair(2, 1), IntegerPair(3, 1), IntegerPair(4, 1))
        assert_lattice_path(f)

    def test_constant_level(self):
        samples = RealSampleSeries(tuple(
            (Fraction(k, 10), Fraction(1, 2)) for k in range(30)))
        f = digitize(samples, IntegerScale(Fraction(1)))
        assert f.elements == (IntegerPair(0, 0), IntegerPair(1, 0), IntegerPair(2, 0))

    def test_exact_corner_takes_i_first(self):
        samples = RealSampleSeries(((Fraction(0), Fraction(0)),
                                    (Fraction(1), Fraction(1)),
                                    (Fraction(2), Fraction(2))))
        f = digitize(samples, IntegerScale(Fraction(1)))
        assert f.elements == (IntegerPair(0, 0), IntegerPair(1, 0), IntegerPair(1, 1),
                              IntegerPair(2, 1), IntegerPair(2, 2))

    def test_sparse_samples_rejected(self):
        samples = RealSampleSeries(((Fraction(0), Fraction(0)),
                                    (Fraction(5), Fraction(0))))
        with pytest.raises(PreconditionError):
            digitize(samples, IntegerScale(Fraction(1)))

    def test_single_cell(self):
        samples = RealSampleSeries(((Fraction(1, 3), Fraction(1, 3)),))
        f = digitize(samples, IntegerScale(Fraction(1)))
        assert f.elements == (IntegerPair(0, 0),)

    def test_refinement_of_same_samples(self):
        from intfunc import refinement_compatible
        xs = [Fraction(k, 200) for k in range(0, 600)]
        samples = RealSampleSeries(tuple((x, x * x / 3) for x in xs))
        coarse = digitize(samples, IntegerScale(Fraction(1, 2)))
        fine = digitize(samples, IntegerScale(Fraction(1, 10)))
        assert refinement_compatible(coarse, fine, 5) == []


class TestCompositeGenerate:
    def test_egg_figure_runs_clean(self):
        f, trace = composite_generate(egg_figure_config())
        assert f.length == 2000
        assert len(trace) == 2000
        assert_lattice_path(f)
        # The egg departs monotonicity: both step kinds change direction.
        assert any(s.sign < 0 for s in f.steps)

    def test_sinusoid_figure_runs_clean(self):
        f, _ = composite_generate(sinusoid_figure_config())
        assert f.length == 2000
        assert_lattice_path(f)

    def test_matches_monotone_mode_when_rates_stay_positive(self):
        monotone = line_config(3, 5, 40)
        harmonized = GeneratorConfig(start=monotone.start, bank=monotone.bank,
                                     stop=monotone.stop,
                                     mode=GenerationMode.SIGN_HARMONIZED)
        f1, t1 = generate(monotone)
        f2, t2 = composite_generate(harmonized)
        assert f1 == f2
        assert t1 == t2

    def test_zero_rate_moves_plus(self):
        config = GeneratorConfig(start=(0, 0), bank=RegisterBank(X=0, Y=1),
                                 stop=StepCount(3),
                                 mode=GenerationMode.SIGN_HARMONIZED)
        f, _ = composite_generate(config)
        assert f.steps[0].token == "i+"
        assert f.elements[1] == IntegerPair(1, 0)

    def test_mode_and_stop_preconditions(self):
        with pytest.raises(PreconditionError):
            composite_generate(line_config(1, 1, 4))
        config = GeneratorConfig(start=(0, 0), bank=RegisterBank(X=1, Y=1),
                                 stop=WhilePositive("X", 5),
                                 mode=GenerationMode.SIGN_HARMONIZED)
        with pytest.raises(PreconditionError):
            composite_generate(config)


class TestPresetFuzz:
    def test_random_preset_runs_produce_valid_paths(self):
        rng = random.Random(47)
        for _ in range(120):
            name = rng.choice(("line", "parabola", "exponential", "conic",
                               "sine", "semicubic"))
            params = _random_params(rng, name)
            f, _ = generate(preset_config(name, **params))
            assert_lattice_path(f)
            assert f.is_monotone()


def _random_params(rng, name):
    def nz(lo, hi):
        value = 0
        while value == 0:
            value = rng.randint(lo, hi)
        return value

    steps = rng.randint(1, 200)
    if name == "line":
        return dict(x=nz(1, 50), y=nz(1, 50), steps=steps)
    if name == "parabola":
        return dict(xx=nz(-5, 5), y=nz(1, 50), steps=steps, x=rng.randint(0, 20))
    if name == "exponential":
        return dict(xy=nz(-5, 5), y=nz(1, 50), steps=steps, x=rng.randint(0, 20))
    if name == "conic":
        return dict(xx=nz(-5, 5), yy=nz(-5, 5), steps=steps,
                    x=rng.randint(0, 20), y=rng.randint(0, 20))
    if name == "sine":
        return dict(xxy=nz(-3, 3), y=nz(1, 50), steps=steps,
                    x=rng.randint(0, 20), xx=rng.randint(-3, 3))
    return dict(xx=nz(-5, 5), yyy=nz(-3, 3), steps=steps,
                x=rng.randint(0, 20), yy=rng.randint(-3, 3), y=rng.randint(0, 20))
