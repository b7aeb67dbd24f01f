"""Acceptance suite: one test per criterion, printing a PASS line on success
(pytest's own FAILED line reports the opposite).  Run with

    pytest tests/test_acceptance.py -v -s
"""

import io
import math
import random
import time
from fractions import Fraction

import pytest

from intfunc import (
    Axis,
    GenerationTrace,
    RegisterBank,
    StepKind,
    TraceRecord,
    Viewport,
    class_derivative,
    difference_field,
    from_step_sequence,
    full_derivative,
    generate,
    refinement_compatible,
    render_pbm,
)
from intfunc.calculus import IntegerScale
from intfunc.curves import (
    RealSampleSeries,
    composite_generate,
    digitize,
    egg_figure_config,
    format_bound,
    harmonic_config,
    line_config,
    pi_bounds,
    preset_config,
    sinusoid_figure_config,
)
from intfunc.io import read_trace, write_trace

from conftest import SAMPLE_STEP_TEXT
from helpers import HAND_TRACE_SEED_100, assert_lattice_path

# Exact-rational bracket of pi/2, 50 decimal digits (truncation, so the true
# value lies strictly between LO and LO + 1e-50).  The digits are checked
# against the float value below; the bracket is 40+ orders of magnitude
# tighter than the tightest bound gap this suite ever compares against.
PI_HALF_LO = Fraction("1.57079632679489661923132169163975144209858469968755")
PI_HALF_HI = PI_HALF_LO + Fraction(1, 10**50)

GOLDEN_TABLE = {
    10**4: (157, 99, "1.56", "1.59596"),
    10**7: (4967, 3161, "1.570524", "1.571655"),
    10**12: (1570796, 999999, "1.570795", "1.570799"),
    10**14: (15707963, 9999999, "1.570796", "1.570797"),
}


def ok(criterion, detail):
    print(f"ACCEPTANCE PASS [{criterion}] {detail}")


@pytest.fixture(scope="module")
def golden_pi_runs():
    started = time.perf_counter()
    results = {x0: pi_bounds(x0) for x0 in GOLDEN_TABLE}
    elapsed = time.perf_counter() - started
    return results, elapsed


def test_pi_half_literal_sanity():
    assert abs(float(PI_HALF_LO) - math.pi / 2) < 1e-15


def test_criterion_1_pi_golden_table(golden_pi_runs):
    results, elapsed = golden_pi_runs
    for x0, (i, j, lower_text, upper_text) in GOLDEN_TABLE.items():
        result = results[x0]
        assert (result.i_quarter, result.j_quarter) == (i, j), x0
        assert format_bound(result.lower, round_up=False) == lower_text, x0
        assert format_bound(result.upper, round_up=True) == upper_text, x0
    assert elapsed < 10.0, f"four golden runs took {elapsed:.2f}s"
    ok(1, f"four golden (i, j) pairs and printed bounds exact; {elapsed:.2f}s total")


def test_criterion_2_seed_100_oracle():
    # The oracle is the frozen hand trace, not the published row (whose
    # printed j = 8 contradicts its own bounds; the trace ends at j = 9).
    # Printed-table bounds are deliberately not asserted for this row.
    result = pi_bounds(100)
    final = HAND_TRACE_SEED_100[-1]
    assert (result.i_quarter, result.j_quarter) == (final[2], final[3]) == (15, 9)
    _, trace = generate(harmonic_config(100, cap=10**6))
    assert len(trace) == len(HAND_TRACE_SEED_100)
    for record, (k, token, i, j, x, xx, r) in zip(trace, HAND_TRACE_SEED_100):
        assert (record.k, record.step.token, record.i, record.j) == (k, token, i, j)
        assert record.bank.X == x
        assert record.bank.XX == xx
        assert record.bank.RX - record.bank.RY == r
    ok(2, "seed-100 run reproduces the 24-step hand trace, ending at (15, 9)")


def test_criterion_3_bracketing_and_convergence(golden_pi_runs):
    results = dict(golden_pi_runs[0])
    results[10**2] = pi_bounds(10**2)
    widths = []
    for x0 in (10**2, 10**4, 10**7, 10**12, 10**14):
        result = results[x0]
        assert result.lower < PI_HALF_LO, x0
        assert PI_HALF_HI < result.upper, x0
        widths.append(result.upper - result.lower)
    assert all(a > b for a, b in zip(widths, widths[1:])), widths
    ok(3, "all five brackets contain pi/2 exactly; widths strictly shrink")


def test_criterion_4_sample_field():
    f = from_step_sequence((0, 0), SAMPLE_STEP_TEXT)
    field = difference_field(f, Axis.I, 3)
    assert list(field.values()) == [3, 3, 3, 3, 3, 2, 2, 1, 2, 1, 1, 0]
    assert list(field.coordinates()) == list(range(1, 13))
    ok(4, "class-3 field of the sample staircase matches digit for digit")


def test_criterion_5_line_theorem():
    rng = random.Random(95)
    started = time.perf_counter()
    for _ in range(200):
        a, b = rng.randint(1, 100), rng.randint(1, 100)
        f, _ = generate(line_config(a, b, a + b))
        for diff_class, field in full_derivative(f, Axis.I).items():
            base = diff_class * a // b
            for _, d in field:
                assert d in (base, base + 1), (a, b, diff_class, d)
            for scaled in field.scaled():
                assert base in scaled, (a, b, diff_class, scaled)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"theorem sweep took {elapsed:.2f}s"
    ok(5, f"200 random {{X, Y}} runs obey the constant-derivative theorem; "
          f"{elapsed:.2f}s")


def test_criterion_6_neighbor_fuzz():
    rng = random.Random(2024)
    presets = ("line", "parabola", "exponential", "conic", "sine", "semicubic")
    runs = 0
    for _ in range(960):
        name = rng.choice(presets)
        f, _ = generate(preset_config(name, **_random_params(rng, name)))
        assert_lattice_path(f)
        runs += 1
    for _ in range(20):
        f, _ = composite_generate(egg_figure_config(steps=rng.randint(50, 2000)))
        assert_lattice_path(f)
        runs += 1
    for _ in range(20):
        f, _ = composite_generate(sinusoid_figure_config(steps=rng.randint(50, 2000)))
        assert_lattice_path(f)
        runs += 1
    assert runs == 1000
    ok(6, "1000 preset and composite runs all satisfy the neighbor invariant")


def _random_params(rng, name):
    def nz(lo, hi):
        value = 0
        while value == 0:
            value = rng.randint(lo, hi)
        return value

    steps = rng.randint(1, 300)
    if name == "line":
        return dict(x=nz(1, 60), y=nz(1, 60), steps=steps)
    if name == "parabola":
        return dict(xx=nz(-6, 6), y=nz(1, 60), steps=steps, x=rng.randint(0, 30))
    if name == "exponential":
        return dict(xy=nz(-6, 6), y=nz(1, 60), steps=steps, x=rng.randint(0, 30))
    if name == "conic":
        return dict(xx=nz(-6, 6), yy=nz(-6, 6), steps=steps,
                    x=rng.randint(0, 30), y=rng.randint(0, 30))
    if name == "sine":
        return dict(xxy=nz(-4, 4), y=nz(1, 60), steps=steps,
                    x=rng.randint(0, 30), xx=rng.randint(-4, 4))
    return dict(xx=nz(-6, 6), yyy=nz(-4, 4), steps=steps,
                x=rng.randint(0, 30), yy=rng.randint(-4, 4), y=rng.randint(0, 30))


def test_criterion_7_sine_refinement():
    # sin over [0, pi/2], sampled twice per fine cell width; float sine
    # values are converted to exact rationals before they enter.
    samples = RealSampleSeries(tuple(
        (Fraction(k, 20000), Fraction(math.sin(k / 20000)))
        for k in range(31416)))
    coarse = digitize(samples, IntegerScale(Fraction(1, 100)))
    fine = digitize(samples, IntegerScale(Fraction(1, 10000)))
    violations = refinement_compatible(coarse, fine, 100)
    assert violations == []
    ok(7, f"unit 1/100 vs 1/10000 digitizations of sine: 0 violations "
          f"({len(coarse.elements)} coarse, {len(fine.elements)} fine cells)")


def test_criterion_8_derivative_decay():
    # First clause: class-1 differences stay far below the original j range.
    # Second clause: the "first-order field" is read as the full first
    # derivative (every meaningful class); comparing class-1 against class-1
    # is unsatisfiable here, since for an equal-seed quarter wave the slope
    # never exceeds 1 and both orders peak at exactly 1.  The non-strict
    # same-class comparison is asserted as well.
    f, _ = generate(harmonic_config(10**4))
    j_max = max(e.j for e in f.elements)
    first_d1 = difference_field(f, Axis.I, 1)
    first_d1_max = max(abs(d) for d in first_d1.values())
    assert first_d1_max < j_max

    derivative = class_derivative(f, Axis.I, 1)
    second_d1 = difference_field(derivative, Axis.I, 1)
    second_d1_max = max(abs(d) for d in second_d1.values())
    first_full_max = max(abs(d) for field in full_derivative(f, Axis.I).values()
                         for d in field.values())
    assert second_d1_max < first_full_max
    assert second_d1_max <= first_d1_max
    ok(8, f"decay: {first_d1_max} < j_max {j_max}; second-order {second_d1_max} "
          f"< full first derivative {first_full_max}")


def test_criterion_9_serialization_and_pbm():
    rng = random.Random(7)
    kinds = [StepKind(a, s) for a in (Axis.I, Axis.J) for s in (1, -1)]
    for _ in range(100):
        i, j = rng.randint(-9, 9), rng.randint(-9, 9)
        records = []
        for k in range(1, rng.randint(1, 30)):
            step = rng.choice(kinds)
            i += step.sign if step.axis is Axis.I else 0
            j += step.sign if step.axis is Axis.J else 0
            bank = RegisterBank.from_mapping({
                name: rng.randint(-10**17, 10**17)
                for name in rng.sample(("RX", "RY", "X", "Y", "XX", "XXY", "YYY"), 3)})
            records.append(TraceRecord(k, step, i, j, bank))
        trace = GenerationTrace(tuple(records))
        buffer = io.StringIO()
        write_trace(trace, buffer)
        assert read_trace(io.StringIO(buffer.getvalue())) == trace

    sample = from_step_sequence((0, 0), SAMPLE_STEP_TEXT)
    payload = render_pbm(sample, Viewport.around(sample))
    rows = payload.decode("ascii").splitlines()[2:]
    assert sum(row.count("1") for row in rows) == 25
    ok(9, "100 fuzzed trace round trips exact; sample PBM has exactly 25 set bits")
