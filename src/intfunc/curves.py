"""Curve families, the discrete quarter-circle experiment, and digitization.

Each preset fills the register bank so that the generator traces one curve
family; the family is named by its type designation, the set of constant
non-zero work registers ({X, Y} lines, {XX, Y} parabolas, {XXY, Y} sine-like
curves, ...).  The quarter-wave run of the {XXY, Y} type brackets pi/2
between two exact rationals.
"""

from __future__ import annotations

import math
import operator
import time
from decimal import MAX_EMAX, MIN_EMIN, ROUND_CEILING, ROUND_FLOOR, Context
from fractions import Fraction
from itertools import repeat
from typing import Iterable

from .core import (
    GenerationMode,
    GeneratorConfig,
    IntegerFunction,
    IntegerPair,
    PreconditionError,
    RegisterBank,
    RegisterOverflowError,
    StepCount,
    WhilePositive,
    _SLOT,
    _UNTRACED,
    _Frozen,
    _cap_exhausted,
    _check_positive,
    _check_type,
    _compile_kernel,
    _is_int,
    _shape,
    composite_generate,  # generate's refusal text names curves.composite_generate
)

#: The largest seed pi_bounds runs; its docstring shows why no register of
#: that run can overflow.  Larger seeds are rejected up front.
PI_SEED_LIMIT = 10**17

#: The most significant digits format_bound writes: Python's default limit
#: on the digits of an integer's text.  More digits are refused up front.
BOUND_DIGITS_LIMIT = 4300


def _require_nonzero(**params) -> None:
    zeros = sorted(name for name, value in params.items() if value == 0)
    if zeros:
        raise PreconditionError(
            f"type-designation register(s) must be non-zero: {', '.join(zeros)}")


def line_config(x: int, y: int, steps: int, start=(0, 0)) -> GeneratorConfig:
    """{X, Y} straight line: X is the j rate, Y the i rate."""
    _require_nonzero(X=x, Y=y)
    return GeneratorConfig(start, RegisterBank(X=x, Y=y), StepCount(steps))


def uniform_motion_config(i_total: int, j_total: int) -> GeneratorConfig:
    """{X, Y} line covering j_total distance units in i_total time units.

    Runs i_total + j_total steps from the origin, distributing the two step
    kinds as uniformly as possible.
    """
    if not (_is_int(i_total) and _is_int(j_total) and i_total > 0 and j_total > 0):
        raise PreconditionError("uniform motion needs positive step totals")
    return line_config(x=j_total, y=i_total, steps=i_total + j_total)


def parabola_config(xx: int, y: int, steps: int, x: int = 0, start=(0, 0)) -> GeneratorConfig:
    """{XX, Y} parabola; xx acts as a constant acceleration on the rate x."""
    _require_nonzero(XX=xx, Y=y)
    return GeneratorConfig(start, RegisterBank(X=x, Y=y, XX=xx), StepCount(steps))


def free_fall_config(acceleration: int, time_rate: int, steps: int,
                     initial_velocity: int = 0) -> GeneratorConfig:
    """{XX, Y} free fall: i counts time units, j the covered distance."""
    return parabola_config(xx=acceleration, y=time_rate, steps=steps, x=initial_velocity)

def exponential_config(xy: int, y: int, steps: int, x: int = 0, start=(0, 0)) -> GeneratorConfig:
    """{XY, Y} exponential/logarithm: each j step feeds XY into the i rate."""
    _require_nonzero(XY=xy, Y=y)
    return GeneratorConfig(start, RegisterBank(X=x, Y=y, XY=xy), StepCount(steps))


def conic_config(xx: int, yy: int, steps: int, x: int = 0, y: int = 0,
                 start=(0, 0)) -> GeneratorConfig:
    """{XX, YY} ellipse or hyperbola, by the signs of the two accelerations."""
    _require_nonzero(XX=xx, YY=yy)
    return GeneratorConfig(start, RegisterBank(X=x, Y=y, XX=xx, YY=yy), StepCount(steps))


def sine_config(xxy: int, y: int, steps: int, x: int = 0, xx: int = 0,
                start=(0, 0)) -> GeneratorConfig:
    """{XXY, Y} sine-like curve: j steps bend the acceleration XX by xxy."""
    _require_nonzero(XXY=xxy, Y=y)
    return GeneratorConfig(start, RegisterBank(X=x, Y=y, XX=xx, XXY=xxy), StepCount(steps))


def semicubic_config(xx: int, yyy: int, steps: int, x: int = 0, yy: int = 0,
                     y: int = 0, start=(0, 0)) -> GeneratorConfig:
    """{XX, YYY} semi-cubic parabola."""
    _require_nonzero(XX=xx, YYY=yyy)
    return GeneratorConfig(start, RegisterBank(X=x, Y=y, XX=xx, YY=yy, YYY=yyy), StepCount(steps))


def harmonic_config(resolution: int, cap: int | None = None) -> GeneratorConfig:
    """{XXY, Y} simple harmonic motion from rest, i.e. the quarter-wave setup.

    Both rates start at ``resolution`` (unit tangent), the acceleration bends
    negative from the first j step (XX and XXY start at -1), and the run
    watches the X register: the quarter period ends on the step where X
    stops being positive.
    """
    if not isinstance(resolution, int):  # a bool is refused just below
        raise PreconditionError("resolution must be an integer")
    if resolution < 2:
        raise PreconditionError("resolution must be at least 2")
    if cap is None:
        # i + j grows like 2.6 * sqrt(resolution); leave generous headroom.
        cap = 4 * math.isqrt(resolution) + 16
    bank = RegisterBank(X=resolution, Y=resolution, XX=-1, XXY=-1)
    return GeneratorConfig((0, 0), bank, WhilePositive("X", cap))


def egg_figure_config(steps: int = 2000) -> GeneratorConfig:
    """{XX, YYY} closed egg curve (sign-harmonized composite run)."""
    bank = RegisterBank(X=500000, Y=10, XX=-10000, YY=10000, YYY=-125)
    return GeneratorConfig((25, 60), bank, StepCount(steps), GenerationMode.SIGN_HARMONIZED)


def sinusoid_figure_config(steps: int = 2000) -> GeneratorConfig:
    """{XXY, Y} full sinusoid arc (sign-harmonized composite run)."""
    bank = RegisterBank(RX=500, X=0, Y=600, XX=-200, XXY=-3)
    return GeneratorConfig((0, 140), bank, StepCount(steps), GenerationMode.SIGN_HARMONIZED)


PRESETS = {
    "line": line_config,
    "uniform": uniform_motion_config,
    "parabola": parabola_config,
    "freefall": free_fall_config,
    "exponential": exponential_config,
    "conic": conic_config,
    "sine": sine_config,
    "harmonic": harmonic_config,
    "semicubic": semicubic_config,
    "egg_figure": egg_figure_config,
    "sinusoid_figure": sinusoid_figure_config,
}


def preset_config(preset: str, **params) -> GeneratorConfig:
    """Build a generator config for a named curve preset.  A parameter the
    preset's builder lacks, or one it needs and ``params`` lacks, is refused
    with the preset's parameters (read from the builder's code object)."""
    try:
        builder = PRESETS[preset]
    except KeyError:
        raise PreconditionError(
            f"unknown preset {preset!r}; known: {', '.join(sorted(PRESETS))}") from None
    code = builder.__code__
    names = code.co_varnames[:code.co_argcount]
    required = names[:len(names) - len(builder.__defaults__ or ())]
    missing = [name for name in required if name not in params]
    unknown = sorted(set(params) - set(names))
    if missing or unknown:
        raise PreconditionError(
            f"preset {preset!r} takes {', '.join(names)} ({len(required)} required); "
            f"missing: {', '.join(missing) or 'none'}; unknown: {', '.join(unknown) or 'none'}")
    return builder(**params)


class PiResult(_Frozen):
    """Outcome of a quarter-wave run: the corner pair and its pi/2 bracket."""

    __slots__ = ("i_quarter", "j_quarter", "lower", "upper", "step_count", "elapsed")

    def __init__(self, i_quarter: int, j_quarter: int, lower: Fraction, upper: Fraction,
                 step_count: int, elapsed: float):
        if not (0 < lower < upper):
            raise PreconditionError("bounds must be positive with lower < upper")
        self._set(i_quarter, j_quarter, lower, upper, step_count, elapsed)


def pi_bounds(x0: int) -> PiResult:
    """Bracket pi/2 by running the quarter wave at seed ``x0``.

    Its kernel key is harmonic_config(x0)'s shape (see core._shape) plus the
    untraced loop kind.  That loop runs the {XXY, Y} machine with X = Y = x0
    and XX = XXY = -1 under its step cap, until the watched X register stops
    being positive.  It keeps one combined regulator r = RX - RY, which is
    all the step choice ever looks at, and no step counter: it returns the
    step total, worked out from its loop index at the stop, and writes back
    the work registers.  Only j steps add XXY into XX, so j = (XX_end -
    XX_0) // XXY and i is the rest of the total.  The element [i, j] reached on that step
    spans the quarter period, and the unit squares at the two ends give the
    exact rational bounds (i - 1)/(j + 1) < pi/2 < (i + 1)/j.
    ``elapsed`` times the run alone, not the kernel's compile.

    Far from the stop the loop makes no stop test: it runs blocks of
    core._FREE_STEPS = 1024 steps while X > 1024 * (|XX| + 1024 * |XXY|),
    which shows X stays positive through the block, since X falls by at most
    |XX| per step and |XX| grows by at most |XXY| per step.  The rest of the
    run, from the first block the guard refuses, tests X after every i step.
    Seeds below about 1.05e6 fail the guard at once and run tested
    throughout.

    A block is fused when r <= Y and X + 1024 * (|XX| + 1024 * |XXY|) <= Y:
    X, the i rate, then stays at most the j rate Y = x0 through the block,
    and r <= Y holds before every step, so every j step leaves r <= 0 and
    forces the next step to be an i step.  The fused block runs 512 units,
    each a j step and the i step it forces when r > 0, else an i step, and
    counts its steps as 512 plus its j steps, which XXY -> XX counts: the
    change in XX divided by XXY.  X first falls that far below x0 after
    five plain blocks, so seeds below about 7.0e6 run no fused block.  A fused
    block takes the same steps as a plain one, so every register takes the
    same values, and the ranges below, and so PI_SEED_LIMIT, do not change.

    The kernel checks no addition, because none can leave +/- 2**63 for
    x0 <= PI_SEED_LIMIT.  XX = -1 - j, and j is at most the cap, about
    4 sqrt(x0).  X falls from x0 by |XX| per i step and the run stops at its
    first non-positive value, so XX < X <= x0.  r gains X only while r <= 0
    and loses Y = x0 only while r > 0, so -x0 + XX < r <= x0.  Every value
    is thus at most x0 plus a square-root-sized term, far below 2**63.
    """
    if not isinstance(x0, int) or x0 < 2:
        raise PreconditionError("x0 must be an integer >= 2")
    if x0 > PI_SEED_LIMIT:
        raise RegisterOverflowError(
            f"x0 = {x0} would push registers past 2**63; limit is {PI_SEED_LIMIT}")
    config = harmonic_config(x0)
    dead, harmonized, watched = _shape(config)
    run, _ = _compile_kernel(dead, harmonized, watched, _UNTRACED)
    regs = list(config.bank._values)
    started = time.perf_counter()
    steps = run(regs, config.stop.cap)
    elapsed = time.perf_counter() - started
    if regs[watched] > 0:
        raise _cap_exhausted("X", steps)
    j = (regs[_SLOT["XX"]] - config.bank.XX) // config.bank.XXY
    i = steps - j
    return PiResult(
        i_quarter=i,
        j_quarter=j,
        lower=Fraction(i - 1, j + 1),
        upper=Fraction(i + 1, j),
        step_count=steps,
        elapsed=elapsed,
    )


def format_bound(value: Fraction, round_up: bool, digits: int = 7) -> str:
    """Render a positive rational at ``digits`` significant digits, rounded
    outward (down for lower bounds, up for upper bounds), with no exponent
    and trailing zeros trimmed.

    The text is one division of the exact numerator by the exact
    denominator in a decimal context of ``digits`` digits, rounded once
    toward the asked side (ROUND_FLOOR or ROUND_CEILING), so it is outward
    by construction.  The context's exponent range is decimal's widest, so a
    huge or tiny value still rounds at its own leading digit.  A float is
    refused: its exact binary value is not the decimal it prints as.
    ``digits`` above BOUND_DIGITS_LIMIT is refused.
    """
    if isinstance(value, float):
        raise PreconditionError("bound must be exact; pass a Fraction, not a float")
    if not (_is_int(value) or isinstance(value, Fraction)):
        raise PreconditionError("bound must be an int or a Fraction")
    _check_positive(digits, "digits")
    if digits > BOUND_DIGITS_LIMIT:
        raise PreconditionError(f"digits must be at most {BOUND_DIGITS_LIMIT}")
    if value <= 0:
        raise PreconditionError("bound formatting expects a positive value")
    context = Context(prec=digits, rounding=ROUND_CEILING if round_up else ROUND_FLOOR,
                      Emax=MAX_EMAX, Emin=MIN_EMIN)
    return f"{context.divide(value.numerator, value.denominator).normalize(context):f}"


def _exact_pairs(points) -> bool:
    """Whether ``points`` is a tuple of pairs that are tuples of two
    Fractions, each exactly of those types (no subclass)."""
    if type(points) is not tuple:
        return False
    for pair in points:
        x, y = pair
        if type(pair) is not tuple or type(x) is not Fraction or type(y) is not Fraction:
            return False
    return True


class RealSampleSeries(_Frozen):
    """Dense samples (x, y) of a curve segment, as exact rationals.

    Floats are rejected so that rounding noise cannot leak into the integer
    world; convert explicitly (e.g. Fraction(math.sin(t))) if a float value
    really is the intended sample.
    """

    __slots__ = ("points",)

    def __init__(self, points: tuple[tuple[Fraction, Fraction], ...]):
        # A tuple of (Fraction, Fraction) tuples is kept as given; any other
        # input is rebuilt pair by pair.
        try:
            if not _exact_pairs(points):
                converted = []
                for x, y in points:
                    if type(x) is not Fraction or type(y) is not Fraction:
                        if isinstance(x, float) or isinstance(y, float):
                            raise PreconditionError(
                                "samples must be exact rationals; convert floats explicitly")
                        x, y = Fraction(x), Fraction(y)
                    converted.append((x, y))
                points = tuple(converted)
        except (TypeError, ValueError, ArithmeticError):
            raise PreconditionError("samples must be (x, y) pairs of rationals") from None
        # x1 > x0, compared on numerators and denominators.  Every coordinate
        # is now exactly a Fraction, so its _numerator and _denominator slots
        # hold what the numerator and denominator properties would return.
        nums = [x._numerator for x, _ in points]
        dens = [x._denominator for x, _ in points]
        if not all(map(operator.gt, map(operator.mul, nums[1:], dens),
                       map(operator.mul, nums, dens[1:]))):
            raise PreconditionError("sample x values must be strictly increasing")
        self._set(points)

    @classmethod
    def from_pairs(cls, pairs: Iterable) -> "RealSampleSeries":
        return cls(pairs)

    def __len__(self) -> int:
        return len(self.points)


class IntegerScale(_Frozen):
    """Real-world value of one integer step, as an exact rational."""

    __slots__ = ("unit",)

    def __init__(self, unit: Fraction):
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


# Step-code tables, one byte per pair of consecutive samples.  x rises
# strictly, so an i jump di is 0 or more: 1 is the i+ step (code 0) and 0 no
# step (0xFF).  The j table reads dj + 1: 0, 1 and 2 (dj = -1, 0, 1) are the
# j- step (code 3), no step and the j+ step (code 1).  Every other byte is a
# jump of more than one cell (0xFE).
_I_CODES = b"\xff\x00" + b"\xfe" * 254
_J_CODES = b"\x03\xff\x01" + b"\xfe" * 253


def digitize(samples: RealSampleSeries, scale: IntegerScale) -> IntegerFunction:
    """Discrete counterpart of a sampled curve at the given scale.

    Every sample lands in the unit cell (floor(x/u), floor(y/u)); consecutive
    duplicates collapse, edge-adjacent cells become single steps, and an
    exact corner crossing (diagonal cell change) is resolved by taking the i
    step first.  A jump of more than one cell in either coordinate means the
    samples are too sparse for this scale.

    The cells come from one floor division per coordinate, read on the
    Fraction slots (RealSampleSeries stores exact Fractions only).  The codes
    come from the di and dj + 1 byte strings, each mapped through its table
    and interleaved i first; deleting the no-step bytes leaves the path.  A
    jump that no byte holds, or that a table maps to 0xFE, is too sparse.
    """
    _check_type(samples, RealSampleSeries, "samples must be a RealSampleSeries")
    _check_type(scale, IntegerScale, "scale must be an IntegerScale")
    points = samples.points
    if not points:
        raise PreconditionError("at least one sample is required")
    # floor(x / u) on numerators and denominators, as in IntegerScale.cell_of.
    num, den = scale.unit.numerator, scale.unit.denominator
    ci = [(x._numerator * den) // (x._denominator * num) for x, _ in points]
    cj = [(y._numerator * den) // (y._denominator * num) for _, y in points]
    try:  # bytes() refuses a value outside 0..255, a jump of several cells
        di = bytes(map(operator.sub, ci[1:], ci))
        dj1 = bytes(map(operator.sub, map(operator.add, cj[1:], repeat(1)), cj))
    except ValueError:
        raise _too_sparse(ci, cj) from None
    codes = bytearray(2 * len(di))
    codes[0::2] = di.translate(_I_CODES)
    codes[1::2] = dj1.translate(_J_CODES)
    if 0xFE in codes:
        raise _too_sparse(ci, cj)
    return IntegerFunction.from_codes((ci[0], cj[0]), codes.translate(None, b"\xff"))


def _too_sparse(ci: list[int], cj: list[int]) -> PreconditionError:
    """The error for the first jump of more than one cell."""
    t = next(t for t in range(1, len(ci))
             if abs(ci[t] - ci[t - 1]) > 1 or abs(cj[t] - cj[t - 1]) > 1)
    return PreconditionError(
        f"samples too sparse: cell jump ({ci[t] - ci[t - 1]}, {cj[t] - cj[t - 1]}) "
        f"between {(ci[t - 1], cj[t - 1])} and {(ci[t], cj[t])}")
