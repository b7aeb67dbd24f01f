"""Two oracles that share no code with the register machine.

Registers are iterated sums over the path a run walked (helpers.iterated_sums,
built from the step codes alone), and pi/2 lies inside every quarter-wave
bracket (checked against Machin's formula, helpers.machin_pi).
"""

import math
import random
from fractions import Fraction

import pytest

from intfunc import (
    ALL_REGISTERS,
    GenerationMode,
    GeneratorConfig,
    RegisterBank,
    StepCount,
    pi_bounds,
)
from intfunc.core import _run
from intfunc.curves import (
    conic_config,
    egg_figure_config,
    exponential_config,
    harmonic_config,
    semicubic_config,
    sine_config,
    sinusoid_figure_config,
)

from helpers import iterated_sums, machin_pi


def _assert_iterated_sums(config):
    _, trace = _run(config)
    harmonized = config.mode is GenerationMode.SIGN_HARMONIZED
    columns, picked = iterated_sums(config.bank.as_dict(), trace.codes, harmonized)
    assert picked == trace.codes
    for name in ALL_REGISTERS:
        assert list(trace.column(name)) == columns[name], name
    if isinstance(config.stop, StepCount):
        assert len(trace) == config.stop.count
    else:
        # Every preset's watched register starts positive.
        watched = columns[config.stop.register]
        assert watched[-1] <= 0 < min(watched[:-1], default=1)


@pytest.mark.parametrize("config", [
    harmonic_config(10**6),
    exponential_config(-1, 4, 300, x=20),
    conic_config(-2, 3, 400, x=90, y=1),
    semicubic_config(2, -3, 300, x=1, yy=1, y=4),
    sine_config(-1, 7, 400, x=70, xx=-1),
    sinusoid_figure_config(2000),
    egg_figure_config(300),
], ids=["harmonic", "exponential", "conic", "semicubic", "sine", "sinusoid", "egg"])
def test_presets_are_iterated_sums(config):
    _assert_iterated_sums(config)


@pytest.mark.parametrize("mode", list(GenerationMode))
def test_random_banks_are_iterated_sums(mode):
    # Mostly zeros, so that pruned cascades and constant registers are common.
    rng = random.Random(f"iterated-sums/{mode.name}")
    for _ in range(300):
        bank = RegisterBank(**{name: rng.choice([0, 0, 0, rng.randint(-20, 20)])
                               for name in ALL_REGISTERS})
        _assert_iterated_sums(
            GeneratorConfig((0, 0), bank, StepCount(rng.randint(1, 300)), mode))


def test_iterated_sums_catch_a_wrong_step():
    config = sine_config(-1, 7, 40, x=7, xx=-1)
    _, trace = _run(config)
    codes = bytearray(trace.codes)
    codes[10] ^= 1
    assert iterated_sums(config.bank.as_dict(), codes)[1] != codes


PI_LOW, PI_HIGH = machin_pi(80)
PI_HALF_LOW, PI_HALF_HIGH = Fraction(PI_LOW, 2 * 10**80), Fraction(PI_HIGH, 2 * 10**80)


def test_machin_pi():
    assert PI_HIGH - PI_LOW <= 3
    assert str(PI_LOW).startswith("3141592653589793238462643383279502884197169399375")
    assert math.isclose(PI_LOW / 10**80, math.pi)


def test_pi_half_lies_in_every_bracket():
    rng = random.Random(1706)
    seeds = [*range(2, 3001), *(10**e for e in range(2, 12)),
             *(int(10 ** rng.uniform(math.log10(2), 9)) for _ in range(300))]
    for x0 in seeds:
        result = pi_bounds(x0)
        assert result.lower < PI_HALF_LOW and PI_HALF_HIGH < result.upper, x0
