"""The register-machine kernel against the readable single-step API.

Monotone runs are checked against choose_step + apply_step, sign-harmonized
runs against a step written out below; pruned cascades, overflow and cap
errors must not change which step a run fails on, or its error text.
"""

import re
from array import array
from fractions import Fraction
from itertools import repeat
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intfunc import (
    ALL_REGISTERS,
    Axis,
    CapExhaustedError,
    GenerationMode,
    GenerationTrace,
    GeneratorConfig,
    PreconditionError,
    REGISTER_CAPACITY,
    RegisterBank,
    RegisterOverflowError,
    StepCount,
    StepKind,
    TraceRecord,
    WORK_REGISTERS,
    WhilePositive,
    apply_step,
    choose_step,
    generate,
    pi_bounds,
)
from intfunc import core
from intfunc.core import REGULATORS, _checked, _run
from intfunc.curves import harmonic_config, line_config

from helpers import machin_pi, quarter_wave

CAP = REGISTER_CAPACITY


def _cascade(letter):
    # Every work register ending in the letter feeds the name without it,
    # highest rank first; the empty name is the axis' regulator.
    return [(name, name[:-1] or "R" + letter)
            for rank in (3, 2, 1) for name in WORK_REGISTERS
            if len(name) == rank and name.endswith(letter)]


def _harmonized_step(bank, axis):
    """One sign-harmonized step: the regulator gains |rate| and the
    coordinate moves by the rate's sign (+1 for a zero rate)."""
    values = bank.as_dict()
    *pairs, (rate_name, regulator) = _cascade(axis.letter)
    for source, target in pairs:
        values[target] = _checked(values[target] + values[source], f"{target} += {source}")
    rate = values[rate_name]
    values[regulator] = _checked(values[regulator] + abs(rate), f"{regulator} += |{rate_name}|")
    return RegisterBank(**values), 1 if rate >= 0 else -1


def _reference(config):
    """(records, the error or None) of a step-by-step run."""
    bank, (i, j) = config.bank, config.start
    harmonized = config.mode is GenerationMode.SIGN_HARMONIZED
    if isinstance(config.stop, StepCount):
        limit, watched = config.stop.count, None
    else:
        limit, watched = config.stop.cap, config.stop.register
    records = []
    try:
        for k in range(1, limit + 1):
            axis = choose_step(bank)
            if harmonized:
                bank, sign = _harmonized_step(bank, axis)
            else:
                bank, sign = apply_step(bank, axis), 1
            i += sign if axis is Axis.I else 0
            j += sign if axis is Axis.J else 0
            records.append(TraceRecord(k, StepKind(axis, sign), i, j, bank))
            if watched is not None and bank.value(watched) <= 0:
                return records, None
    except RegisterOverflowError as error:
        return records, error
    if watched is None:
        return records, None
    return records, CapExhaustedError(
        f"{watched} still positive after {limit} steps (cap exhausted)")


def _assert_same_run(trace, records):
    assert trace.records == tuple(records)
    assert trace == GenerationTrace(records)
    for name in ALL_REGISTERS:
        assert trace.register_series(name) == [r.bank.value(name) for r in records]
    assert list(trace.i) == [r.i for r in records]
    assert list(trace.j) == [r.j for r in records]


# Mostly zeros, so that pruning fires; a few registers near capacity.
_SMALL = st.one_of(st.just(0), st.just(0), st.integers(-5, 5))
_EDGE = st.sampled_from([CAP, -CAP, CAP - 4, -CAP + 4, CAP // 2, -(CAP // 2)])


@st.composite
def configs(draw, edges=_EDGE, min_edges=0):
    values = {name: draw(_SMALL) for name in ALL_REGISTERS}
    for name in draw(st.lists(st.sampled_from(ALL_REGISTERS), min_size=min_edges,
                              max_size=max(min_edges, 2))):
        values[name] = draw(edges)
    bank = RegisterBank(**values)
    mode = draw(st.sampled_from(list(GenerationMode)))
    if draw(st.booleans()):
        stop = StepCount(draw(st.integers(1, 40)))
    else:
        stop = WhilePositive(draw(st.sampled_from(ALL_REGISTERS)), draw(st.integers(1, 40)))
    start = (draw(st.integers(-9, 9)), draw(st.integers(-9, 9)))
    return GeneratorConfig(start=start, bank=bank, stop=stop, mode=mode)


@settings(max_examples=400, deadline=None)
@given(configs())
def test_kernel_matches_single_step_reference(config):
    _assert_matches_reference(config)


# Within 2**12 of the cap, so that some batches fit the bound and others not.
_NEAR_CAP = st.integers(0, 2**12 - 1).flatmap(lambda k: st.sampled_from([CAP - k, k - CAP]))


@settings(max_examples=150, deadline=None)
@given(configs(_NEAR_CAP, min_edges=1), st.sampled_from([1, 2, 3, 8, 64]))
def test_near_cap_banks_match_the_reference(config, batch):
    # Short batches switch between the checked and unchecked kernels mid-run.
    with mock.patch.object(core, "_BATCH_STEPS", batch):
        _assert_matches_reference(config)


def _assert_matches_reference(config):
    records, error = _reference(config)
    if error is None:
        f, trace = _run(config)
        _assert_same_run(trace, records)
        assert f.steps == tuple(r.step for r in records)
        assert f.elements[1:] == tuple((r.i, r.j) for r in records)
        return
    with pytest.raises(type(error), match=f"^{re.escape(str(error))}$"):
        _run(config)
    # The error comes on the step after the last reference record: the same
    # machine stopped one step earlier runs clean and agrees.
    if records:
        prefix = GeneratorConfig(start=config.start, bank=config.bank,
                                 stop=StepCount(len(records)), mode=config.mode)
        _assert_same_run(_run(prefix)[1], records)


@pytest.mark.parametrize("bank, steps", [
    # X starts at 0 and the first step is a j step, which cannot change it.
    (RegisterBank(RX=1, XX=1, Y=1), 1),
    # X starts negative, the first step (i) makes it positive, step 6 ends it.
    (RegisterBank(X=-1, XX=3, XXY=-2, Y=1), 6),
])
def test_watched_register_that_starts_non_positive(bank, steps):
    config = GeneratorConfig(start=(0, 0), bank=bank, stop=WhilePositive("X", 8))
    records, error = _reference(config)
    assert len(records) == steps and error is None
    _assert_same_run(_run(config)[1], records)


_MONOTONE, _HARMONIZED = GenerationMode


@pytest.mark.parametrize("mode, bank, register, steps, axis", [
    # A sign-harmonized regulator never falls, so those two are monotone only.
    (_MONOTONE, RegisterBank(RX=1, RY=5, X=-2, Y=1), "RX", 1, Axis.I),
    (_MONOTONE, RegisterBank(RX=5, RY=3, Y=-2), "RY", 2, Axis.J),
    (_MONOTONE, RegisterBank(X=3, XX=-2, Y=4), "X", 3, Axis.I),
    (_HARMONIZED, RegisterBank(X=3, XX=-2, Y=4), "X", 3, Axis.I),
    (_MONOTONE, RegisterBank(X=5, Y=5, XX=2, XXY=-1), "XX", 3, Axis.J),
    (_HARMONIZED, RegisterBank(X=5, Y=5, XX=2, XXY=-1), "XX", 3, Axis.J),
])
def test_stop_rule_fires_on_either_side(mode, bank, register, steps, axis):
    # The stop test sits only on the side that changes the watched register.
    config = GeneratorConfig(start=(0, 0), bank=bank, stop=WhilePositive(register, 9), mode=mode)
    records, error = _reference(config)
    assert (len(records), records[-1].step.axis, error) == (steps, axis, None)
    _assert_same_run(_run(config)[1], records)


@pytest.mark.parametrize("mode", list(GenerationMode))
def test_zero_constant_rate_moves_plus(mode):
    # X is zero and nothing feeds it: its pair is pruned, yet i steps still
    # move the coordinate by +1 in both modes.
    config = GeneratorConfig(start=(0, 0), bank=RegisterBank(Y=2, RY=5),
                             stop=StepCount(3), mode=mode)
    f, trace = _run(config)
    assert [s.token for s in f.steps] == ["i+", "i+", "i+"]
    assert trace.register_series("RX") == [0, 0, 0]


def test_fed_negative_rate_moves_minus_when_harmonized():
    # X = 0 but XX = -1 feeds it, so X is live and goes negative.
    config = GeneratorConfig(start=(0, 0), bank=RegisterBank(XX=-1, Y=1, RY=5),
                             stop=StepCount(2), mode=GenerationMode.SIGN_HARMONIZED)
    f, trace = _run(config)
    assert [s.token for s in f.steps] == ["i-", "i-"]
    assert trace.register_series("RX") == [1, 3]


@pytest.mark.parametrize("mode", list(GenerationMode))
@pytest.mark.parametrize("bank, context", [
    (RegisterBank(X=CAP, RY=CAP, Y=1), "register overflow in RX += "),
    # Reaching the capacity is fine; one past it is not.
    (RegisterBank(XX=1, X=CAP - 1, RY=CAP), "register overflow in X += XX"),
])
def test_overflow_at_the_reference_step(mode, bank, context):
    config = GeneratorConfig(start=(0, 0), bank=bank, stop=StepCount(3), mode=mode)
    records, error = _reference(config)
    assert type(error) is RegisterOverflowError and len(records) == 1
    with pytest.raises(RegisterOverflowError, match=re.escape(context)):
        _run(config)


def _overflow_cases():
    """(mode, bank, step, message): a bank that overflows at one addition.

    Each cascade pair gets its target at capacity and its source at 1; the
    rank-1 pair of each axis, whose target is a regulator, instead starts
    the regulators at capacity and the rate at 2 (-2 when sign-harmonized,
    where it is the |rate| addition).  Ties pick i steps, RX > RY j steps.
    """
    cases = []
    for mode in GenerationMode:
        harmonized = mode is GenerationMode.SIGN_HARMONIZED
        cases.append((mode, RegisterBank(RX=CAP, RY=-CAP), 1, f"RX - RY: {2 * CAP}"))
        for letter in "XY":
            for source, target in _cascade(letter):
                if target in REGULATORS:
                    values = {"RX": CAP, "RY": CAP - (letter == "Y"),
                              source: -2 if harmonized else 2}
                    context = f"{target} += |{source}|" if harmonized else f"{target} += {source}"
                    value = CAP + 2 - (letter == "Y")
                else:
                    values = {"RX": int(letter == "Y"), target: CAP, source: 1}
                    context, value = f"{target} += {source}", CAP + 1
                cases.append((mode, RegisterBank(**values), 1, f"{context}: {value}"))
        # Second steps: the first one brings the target up to capacity.
        cases.append((mode, RegisterBank(RX=1, XX=CAP - 1, XXY=1), 2, f"XX += XXY: {CAP + 1}"))
        rate = f"|Y|: {CAP + 1}" if harmonized else f"Y: {CAP + 1}"
        cases.append((mode, RegisterBank(RX=CAP, RY=CAP - 3, Y=-2 if harmonized else 2), 2,
                      f"RY += {rate}"))
    return [pytest.param(mode, bank, step, "register overflow in " + message,
                         id=f"{mode.name}-step{step}-{message.split(':')[0]}")
            for mode, bank, step, message in cases]


@pytest.mark.parametrize("mode, bank, step, message", _overflow_cases())
def test_overflow_text_per_addition(mode, bank, step, message):
    # Every checked addition of the kernel, each pinned to the reference's
    # text and step: the run of step - 1 steps is clean, the next one raises.
    config = GeneratorConfig(start=(0, 0), bank=bank, stop=StepCount(3), mode=mode)
    records, error = _reference(config)
    assert (len(records) + 1, type(error), str(error)) == (step, RegisterOverflowError, message)
    if step > 1:
        _run(GeneratorConfig(start=(0, 0), bank=bank, stop=StepCount(step - 1), mode=mode))
    with pytest.raises(RegisterOverflowError) as info:
        _run(GeneratorConfig(start=(0, 0), bank=bank, stop=StepCount(step), mode=mode))
    assert str(info.value) == message


_B = core._BATCH_STEPS


@pytest.mark.parametrize("step, steps", [
    (1, 5),                     # the first step of the first batch
    (_B, _B + 5),               # the last step of a batch
    (_B + 1, _B + 5),           # the first step of a batch
    (_B + 1000, _B + 2000),     # mid-batch
    (_B + 1000, _B + 1000),     # the last step of a run
])
@pytest.mark.parametrize("mode", list(GenerationMode))
def test_overflow_at_batch_edges(mode, step, steps):
    # Every step is an i step and RX moves one unit towards -CAP - 1
    # (monotone: RX += X = -1 with RY = 0) or CAP + 1 (sign-harmonized:
    # RX += |X| below RY = CAP), which it reaches on exactly step ``step``.
    # Each batch before that fits the bound exactly and runs unchecked.
    if mode is GenerationMode.MONOTONE:
        sign, bank, context = -1, RegisterBank(RX=step - CAP - 1, X=-1), "RX += X"
    else:
        sign, bank, context = 1, RegisterBank(RX=CAP + 1 - step, RY=CAP, X=-1), "RX += |X|"
    assert core._batch_fits(list(bank._values), step - 1)
    assert not core._batch_fits(list(bank._values), step)

    def run(count):
        return _run(GeneratorConfig(start=(0, 0), bank=bank, stop=StepCount(count), mode=mode))

    if step > 1:
        f, trace = run(step - 1)
        assert (trace.column("RX")[-1], f.i[-1]) == (sign * CAP, sign * (1 - step))
    with pytest.raises(RegisterOverflowError) as info:
        run(steps)
    assert str(info.value) == f"register overflow in {context}: {sign * (CAP + 1)}"


def _untraced_run(config):
    """(steps run, work registers) after the untraced kernel runs ``config``,
    which watches a work register that starts positive, or none."""
    stop = config.stop
    kernel = core._compile_kernel(*core._shape(config), core._UNTRACED)
    regs = list(config.bank._values)
    steps = kernel.run(regs, stop.cap if isinstance(stop, WhilePositive) else stop.count)
    return steps, regs[2:]


def _traced_counts(config):
    """The same from the traced run; a predicate run that uses up its cap
    counts as the run of that many steps."""
    try:
        _, trace = _run(config)
    except CapExhaustedError:
        _, trace = _run(GeneratorConfig(start=config.start, bank=config.bank,
                                        stop=StepCount(config.stop.cap), mode=config.mode))
    return len(trace), [trace.column(name)[-1] for name in WORK_REGISTERS]


@st.composite
def untraced_configs(draw):
    values = {name: draw(_SMALL) for name in ALL_REGISTERS}
    if draw(st.booleans()):
        stop = StepCount(draw(st.integers(1, 60)))
    else:
        register = draw(st.sampled_from(WORK_REGISTERS))
        values[register] = draw(st.integers(1, 30))
        stop = WhilePositive(register, draw(st.integers(1, 60)))
    return GeneratorConfig(start=(0, 0), bank=RegisterBank(**values), stop=stop,
                           mode=draw(st.sampled_from(list(GenerationMode))))


@settings(max_examples=150, deadline=None)
@given(untraced_configs())
def test_untraced_kernel_matches_the_traced_run(config):
    assert _untraced_run(config) == _traced_counts(config)


# Shapes whose cascades differ: {X, Y}, where both feeds are regulators,
# {XX, XY, Y}, where X is fed on both sides, {XXY, Y}, fed only on j steps,
# {XX, Y}, fed only on i steps, and {XX, YY}, fed on either side alone.
_SHAPES = {
    "line": RegisterBank(X=3, Y=5),
    "two-sided": RegisterBank(X=30, Y=7, XX=-1, XY=-1),
    "sine": RegisterBank(X=40, Y=40, XX=-1, XXY=-1),
    "parabola": RegisterBank(X=1, Y=9, XX=2),
    "conic": RegisterBank(X=2, Y=1, XX=1, YY=3),
}


@pytest.mark.parametrize("mode", list(GenerationMode))
@pytest.mark.parametrize("shape", list(_SHAPES))
@pytest.mark.parametrize("steps", [1, 2, 7, 8])
def test_untraced_counts_per_shape(shape, steps, mode):
    config = GeneratorConfig(start=(0, 0), bank=_SHAPES[shape], stop=StepCount(steps), mode=mode)
    assert _untraced_run(config) == _traced_counts(config)


@pytest.mark.parametrize("shape", ["two-sided", "sine"])
def test_untraced_stop_in_either_half_of_a_pass(shape):
    # The kernel runs two steps per pass; X falls to zero after an odd or an
    # even number of steps, in the first or the second step of a pass.
    parities = set()
    for x in range(1, 60):
        bank = RegisterBank(**{**_SHAPES[shape].as_dict(), "X": x})
        config = GeneratorConfig(start=(0, 0), bank=bank, stop=WhilePositive("X", 999))
        steps, registers = _untraced_run(config)
        assert (steps, registers) == _traced_counts(config)
        assert registers[0] <= 0
        parities.add(steps % 2)
    assert parities == {0, 1}


def test_untraced_loop_cannot_watch_a_regulator():
    # The untraced loop keeps only r = RX - RY.  Watching RY, it would run
    # this bank to its cap at (11, 89); the traced run stops after step 15.
    bank = RegisterBank(RY=10, X=1, Y=-3)
    f, _ = _run(GeneratorConfig(start=(0, 0), bank=bank, stop=WhilePositive("RY", 100)))
    assert (f.length, tuple(f.end)) == (15, (11, 4))
    for register in REGULATORS:
        with pytest.raises(PreconditionError, match=f"cannot watch {register}$"):
            _kernel_of(bank, stop=WhilePositive(register, 100), loop=core._UNTRACED)


# Blocks of core._FREE_STEPS steps with no stop test.  A block runs while the
# cap leaves a whole block and W > B * max(reach of W's feeds), B = _FREE_STEPS.
_BLOCK = core._FREE_STEPS


def _reach(values, name):
    """The most |name| can reach within a block: a step adds one of its feeds
    at most once, so its own magnitude plus B times its feeds' reach."""
    feeds = [] if len(name) == 3 else [name + "X", name + "Y"]
    return abs(values[name]) + _BLOCK * max((_reach(values, f) for f in feeds), default=0)


def _guard_threshold(values, name):
    return _BLOCK * max(_reach(values, name + "X"), _reach(values, name + "Y"))


def _untraced_blocks(config, steps):
    """(steps run, work registers, plain blocks, fused blocks, steps run in
    blocks) of the untraced kernel of ``config`` run for ``steps`` steps.  A
    plain block runs its _FREE_STEPS steps 8 a pass, as one repeat(None,
    _FREE_STEPS >> 3) loop, and a fused block its _FREE_STEPS // 2 units 8 a
    pass, as one repeat(None, _FREE_STEPS >> 4) loop, so a spy on the
    kernel's repeat counts each kind.  The tested loop after the blocks is
    one range call, which starts at the steps run in blocks."""
    kernel = core._compile_kernel(*core._shape(config), core._UNTRACED)
    calls, ranges = [], []

    def spy(value, times):
        calls.append(times)
        return repeat(value, times)

    def range_spy(*args):
        ranges.append(args)
        return range(*args)

    regs = list(config.bank._values)
    with mock.patch.dict(kernel.run.__globals__, repeat=spy, range=range_spy):
        ran = kernel.run(regs, steps)
    done = ranges[0][0]
    return ran, regs[2:], calls.count(_BLOCK >> 3), calls.count(_BLOCK >> 4), done


# The registers a block can watch: each has feeds (rank 3 has none).
_FED = [name for name in WORK_REGISTERS if len(name) < 3]


@st.composite
def block_configs(draw):
    """A large watched register W with small feeds, so that the guard passes:
    W far above the guard runs to its cap in blocks, W a little above it
    stops in the tested loop after a block or two.  The cap ends inside, at
    or just after a block."""
    values = {name: draw(_SMALL) for name in ALL_REGISTERS}
    register = draw(st.sampled_from(_FED))
    values[register + draw(st.sampled_from("XY"))] = draw(st.sampled_from([-3, -1, 1, 2]))
    values[register] = draw(st.one_of(st.integers(2**21, 2**24), st.integers(2**40, 2**45)))
    cap = _BLOCK * draw(st.integers(1, 3)) + draw(st.sampled_from([-1, 0, 1]))
    return GeneratorConfig(start=(0, 0), bank=RegisterBank(**values),
                           stop=WhilePositive(register, cap),
                           mode=draw(st.sampled_from(list(GenerationMode))))


@settings(max_examples=120, deadline=None)
@given(block_configs())
def test_blocks_match_the_traced_run(config):
    assert _untraced_blocks(config, config.stop.cap)[:2] == _traced_counts(config)


@pytest.mark.parametrize("mode", list(GenerationMode))
@pytest.mark.parametrize("register", _FED)
def test_blocks_run_at_every_watched_register(register, mode):
    # Far above the guard, blocks run while the cap leaves a whole one.
    # Monotone, Y (count pair YY -> Y) fuses every block and YX (YXY -> YX)
    # fuses once Y has grown past its bound; X and r stay 0 there, so a
    # fused block is _FREE_STEPS // 2 single i steps.
    values = {name: 0 for name in ALL_REGISTERS}
    values.update({register: 2**40, register + "Y": -1})
    for cap in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 1):
        config = GeneratorConfig(start=(0, 0), bank=RegisterBank(**values),
                                 stop=WhilePositive(register, cap), mode=mode)
        steps, registers, plain, fused, done = _untraced_blocks(config, cap)
        assert (steps, registers) == _traced_counts(config)
        assert 0 <= cap - done < _BLOCK
        assert plain * _BLOCK + fused * (_BLOCK >> 1) == done
        assert not (fused and mode is GenerationMode.SIGN_HARMONIZED)


def _replay(bank, mode, steps):
    """The banks after each of ``steps`` steps of the single-step reference."""
    banks = []
    for _ in range(steps):
        axis = choose_step(bank)
        bank = (apply_step(bank, axis) if mode is GenerationMode.MONOTONE
                else _harmonized_step(bank, axis)[0])
        banks.append(bank)
    return banks


@settings(max_examples=60, deadline=None)
@given(block_configs(), st.integers(-2, 2))
def test_guard_keeps_the_watched_register_positive(config, offset):
    # W at the guard's threshold, give or take two: the kernel runs a block
    # exactly when W is above it, and the block leaves W positive after
    # every one of its steps.
    register = config.stop.register
    values = config.bank.as_dict()
    values[register] = max(1, _guard_threshold(values, register) + offset)
    bank = RegisterBank(**values)
    config = GeneratorConfig(start=(0, 0), bank=bank, stop=WhilePositive(register, _BLOCK),
                             mode=config.mode)
    blocks = sum(_untraced_blocks(config, _BLOCK)[2:4])
    assert blocks == (values[register] > _guard_threshold(values, register))
    if blocks:
        assert min(b.value(register) for b in _replay(bank, config.mode, _BLOCK)) > 0


# A monotone shape with a j-side count pair fuses a block when r <= Ylow
# and Xhigh <= Ylow: Xhigh = X + B * max(reach of X's feeds) and Ylow = Y -
# B * max(reach of Y's feeds).  The count pairs: a source ending in Y feeds
# the name without that letter.
_COUNT_PAIRS = [(name, name[:-1]) for name in WORK_REGISTERS if len(name) > 1 and name[-1] == "Y"]


def _feeding(name):
    """The work registers that feed ``name``, directly or through others."""
    return [other for other in WORK_REGISTERS if other != name and other.startswith(name)]


def _fused_guard(values):
    """(r - Ylow, Xhigh - Ylow): a block can be fused when both are <= 0."""
    low = values["Y"] - _guard_threshold(values, "Y")
    return values["RX"] - values["RY"] - low, values["X"] + _guard_threshold(values, "X") - low


@st.composite
def fused_configs(draw):
    """A monotone bank with a count pair: nothing feeds its source and only
    the source feeds its target.  The watched register W is fed, above its
    guard by a little (it stops after a block or two) or by far (the run
    ends at its cap).  Y is large, and r and Xhigh sit at Ylow - 1, Ylow or
    Ylow + 1.  The cap ends around the edge of a block of _FREE_STEPS or of
    _FREE_STEPS // 2 single steps."""
    source, target = draw(st.sampled_from(_COUNT_PAIRS))
    values = {name: draw(_SMALL) for name in ALL_REGISTERS}
    values.update(dict.fromkeys(_feeding(target), 0))
    values[source] = draw(st.sampled_from([-3, -1, 1, 2]))
    register = draw(st.sampled_from([name for name in _FED if name not in _feeding(target)]))
    if target not in (register, register + "X", register + "Y"):
        values[register + draw(st.sampled_from("XY"))] = draw(st.sampled_from([-3, -1, 1, 2]))
    values[register] = _guard_threshold(values, register) + draw(
        st.one_of(st.integers(1, 2**12), st.integers(2**20, 2**24)))
    values["Y"] = draw(st.integers(2**36, 2**40))
    low = values["Y"] - _guard_threshold(values, "Y")
    values["X"] = low - _guard_threshold(values, "X") + draw(st.sampled_from([-1, 0, 1]))
    values["RX"] = values["RY"] + low + draw(st.sampled_from([-1, 0, 1]))
    cap = draw(st.integers(2, 6)) * (_BLOCK >> 1) + draw(st.sampled_from([-1, 0, 1]))
    return GeneratorConfig(start=(0, 0), bank=RegisterBank(**values),
                           stop=WhilePositive(register, cap))


@settings(max_examples=150, deadline=None)
@given(fused_configs())
def test_fused_blocks_match_the_traced_run(config):
    assert _untraced_blocks(config, config.stop.cap)[:2] == _traced_counts(config)


def _reference_blocks(config):
    """(plain blocks, fused blocks, steps run in blocks) by the block rule,
    walked over the single-step reference, which must never take two j
    steps in a row within a fused block."""
    register, cap = config.stop.register, config.stop.cap
    banks = [config.bank, *_replay(config.bank, config.mode, cap)]
    plain = fused = done = 0
    while cap - done >= _BLOCK:
        values = banks[done].as_dict()
        if values[register] <= _guard_threshold(values, register):
            break
        if max(_fused_guard(values)) > 0:
            plain, done = plain + 1, done + _BLOCK
            continue
        fused, units, after_j = fused + 1, 0, False
        while units < _BLOCK >> 1:
            j = choose_step(banks[done]) is Axis.J
            assert not (j and after_j), done
            units, done, after_j = units + (not j), done + 1, j
    return plain, fused, done


@settings(max_examples=40, deadline=None)
@given(fused_configs())
def test_fused_blocks_run_exactly_when_their_guard_holds(config):
    assert tuple(_untraced_blocks(config, config.stop.cap)[2:]) == _reference_blocks(config)


def _fusing_bank(r=0, high=0):
    """{XY, Y} with the count pair XY -> X, watched at X far above its guard:
    Ylow = Y = 2**30, r = Ylow + ``r`` and Xhigh = X + B = Ylow + ``high``."""
    return RegisterBank(RX=2**30 + r, Y=2**30, X=2**30 - _BLOCK + high, XY=1)


@pytest.mark.parametrize("mode", list(GenerationMode))
@pytest.mark.parametrize("r", [-1, 0, 1])
@pytest.mark.parametrize("high", [-1, 0, 1])
def test_fused_exactly_at_the_guard(r, high, mode):
    # At r = Ylow + 1 a j step leaves r = 1, so the next step is a j step.
    config = GeneratorConfig(start=(0, 0), bank=_fusing_bank(r, high),
                             stop=WhilePositive("X", _BLOCK), mode=mode)
    steps, registers, *blocks = _untraced_blocks(config, _BLOCK)
    assert (steps, registers) == _traced_counts(config)
    fused = r <= 0 and high <= 0 and mode is GenerationMode.MONOTONE
    assert blocks[:2] == [not fused, fused]


@pytest.mark.parametrize("mode", list(GenerationMode))
@pytest.mark.parametrize("feeds", [
    {"XYX": 1},             # XY -> X: the source is fed
    {"XX": 1},              # XY -> X: the target has another feed
    {"XY": 0, "XX": 1},     # no j-side pair at all
])
def test_no_fused_block_without_a_count_pair(feeds, mode):
    values = {**_fusing_bank().as_dict(), **feeds}
    values["X"] -= _fused_guard(values)[1]
    config = GeneratorConfig(start=(0, 0), bank=RegisterBank(**values),
                             stop=WhilePositive("X", _BLOCK), mode=mode)
    steps, registers, *blocks = _untraced_blocks(config, _BLOCK)
    assert (steps, registers) == _traced_counts(config)
    assert blocks == [1, 0, _BLOCK]


@pytest.mark.parametrize("r, size", [
    # X stays below Y - B, so from r = Y - 1 every unit is a j step and the
    # i step it forces; from r = 1 the second unit is an i step alone.
    (2**30 - 1, _BLOCK), (1, _BLOCK - 1)])
@pytest.mark.parametrize("past", [1, 2])
def test_run_ends_just_past_a_fused_block(r, size, past):
    bank = RegisterBank(RX=r, Y=2**30, X=2**30 - 2 * _BLOCK, XY=1)
    config = GeneratorConfig(start=(0, 0), bank=bank, stop=WhilePositive("X", size + past))
    steps, registers, *blocks = _untraced_blocks(config, size + past)
    assert blocks == [0, 1, size]
    assert (steps, registers) == _traced_counts(config)


# 1 049 601 is the first seed the pi guard X > 1024 * (1 + 1024) passes at the
# start.  Each pair of seeds: the last before and the first with one more
# block, or with a run one step past a multiple of _FREE_STEPS.
_BLOCK_EDGES = {1_700_080: 1, 1_700_081: 2, 2_604_051: 2, 2_604_052: 3,
                3_779_171: 3, 3_779_172: 4}
_PAST_A_BLOCK = [1_429_392, 1_429_393, 2_541_142, 2_541_143,
                 3_969_899, 3_969_900, 10_159_929, 10_159_930]


# 7 007 503 is the first seed whose run has a fused block: after five plain
# blocks, at step 5 120, X + 1024 * (|XX| + 1024) <= x0 holds for the first
# time.  Each value is (plain blocks, fused blocks, steps run in blocks).  The
# tested loop counts on from an even total after 7 009 060 and 7 009 061, and
# from an odd one after 7 410 287 and 7 410 288; in each pair the second run
# stops one step later.  A pi run never ends right after a fused block: the
# watched-register guard fails with more than 500 steps to go.
_FUSED_EDGES = {7_007_502: (5, 0, 5120), 7_007_503: (5, 1, 5836),
                7_009_060: (5, 1, 5836), 7_009_061: (5, 1, 5836),
                7_410_287: (5, 1, 5855), 7_410_288: (5, 1, 5855)}


def _assert_pi_seed(x0, steps, registers):
    """The untraced run of seed x0 gives pi_bounds and quarter_wave's corner,
    which brackets pi/2."""
    low, high = machin_pi(40)
    # Only j steps add XXY = -1 into XX, which starts at -1.
    j = -1 - registers[WORK_REGISTERS.index("XX")]
    result = pi_bounds(x0)
    assert (steps - j, j, steps) == (result.i_quarter, result.j_quarter, result.step_count) \
        == quarter_wave(x0), x0
    assert result.lower < Fraction(low, 2 * 10**40), x0
    assert Fraction(high, 2 * 10**40) < result.upper, x0


def test_pi_seeds_around_the_first_block():
    seeds = [*range(1_049_600 - 32, 1_049_600 + 33), *_BLOCK_EDGES, *_PAST_A_BLOCK]
    past = set()
    for x0 in seeds:
        config = harmonic_config(x0)
        steps, registers, plain, fused, _ = _untraced_blocks(config, config.stop.cap)
        if x0 in _BLOCK_EDGES:
            assert (plain, fused) == (_BLOCK_EDGES[x0], 0), x0
        elif x0 < 1_100_000:
            assert (plain, fused) == (x0 > 1_049_600, 0), x0
        _assert_pi_seed(x0, steps, registers)
        past.add(steps % _BLOCK)
    assert past >= {0, 1}


def test_pi_seeds_around_the_first_fused_block():
    for x0 in _FUSED_EDGES:
        config = harmonic_config(x0)
        steps, registers, *blocks = _untraced_blocks(config, config.stop.cap)
        assert tuple(blocks) == _FUSED_EDGES[x0], x0
        _assert_pi_seed(x0, steps, registers)
    ends = [quarter_wave(x0)[2] for x0 in _FUSED_EDGES]
    assert ends[3] == ends[2] + 1 and ends[5] == ends[4] + 1


def _kernel_of(bank, mode=GenerationMode.MONOTONE, stop=StepCount(5), loop=core._TRACED):
    """The ``loop`` kernel of the shape of this bank, mode and stop rule."""
    config = GeneratorConfig(start=(0, 0), bank=bank, stop=stop, mode=mode)
    return core._compile_kernel(*core._shape(config), loop)


def test_kernels_are_compiled_once_per_shape():
    core._compile_kernel.cache_clear()
    first = dict(X=3, Y=5, XX=-1)
    generate(GeneratorConfig(start=(0, 0), bank=RegisterBank(**first), stop=StepCount(5)))
    assert core._compile_kernel.cache_info().misses == 1
    # Other non-zero values, regulators and step counts: the same kernel.
    generate(GeneratorConfig(start=(4, 4), bank=RegisterBank(X=-7, Y=90, XX=2, RX=9),
                             stop=StepCount(8)))
    assert core._compile_kernel.cache_info().misses == 1
    # Both runs fit the bound, so no checked variant was compiled; a bank of
    # the same shape near the cap needs one.
    generate(GeneratorConfig(start=(0, 0), bank=RegisterBank(X=3, Y=5, XX=-1, RY=CAP),
                             stop=StepCount(5)))
    assert core._compile_kernel.cache_info().misses == 2
    kernel = _kernel_of(RegisterBank(**first))
    assert _kernel_of(RegisterBank(X=1, Y=1, XX=1, RY=-3), stop=StepCount(40)) is kernel
    # A new zero pattern, mode or stop register compiles another.
    assert _kernel_of(RegisterBank(X=3, Y=5)) is not kernel
    assert _kernel_of(RegisterBank(X=3, Y=5, XX=-1, XXY=1)) is not kernel
    assert _kernel_of(RegisterBank(**first), mode=GenerationMode.SIGN_HARMONIZED) is not kernel
    assert _kernel_of(RegisterBank(**first), stop=WhilePositive("X", 5)) is not kernel
    assert _kernel_of(RegisterBank(**first), stop=WhilePositive("XX", 5)) \
        is not _kernel_of(RegisterBank(**first), stop=WhilePositive("X", 5))


@settings(max_examples=200, deadline=None)
@given(x=st.integers(1, 10**6), y=st.integers(1, 10**6), n=st.integers(1, 2000),
       start=st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)))
@example(x=1, y=1, n=7, start=(0, 0))
@example(x=3, y=5, n=2000, start=(-40, 17))
def test_line_machine_walks_bresenham(x, y, n, start):
    # {X, Y}: after t steps x*i - y*j lies in (-y, x], which gives the line
    # point i_t = (y*t + x) // (x + y), j_t = t - i_t (Bresenham 1965).
    f, trace = generate(line_config(x, y, n, start=start))
    a, b = start
    steps_i = [(y * t + x) // (x + y) for t in range(n + 1)]
    assert list(f.i) == [a + i for i in steps_i]
    assert list(f.j) == [b + t - i for t, i in enumerate(steps_i)]
    assert list(trace.column("RX")) == [x * i for i in steps_i[1:]]


class TestHarmonicMachine:
    @pytest.mark.parametrize("mode", list(GenerationMode))
    def test_cascade_prunes_to_two_additions(self, mode):
        # A traced step snapshots the regulators and the targets of the live
        # cascade pairs.  In the harmonic shape only XX -> X and XXY -> XX
        # are live besides the rates, which feed the regulators alone.
        kernel = _kernel_of(harmonic_config(100).bank, mode=mode)
        assert kernel.recorded == tuple(core._SLOT[name] for name in ("RX", "RY", "X", "XX"))

    @pytest.mark.parametrize("loop", list(core._LOOPS))
    def test_each_loop_kind_agrees_with_the_run(self, loop):
        # One call of each kernel of the harmonic shape runs the quarter
        # wave, which _run takes in one batch.
        config = harmonic_config(100)
        f, trace = _run(config)
        kernel = _kernel_of(config.bank, stop=config.stop, loop=loop)
        regs, codes, snaps = list(config.bank._values), bytearray(), []
        if loop == core._UNTRACED:
            assert kernel.run(regs, config.stop.cap) == f.length
        else:
            kernel.run(regs, config.stop.cap, codes.append, snaps)
            assert codes == f.codes
            assert snaps == [trace.column(ALL_REGISTERS[slot])[t]
                             for t in range(len(trace)) for slot in kernel.recorded]
        assert regs[2:] == [trace.column(name)[-1] for name in WORK_REGISTERS]

    def test_constant_registers_are_stored_once(self):
        _, trace = generate(harmonic_config(100))
        stored = dict(zip(ALL_REGISTERS, trace.registers))
        assert [name for name, entry in stored.items() if not isinstance(entry, int)] \
            == ["RX", "RY", "X", "XX"]
        assert stored["Y"] == 100 and stored["XXY"] == -1

    def test_trace_storage_per_step(self):
        _, trace = generate(harmonic_config(10**7))
        columns = [trace.i, trace.j] + [e for e in trace.registers if not isinstance(e, int)]
        per_step = (len(trace.codes) + sum(c.itemsize * len(c) for c in columns)) / len(trace)
        assert per_step == 1 + 6 * 8

    def test_traced_run_agrees_with_pi_bounds(self):
        # pi --trace runs this machine under its default cap after pi_bounds,
        # and relies on it stopping on the same step.
        for x0 in [*range(2, 3001), 10**4, 10**7]:
            result = pi_bounds(x0)
            f, _ = generate(harmonic_config(x0))
            assert (f.length, *f.end) == (result.step_count, result.i_quarter,
                                          result.j_quarter), x0


class TestTraceViews:
    def test_records_round_trip_through_columns(self):
        _, trace = generate(harmonic_config(100))
        rebuilt = GenerationTrace(trace.records)
        assert rebuilt == trace
        assert rebuilt[-1] == trace[-1] == trace.records[-1]
        assert trace[2:4] == trace.records[2:4]
        with pytest.raises(IndexError):
            trace[len(trace)]

    def test_constant_columns_are_stored_as_ints(self):
        _, trace = generate(harmonic_config(100))
        expanded = GenerationTrace.from_columns(
            trace.codes, trace.i, trace.j, [trace.column(name) for name in ALL_REGISTERS])
        assert expanded.registers == trace.registers
        assert expanded == trace
        assert GenerationTrace() == GenerationTrace.from_columns(
            bytearray(), array("q"), array("q"), [7] * len(ALL_REGISTERS))

    def test_records_need_consecutive_indices(self):
        record = TraceRecord(2, StepKind(Axis.I, 1), 1, 0, RegisterBank())
        with pytest.raises(PreconditionError, match="step index"):
            GenerationTrace([record])
