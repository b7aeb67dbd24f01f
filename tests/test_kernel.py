"""The register-machine kernel against the readable single-step API.

Monotone runs are checked against choose_step + apply_step, sign-harmonized
runs against a step written out below; pruned cascades, overflow and cap
errors must not change which step a run fails on, or its error text.
"""

import re
from array import array
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
    """(i steps, j steps, work registers) after the untraced kernel runs
    ``config``, which watches a work register that starts positive, or none."""
    stop = config.stop
    kernel = core._compile_kernel(*core._shape(config), core._UNTRACED)
    regs = list(config.bank._values)
    i, j = kernel.run(regs, stop.cap if isinstance(stop, WhilePositive) else stop.count)
    return i, j, regs[2:]


def _traced_counts(config):
    """The same from the traced run; a predicate run that uses up its cap
    counts as the run of that many steps."""
    try:
        _, trace = _run(config)
    except CapExhaustedError:
        _, trace = _run(GeneratorConfig(start=config.start, bank=config.bank,
                                        stop=StepCount(config.stop.cap), mode=config.mode))
    j = sum(code & 1 for code in trace.codes)
    return len(trace) - j, j, [trace.column(name)[-1] for name in WORK_REGISTERS]


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


# Shapes by the pair whose target gives the untraced kernel one side's count:
# none ({X, Y}, where both feeds are regulators, and {XX, XY, Y}, where X is
# fed on both sides), the j side ({XXY, Y}: XX = XX_0 + j XXY), the i side
# ({XX, Y}: X = X_0 + i XX), either side ({XX, YY}).
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
        i, j, registers = _untraced_run(config)
        assert (i, j, registers) == _traced_counts(config)
        assert registers[0] <= 0
        parities.add((i + j) % 2)
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
        # The cached analysis of the harmonic shape, sides in i, j order.
        kernel = _kernel_of(harmonic_config(100).bank, mode=mode)
        harmonized = mode is GenerationMode.SIGN_HARMONIZED
        for (pairs, rate), names in zip(kernel.sides, (["XX", "X"], ["XXY", "Y"])):
            sources = [source for source, _ in pairs]
            if harmonized:
                sources.append(rate)
            assert sources == names

    @pytest.mark.parametrize("loop", list(core._LOOPS))
    def test_each_loop_kind_agrees_with_the_run(self, loop):
        # One call of each kernel of the harmonic shape runs the quarter
        # wave, which _run takes in one batch.
        config = harmonic_config(100)
        f, trace = _run(config)
        kernel = _kernel_of(config.bank, stop=config.stop, loop=loop)
        regs, codes, snaps = list(config.bank._values), bytearray(), []
        if loop == core._UNTRACED:
            assert kernel.run(regs, config.stop.cap) == tuple(f.end)
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
        # pi --trace runs this machine with pi_bounds' step count as its cap.
        for x0 in [*range(2, 3001), 10**4, 10**7]:
            result = pi_bounds(x0)
            f, _ = generate(harmonic_config(x0, cap=result.step_count))
            assert tuple(f.end) == (result.i_quarter, result.j_quarter), x0


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
