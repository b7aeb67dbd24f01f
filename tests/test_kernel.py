"""The register-machine kernel against the readable single-step API.

Monotone runs are checked against choose_step + apply_step, sign-harmonized
runs against a step written out below; pruned cascades, overflow and cap
errors must not change which step a run fails on.
"""

import re
from array import array

import pytest
from hypothesis import given, settings
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
from intfunc.core import _run
from intfunc.curves import harmonic_config

CAP = REGISTER_CAPACITY


def _cascade(letter):
    # Every work register ending in the letter feeds the name without it,
    # highest rank first; the empty name is the axis' regulator.
    return [(name, name[:-1] or "R" + letter)
            for rank in (3, 2, 1) for name in WORK_REGISTERS
            if len(name) == rank and name.endswith(letter)]


def _add_checked(values, target, amount):
    values[target] += amount
    if abs(values[target]) > CAP:
        raise RegisterOverflowError(f"{target}: {values[target]}")


def _harmonized_step(bank, axis):
    """One sign-harmonized step: the regulator gains |rate| and the
    coordinate moves by the rate's sign (+1 for a zero rate)."""
    values = bank.as_dict()
    *pairs, (rate_name, regulator) = _cascade(axis.letter)
    for source, target in pairs:
        _add_checked(values, target, values[source])
    rate = values[rate_name]
    _add_checked(values, regulator, abs(rate))
    return RegisterBank(**values), 1 if rate >= 0 else -1


def _reference(config):
    """(records, error class or None) of a step-by-step run."""
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
    except RegisterOverflowError:
        return records, RegisterOverflowError
    return records, CapExhaustedError if watched else None


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
def configs(draw):
    values = {name: draw(_SMALL) for name in ALL_REGISTERS}
    for name in draw(st.lists(st.sampled_from(ALL_REGISTERS), max_size=2)):
        values[name] = draw(_EDGE)
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
    records, error = _reference(config)
    if error is None:
        f, trace = _run(config)
        _assert_same_run(trace, records)
        assert f.steps == tuple(r.step for r in records)
        assert f.elements[1:] == tuple((r.i, r.j) for r in records)
        return
    with pytest.raises(error):
        _run(config)
    # The error comes on the step after the last reference record: the same
    # machine stopped one step earlier runs clean and agrees.
    if records:
        prefix = GeneratorConfig(start=config.start, bank=config.bank,
                                 stop=StepCount(len(records)), mode=config.mode)
        _assert_same_run(_run(prefix)[1], records)


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
    assert error is RegisterOverflowError and len(records) == 1
    with pytest.raises(RegisterOverflowError, match=re.escape(context)):
        _run(config)


class TestHarmonicMachine:
    @pytest.mark.parametrize("mode", list(GenerationMode))
    def test_cascade_prunes_to_two_additions(self, mode):
        bank = harmonic_config(100).bank
        fixed = core._constant_registers(bank)
        harmonized = mode is GenerationMode.SIGN_HARMONIZED
        for axis, names in ((Axis.I, ["XX", "X"]), (Axis.J, ["XXY", "Y"])):
            pairs, rate, _, _ = core._compile_side(bank, axis, harmonized, fixed)
            sources = [ALL_REGISTERS[source] for source, _ in pairs]
            if harmonized:
                sources.append(ALL_REGISTERS[rate])
            assert sources == names

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
