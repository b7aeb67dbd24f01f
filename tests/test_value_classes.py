"""The nine frozen value classes: repr text, equality, hashing, immutability,
copying, construction and validation messages."""

import copy
import io
import pickle
from decimal import Decimal
from fractions import Fraction
from functools import partial

import pytest

from intfunc import (
    I_PLUS,
    Axis,
    DifferenceField,
    GenerationMode,
    GenerationTrace,
    GeneratorConfig,
    IntegerFunction,
    IntegerPair,
    IntegerScale,
    PiResult,
    PreconditionError,
    RealSampleSeries,
    RegisterBank,
    RegisterOverflowError,
    ScaledDifference,
    StepCount,
    TraceRecord,
    Viewport,
    WhilePositive,
    apply_step,
    characteristic_indices,
    choose_step,
    class_derivative,
    composite_generate,
    designation_violations,
    difference_field,
    digitize,
    format_bound,
    from_step_sequence,
    full_derivative,
    generate,
    implied_designation,
    occupancy,
    parse_steps,
    refinement_compatible,
    regulator_monotone_check,
    render_ascii,
    render_pbm,
    render_svg,
    scale_difference,
)
from intfunc.curves import (
    egg_figure_config,
    harmonic_config,
    preset_config,
    uniform_motion_config,
)
from intfunc.io import (
    config_from_items,
    format_config,
    function_from_trace,
    parse_config_items,
    parse_rational,
    read_trace,
    trace_for_function,
    write_trace,
)

REGISTERS = ("RX", "RY", "X", "Y", "XX", "XY", "YX", "YY",
             "XXX", "XXY", "XYX", "XYY", "YXX", "YXY", "YYX", "YYY")

# One instance of each class, built twice (equal), and one that differs.
CASES = {
    "RegisterBank": (lambda: RegisterBank(RX=1, YYY=-2), RegisterBank(RX=1, YYY=-3)),
    "StepCount": (lambda: StepCount(3), StepCount(4)),
    "WhilePositive": (lambda: WhilePositive("X", 10), WhilePositive("Y", 10)),
    "GeneratorConfig": (lambda: harmonic_config(10**4), harmonic_config(10**5)),
    "PiResult": (lambda: PiResult(1, 2, Fraction(1, 2), Fraction(3, 2), 3, 0.5),
                 PiResult(1, 2, Fraction(1, 2), Fraction(3, 2), 3, 0.25)),
    "RealSampleSeries": (lambda: RealSampleSeries(((0, 1), (Fraction(1, 2), 2))),
                         RealSampleSeries(((0, 1), (Fraction(1, 3), 2)))),
    "IntegerScale": (lambda: IntegerScale(Fraction(1, 3)), IntegerScale(Fraction(1, 4))),
    "ScaledDifference": (lambda: ScaledDifference(4), ScaledDifference(5)),
    "Viewport": (lambda: Viewport(0, 1, 2, 3), Viewport(0, 1, 2, 3, cell_px=8)),
}

BANK_REPR = ("RegisterBank(RX=0, RY=0, X={X}, Y={Y}, XX={XX}, XY=0, YX=0, YY={YY}, "
             "XXX=0, XXY={XXY}, XYX=0, XYY=0, YXX=0, YXY=0, YYX=0, YYY={YYY})")

REPRS = {
    "RegisterBank": ("RegisterBank(RX=1, RY=0, X=0, Y=0, XX=0, XY=0, YX=0, YY=0, XXX=0, "
                     "XXY=0, XYX=0, XYY=0, YXX=0, YXY=0, YYX=0, YYY=-2)"),
    "StepCount": "StepCount(count=3)",
    "WhilePositive": "WhilePositive(register='X', cap=10)",
    "GeneratorConfig": (
        "GeneratorConfig(start=IntegerPair(i=0, j=0), bank="
        + BANK_REPR.format(X=10000, Y=10000, XX=-1, YY=0, XXY=-1, YYY=0)
        + ", stop=WhilePositive(register='X', cap=416), "
        "mode=<GenerationMode.MONOTONE: 'MONOTONE'>)"),
    "PiResult": ("PiResult(i_quarter=1, j_quarter=2, lower=Fraction(1, 2), "
                 "upper=Fraction(3, 2), step_count=3, elapsed=0.5)"),
    "RealSampleSeries": ("RealSampleSeries(points=((Fraction(0, 1), Fraction(1, 1)), "
                         "(Fraction(1, 2), Fraction(2, 1))))"),
    "IntegerScale": "IntegerScale(unit=Fraction(1, 3))",
    "ScaledDifference": "ScaledDifference(upper=4)",
    "Viewport": "Viewport(i_min=0, i_max=1, j_min=2, j_max=3, cell_px=16)",
}

FIELDS = {
    "RegisterBank": REGISTERS,
    "StepCount": ("count",),
    "WhilePositive": ("register", "cap"),
    "GeneratorConfig": ("start", "bank", "stop", "mode"),
    "PiResult": ("i_quarter", "j_quarter", "lower", "upper", "step_count", "elapsed"),
    "RealSampleSeries": ("points",),
    "IntegerScale": ("unit",),
    "ScaledDifference": ("upper",),
    "Viewport": ("i_min", "i_max", "j_min", "j_max", "cell_px"),
}

NAMES = sorted(CASES)


def _fields(obj):
    return tuple(getattr(obj, name) for name in FIELDS[type(obj).__name__])


@pytest.mark.parametrize("name", NAMES)
def test_repr(name):
    assert repr(CASES[name][0]()) == REPRS[name]


def test_repr_sign_harmonized_config():
    assert repr(egg_figure_config()) == (
        "GeneratorConfig(start=IntegerPair(i=25, j=60), bank="
        + BANK_REPR.format(X=500000, Y=10, XX=-10000, YY=10000, XXY=0, YYY=-125)
        + ", stop=StepCount(count=2000), "
        "mode=<GenerationMode.SIGN_HARMONIZED: 'SIGN_HARMONIZED'>)")


@pytest.mark.parametrize("name", NAMES)
def test_equality_and_hash(name):
    make, other = CASES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(_fields(a))
    assert a != other and not a == other
    assert a != _fields(a)
    assert a.__eq__(_fields(a)) is NotImplemented


def test_classes_with_equal_fields_differ():
    assert StepCount(3) != ScaledDifference(3)
    assert ScaledDifference(3) != StepCount(3)
    assert IntegerScale(Fraction(1, 2)) != RealSampleSeries(())
    assert len({StepCount(3), ScaledDifference(3)}) == 2


@pytest.mark.parametrize("name", NAMES)
def test_frozen(name):
    obj = CASES[name][0]()
    before = repr(obj)
    for field in FIELDS[name]:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(obj, field, 0)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.not_a_field = 0
    assert repr(obj) == before


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda obj: pickle.loads(pickle.dumps(obj))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copy_round_trip(name, clone):
    obj = CASES[name][0]()
    twin = clone(obj)
    assert type(twin) is type(obj)
    assert twin == obj and hash(twin) == hash(obj)
    assert repr(twin) == repr(obj)


@pytest.mark.parametrize("name", NAMES)
def test_match_args(name):
    assert CASES[name][1].__match_args__ == FIELDS[name]


class TestConstruction:
    def test_register_bank(self):
        values = tuple(range(16))
        bank = RegisterBank(*values)
        assert bank == RegisterBank(**dict(zip(REGISTERS, values)))
        assert bank.as_dict() == dict(zip(REGISTERS, values))
        assert RegisterBank() == RegisterBank(*[0] * 16)
        assert RegisterBank.from_mapping({"XY": 5}) == RegisterBank(XY=5)
        with pytest.raises(TypeError):
            RegisterBank(*range(17))
        with pytest.raises(TypeError):
            RegisterBank(Z=1)

    def test_stop_rules(self):
        assert StepCount(3) == StepCount(count=3)
        assert WhilePositive("X", 9) == WhilePositive(register="X", cap=9)
        assert WhilePositive("X", cap=9).cap == 9
        with pytest.raises(TypeError):
            StepCount()
        with pytest.raises(TypeError):
            WhilePositive("X")

    def test_generator_config(self):
        bank, stop = RegisterBank(X=1), StepCount(2)
        config = GeneratorConfig((1, 2), bank, stop)
        assert config == GeneratorConfig(start=IntegerPair(1, 2), bank=bank, stop=stop,
                                         mode=GenerationMode.MONOTONE)
        assert type(config.start) is IntegerPair and config.start == (1, 2)
        assert config.mode is GenerationMode.MONOTONE
        harmonized = GeneratorConfig([1, 2], bank, stop, GenerationMode.SIGN_HARMONIZED)
        assert harmonized.mode is GenerationMode.SIGN_HARMONIZED
        assert type(harmonized.start) is IntegerPair

    def test_pi_result(self):
        args = (1, 2, Fraction(1, 2), Fraction(3, 2), 3, 0.5)
        assert PiResult(*args) == PiResult(**dict(zip(FIELDS["PiResult"], args)))

    def test_real_sample_series(self):
        series = RealSampleSeries([(0, 1), (Fraction(1, 2), 2)])
        assert series == RealSampleSeries(points=((Fraction(0), Fraction(1)),
                                                  (Fraction(1, 2), Fraction(2))))
        assert type(series.points) is tuple
        assert all(type(v) is Fraction for point in series.points for v in point)
        assert len(series) == 2 and len(RealSampleSeries(())) == 0

    def test_integer_scale(self):
        scale = IntegerScale(2)
        assert type(scale.unit) is Fraction and scale == IntegerScale(unit=Fraction(2))
        assert IntegerScale("1/3").unit == Fraction(1, 3)

    def test_scaled_difference(self):
        assert ScaledDifference(upper=4) == ScaledDifference(4)

    def test_viewport(self):
        assert Viewport(0, 1, 2, 3) == Viewport(i_min=0, i_max=1, j_min=2, j_max=3,
                                                cell_px=16)
        assert Viewport(0, 1, 2, 3, 8).cell_px == 8


CAP = 2**63 - 1

VALIDATION = [
    (lambda: RegisterBank(X="1"), PreconditionError, "register X must be an integer, got str"),
    (lambda: RegisterBank(RY=1.0), PreconditionError, "register RY must be an integer, got float"),
    (lambda: RegisterBank(YY=CAP + 1, X="1"), PreconditionError,
     "register X must be an integer, got str"),
    (lambda: RegisterBank(YYY=-CAP - 1), RegisterOverflowError,
     f"register overflow in initial value of YYY: {-CAP - 1}"),
    (lambda: RegisterBank.from_mapping({"Q": 1, "A": 2}), PreconditionError,
     "unknown register name(s): A, Q"),
    (lambda: StepCount(0), PreconditionError, "step count must be a positive integer"),
    (lambda: StepCount(2.0), PreconditionError, "step count must be a positive integer"),
    (lambda: WhilePositive("Q", 5), PreconditionError, "unknown register name: Q"),
    (lambda: WhilePositive("X", 0), PreconditionError, "cap must be a positive integer"),
    (lambda: WhilePositive("Q", 0), PreconditionError, "unknown register name: Q"),
    (lambda: GeneratorConfig((0, 0), RegisterBank(), 5), PreconditionError,
     "stop must be a StepCount or WhilePositive rule"),
    (lambda: PiResult(1, 2, Fraction(3, 2), Fraction(1, 2), 3, 0.5), PreconditionError,
     "bounds must be positive with lower < upper"),
    (lambda: PiResult(1, 2, Fraction(0), Fraction(1, 2), 3, 0.5), PreconditionError,
     "bounds must be positive with lower < upper"),
    (lambda: RealSampleSeries(((0, 0.5),)), PreconditionError,
     "samples must be exact rationals; convert floats explicitly"),
    (lambda: RealSampleSeries(((1, 0), (1, 1))), PreconditionError,
     "sample x values must be strictly increasing"),
    (lambda: IntegerScale(0.5), PreconditionError,
     "scale unit must be exact; pass a Fraction, not a float"),
    (lambda: IntegerScale(0), PreconditionError, "scale unit must be positive"),
    (lambda: IntegerScale(Fraction(-1, 2)), PreconditionError, "scale unit must be positive"),
    (lambda: Viewport(1, 0, 0, 0), PreconditionError, "viewport bounds must satisfy min <= max"),
    (lambda: Viewport(0, 0, 1, 0), PreconditionError, "viewport bounds must satisfy min <= max"),
    (lambda: Viewport(0, 0, 0, 0, cell_px=0), PreconditionError,
     "cell_px must be a positive integer"),
    # bool is an int subclass, but never a size or a bound.
    (lambda: Viewport(0, 1, 0, 1, cell_px=True), PreconditionError,
     "cell_px must be a positive integer"),
    (lambda: Viewport(0, 1, 0, 1, cell_px="16"), PreconditionError,
     "cell_px must be a positive integer"),
    (lambda: Viewport(False, 1, 0, 1), PreconditionError, "viewport bounds must be integers"),
    (lambda: Viewport(0, True, 0, 1), PreconditionError, "viewport bounds must be integers"),
    (lambda: Viewport(0, 1, False, 1), PreconditionError, "viewport bounds must be integers"),
    (lambda: Viewport(0, 1, 0, True), PreconditionError, "viewport bounds must be integers"),
    (lambda: Viewport(0, 1.0, 0, 1), PreconditionError, "viewport bounds must be integers"),
    # A pixel coordinate's text must stay short: cell_px and every bound lie
    # within +/- CAP, as every path position does.
    (lambda: Viewport(0, 1, 0, 1, cell_px=CAP + 1), PreconditionError,
     f"cell_px must be at most {CAP}"),
    (lambda: Viewport(-CAP - 1, 0, 0, 1), PreconditionError,
     f"viewport bounds must lie within +/- {CAP}"),
    (lambda: Viewport(0, CAP + 1, 0, 1), PreconditionError,
     f"viewport bounds must lie within +/- {CAP}"),
    (lambda: Viewport(0, 1, -CAP - 1, 1), PreconditionError,
     f"viewport bounds must lie within +/- {CAP}"),
    (lambda: Viewport(0, 1, 0, CAP + 1), PreconditionError,
     f"viewport bounds must lie within +/- {CAP}"),
]

_PATH = from_step_sequence((0, 0), "i j")
# Every positive-integer refusal, each with zero, a bool and a float.
POSITIVE = [
    (StepCount, "step count"),
    (partial(WhilePositive, "X"), "cap"),
    (partial(difference_field, _PATH, Axis.I), "difference class"),
    (IntegerScale(1).refined, "refinement factor"),
    (partial(refinement_compatible, _PATH, _PATH), "refinement factor m"),
    (partial(Viewport, 0, 1, 0, 1), "cell_px"),
]
VALIDATION += [(partial(build, value), PreconditionError, f"{name} must be a positive integer")
               for build, name in POSITIVE for value in (0, True, 2.0)]


@pytest.mark.parametrize("build, error, message", VALIDATION,
                         ids=[str(n) for n in range(len(VALIDATION))])
def test_validation_message(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


_BANK, _STOP = RegisterBank(X=1, Y=1), StepCount(3)
_START = "start must be a pair of integers"
# Malformed input is refused when the value is built, not by a raw error
# from a later call.
MALFORMED = [
    (lambda: generate(GeneratorConfig((0.5, 0), _BANK, _STOP)), _START),
    (lambda: GeneratorConfig((0, True), _BANK, _STOP), _START),
    (lambda: GeneratorConfig((0, 0, 0), _BANK, _STOP), _START),
    (lambda: GeneratorConfig(0, _BANK, _STOP), _START),
    (lambda: IntegerFunction((0.5, 0)), _START),
    (lambda: IntegerFunction((0, 0, 0)), _START),
    (lambda: IntegerFunction((False, 0)), _START),
    (lambda: from_step_sequence(("a", 0), "i j"), _START),
    (lambda: GeneratorConfig((0, 0), {"X": 1, "Y": 1}, _STOP), "bank must be a RegisterBank"),
    (lambda: GeneratorConfig((0, 0), _BANK, _STOP, mode="MONOTONE"),
     "mode must be a GenerationMode"),
    (lambda: IntegerScale(Fraction(1)).cell_of(0.5, 0.5),
     "cell coordinates must be exact; pass a Fraction or an int, not float"),
    (lambda: IntegerScale(Fraction(1)).cell_of(1, 0.5),
     "cell coordinates must be exact; pass a Fraction or an int, not float"),
    (lambda: IntegerScale(Fraction(1)).cell_of("1", 0),
     "cell coordinates must be exact; pass a Fraction or an int, not str"),
    (lambda: IntegerFunction((0, 0), [I_PLUS, object()]),
     "step 2 is not a unit step (i+, j+, i- or j-)"),
]


@pytest.mark.parametrize("build, message", MALFORMED, ids=[str(n) for n in range(len(MALFORMED))])
def test_malformed_input_is_refused(build, message):
    with pytest.raises(PreconditionError) as info:
        build()
    assert str(info.value) == message


_UNKNOWN, _AXIS = "unknown register name(s): ", "axis must be an Axis"
_SAMPLES, _UNIT = "samples must be (x, y) pairs of rationals", "scale unit must be a rational number"
_BOUND, _F = "bound must be an int or a Fraction", "path must be an IntegerFunction"
_SERIES, _VIEW = RealSampleSeries(((0, 0), (1, 1))), Viewport(0, 1, 0, 1)
_BANK_TYPE, _CONFIG = "bank must be a RegisterBank", "config must be a GeneratorConfig"
_TRACE, _TRACE_TYPE = GenerationTrace(), "trace must be a GenerationTrace"
_DESIGNATION = "designation must be an iterable of register names"
_RECORDS = "records must be an iterable of TraceRecords"
_ENTRIES = "difference field entries must be (coordinate, d) pairs"
_NOT_A_STEP = "step 1 is not a unit step (i+, j+, i- or j-)"
# Each of these used to escape as a raw TypeError, ValueError, KeyError or
# AttributeError from inside the call.
RAW = [
    (lambda: RegisterBank.from_mapping({1: 2}), _UNKNOWN + "1"),
    (lambda: RegisterBank.from_mapping({"Q": 1, 2: 3}), _UNKNOWN + "2, Q"),
    (lambda: RegisterBank.from_mapping([("X", 1), (2, 3)]), _UNKNOWN + "2"),
    (lambda: RegisterBank.from_mapping(5), "registers must be a mapping of names to values"),
    (lambda: _PATH.axis_mask("i"), _AXIS),
    (lambda: characteristic_indices(_PATH, "i"), _AXIS),
    (lambda: difference_field(_PATH, "i", 1), _AXIS),
    (lambda: full_derivative(_PATH, "j"), _AXIS),
    (lambda: class_derivative(_PATH, "i", 1), _AXIS),
    (lambda: generate(harmonic_config(100))[1].regulator_series("i"), _AXIS),
    (lambda: IntegerScale(None), f"{_UNIT}, got None"),
    (lambda: IntegerScale("a"), f"{_UNIT}, got 'a'"),
    (lambda: IntegerScale(Decimal("NaN")), f"{_UNIT}, got Decimal('NaN')"),
    (lambda: RealSampleSeries(((0, None),)), _SAMPLES),
    (lambda: RealSampleSeries(((0, "x"),)), _SAMPLES),
    (lambda: RealSampleSeries(((0,),)), _SAMPLES),
    (lambda: RealSampleSeries(((0, 1, 2),)), _SAMPLES),
    (lambda: RealSampleSeries.from_pairs([(0, 1, 2)]), _SAMPLES),
    (lambda: harmonic_config(2.5), "resolution must be an integer"),
    (lambda: format_bound("x", True), _BOUND),
    (lambda: format_bound(None, True), _BOUND),
    (lambda: format_bound(Decimal("0.5"), True), _BOUND),
    # bool is an int subclass, but never a bound.
    (lambda: format_bound(True, True), _BOUND),
    (lambda: IntegerFunction((0, 0), 5), "steps must be an iterable of unit steps"),
    (lambda: from_step_sequence((0, 0), 5), "steps must be an iterable of unit steps"),
    (lambda: digitize(_SERIES, "x"), "scale must be an IntegerScale"),
    (lambda: digitize("x", IntegerScale(1)), "samples must be a RealSampleSeries"),
    (lambda: render_ascii("x", _VIEW), _F),
    (lambda: render_pbm("x", _VIEW), _F),
    (lambda: render_svg("x", _VIEW), _F),
    (lambda: occupancy("x", _VIEW), _F),
    (lambda: Viewport.around("x"), _F),
    (lambda: render_ascii(_PATH, "x"), "viewport must be a Viewport"),
    (lambda: render_pbm(_PATH, "x"), "viewport must be a Viewport"),
    (lambda: characteristic_indices("x", Axis.I), _F),
    (lambda: refinement_compatible(_PATH, "x", 2), "fine path must be an IntegerFunction"),
    (lambda: refinement_compatible("x", _PATH, 2), "coarse path must be an IntegerFunction"),
    (lambda: difference_field("x", Axis.I, 1), _F),
    (lambda: full_derivative("x", Axis.I), _F),
    (lambda: class_derivative("x", Axis.I, 1), _F),
    (lambda: choose_step(None), _BANK_TYPE),
    (lambda: apply_step(None, Axis.I), _BANK_TYPE),
    (lambda: apply_step(RegisterBank(), "i"), _AXIS),
    (lambda: implied_designation(None), _BANK_TYPE),
    (lambda: designation_violations(5, RegisterBank(), _TRACE), _DESIGNATION),
    (lambda: designation_violations([["X"]], RegisterBank(), _TRACE), _DESIGNATION),
    (lambda: designation_violations({"X"}, RegisterBank(), None), _TRACE_TYPE),
    (lambda: designation_violations({"X"}, None, generate(harmonic_config(100))[1]), _BANK_TYPE),
    (lambda: regulator_monotone_check(None), _TRACE_TYPE),
    (lambda: generate(None), _CONFIG),
    (lambda: composite_generate(None), _CONFIG),
    (lambda: GenerationTrace(5), _RECORDS),
    (lambda: GenerationTrace([object()]), _RECORDS),
    (lambda: GenerationTrace([TraceRecord(1, I_PLUS, 1, 0, None)]), _BANK_TYPE),
    (lambda: parse_steps(5), "step text must be a str"),
    (lambda: uniform_motion_config(None, 1), "uniform motion needs positive step totals"),
    (lambda: DifferenceField(Axis.I, 1, 5), _ENTRIES),
    (lambda: DifferenceField(Axis.I, 1, [(1, 2, 3)]), _ENTRIES),
    (lambda: write_trace(None, io.StringIO()), _TRACE_TYPE),
    # An unhashable step is refused like any other non-step.
    (lambda: IntegerFunction((0, 0), [[1]]), _NOT_A_STEP),
    (lambda: GenerationTrace([TraceRecord(1, [1], 1, 0, RegisterBank())]), _NOT_A_STEP),
    (lambda: read_trace(None), "stream must be an iterable of lines"),
    (lambda: function_from_trace(None), _TRACE_TYPE),
    (lambda: trace_for_function(None), _F),
    (lambda: format_config(None), _CONFIG),
    (lambda: parse_config_items(5), "config lines must be an iterable of str"),
    (lambda: config_from_items(None), "config items must be a mapping of keys to values"),
    (lambda: DifferenceField("i", 1, []), _AXIS),
    (lambda: DifferenceField(Axis.I, "x", []), "difference class must be a positive integer"),
    (lambda: scale_difference("x"), "scaled difference must be an integer"),
    (lambda: parse_config_items([[1]]), "config lines must be an iterable of str"),
    (lambda: parse_config_items(["X=1", b"Y=2"]), "config lines must be an iterable of str"),
    (lambda: parse_rational(None), "rational text must be a str"),
    (lambda: parse_rational(5), "rational text must be a str"),
    (lambda: parse_rational(Fraction(1, 2)), "rational text must be a str"),
    (lambda: preset_config("conic"), "preset 'conic' takes xx, yy, steps, x, y, start "
                                     "(3 required); missing: xx, yy, steps; unknown: none"),
    (lambda: preset_config("line", x=1, y=1, steps=3, nope=1),
     "preset 'line' takes x, y, steps, start (3 required); missing: none; unknown: nope"),
    (lambda: preset_config("egg_figure", steps=5, x=1, a=2),
     "preset 'egg_figure' takes steps (0 required); missing: none; unknown: a, x"),
]


@pytest.mark.parametrize("build, message", RAW, ids=[str(n) for n in range(len(RAW))])
def test_raw_error_is_refused(build, message):
    with pytest.raises(PreconditionError) as info:
        build()
    assert str(info.value) == message


def test_exact_input_is_still_taken():
    assert RegisterBank.from_mapping([("X", 1)]) == RegisterBank(X=1)
    assert IntegerScale(Decimal("0.25")).unit == Fraction(1, 4)
    series = RealSampleSeries((("0", "1/2"), (1, Decimal("1.5"))))
    assert series.points == ((0, Fraction(1, 2)), (1, Fraction(3, 2)))
    assert format_bound(2, True) == "2"
    assert format_bound(Fraction(1, 3), False) == "0.3333333"
