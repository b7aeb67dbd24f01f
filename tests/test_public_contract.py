"""One input contract for the public surface.

Every class and function of ``intfunc.__all__``, every public function of
``intfunc.io`` and the alternate constructors below either return or raise
an IntegerFunctionError when any one argument is junk.  Nothing else
escapes, except OSError from a ``path`` that cannot be opened.  VALID holds
one valid call per callable; a callable with no row fails the test, so a new
public name cannot skip the contract.  Each parameter in turn, positional or
keyword, takes each JUNK value in place of its valid one.
"""

import inspect
import io
from fractions import Fraction

import pytest

import intfunc
import intfunc.io
from intfunc import (
    I_PLUS,
    J_PLUS,
    Axis,
    DifferenceField,
    GenerationTrace,
    IntegerFunction,
    IntegerFunctionError,
    IntegerScale,
    RealSampleSeries,
    RegisterBank,
    StepCount,
    Viewport,
    egg_figure_config,
    from_step_sequence,
    generate,
    harmonic_config,
)
from intfunc.io import format_config, write_trace

JUNK = (None, "x", 5, 1.5, object(), [[1]], True, -1, 10**30)

# Enum lookups raise ValueError for a value that names no member, as enum
# defines (Axis("x"), GenerationMode(5)); that is their contract.
EXEMPT = {"Axis", "GenerationMode"}

ALTERNATE_CONSTRUCTORS = (
    (IntegerFunction, "from_codes"),
    (GenerationTrace, "from_columns"),
    (RegisterBank, "from_mapping"),
    (DifferenceField, "from_values"),
    (Viewport, "around"),
)


def _callables() -> dict:
    """Each callable in scope by the name its VALID row has."""
    found = {name: getattr(intfunc, name) for name in intfunc.__all__
             if inspect.isclass(getattr(intfunc, name))
             or inspect.isfunction(getattr(intfunc, name))}
    found.update({f"io.{name}": value for name, value in vars(intfunc.io).items()
                  if not name.startswith("_") and inspect.isfunction(value)
                  and value.__module__ == intfunc.io.__name__})
    found.update({f"{cls.__name__}.{name}": getattr(cls, name)
                  for cls, name in ALTERNATE_CONSTRUCTORS})
    return {name: value for name, value in found.items() if name not in EXEMPT}


def call(*args, **kwargs):
    return args, kwargs


_BANK = RegisterBank(X=1, Y=1)
_PATH = from_step_sequence((0, 0), "i j i i j")
_VIEW = Viewport(0, 3, 0, 2)
_CONFIG, _TRACE = harmonic_config(100), generate(harmonic_config(100))[1]
_LINES = io.StringIO()
write_trace(_TRACE, _LINES)
# The io files a valid call reads; _files writes them in the working directory.
_FILES = {"valid.cfg": format_config(_CONFIG), "valid.csv": _LINES.getvalue(),
          "valid.txt": "0,0\n1/4,3/20\n1/2,3/10\n"}

VALID = {
    "CapExhaustedError": call("message"),
    "CharacteristicIndex": call(1, Axis.I),
    "DifferenceField": call(Axis.I, 1, [(1, 2), (2, 3)]),
    "GenerationTrace": call(_TRACE.records),
    "GeneratorConfig": call((0, 0), _BANK, StepCount(3)),
    "IntegerFunction": call((0, 0), (I_PLUS, J_PLUS)),
    "IntegerFunctionError": call("message"),
    "IntegerPair": call(1, 2),
    "IntegerScale": call(Fraction(1, 4)),
    "InternalConsistencyError": call("message"),
    "ParseError": call("message"),
    "PiResult": call(15, 9, Fraction(14, 9), Fraction(16, 9), 24, 0.0),
    "PreconditionError": call("message"),
    "RealSampleSeries": call(((0, 0), (1, 1))),
    "RegisterBank": call(X=1, Y=1),
    "RegisterOverflowError": call("message"),
    "ScaledDifference": call(3),
    "StepCount": call(3),
    "StepKind": call(Axis.I, 1),
    "TraceRecord": call(1, I_PLUS, 1, 0, RegisterBank()),
    "Viewport": call(0, 3, 0, 2),
    "WhilePositive": call("X", 10),
    "apply_step": call(_BANK, Axis.I),
    "characteristic_indices": call(_PATH, Axis.I),
    "choose_step": call(_BANK),
    "class_derivative": call(_PATH, Axis.I, 1),
    "composite_generate": call(egg_figure_config(20)),
    "designation_violations": call({"XXY", "Y"}, _CONFIG.bank, _TRACE),
    "difference_field": call(_PATH, Axis.I, 1),
    "digitize": call(RealSampleSeries(((0, 0), (1, 1))), IntegerScale(1)),
    "egg_figure_config": call(20),
    "format_bound": call(Fraction(16, 9), True),
    "free_fall_config": call(2, 3, 10),
    "from_step_sequence": call((0, 0), "i j i"),
    "full_derivative": call(_PATH, Axis.I),
    "generate": call(_CONFIG),
    "harmonic_config": call(100),
    "implied_designation": call(_CONFIG.bank),
    "occupancy": call(_PATH, _VIEW),
    "parse_steps": call("i j i"),
    "pi_bounds": call(100),
    "preset_config": call("line", x=1, y=1, steps=3),
    "refinement_compatible": call(_PATH, _PATH, 1),
    "regulator_monotone_check": call(_TRACE),
    "render_ascii": call(_PATH, _VIEW),
    "render_pbm": call(_PATH, _VIEW),
    "render_svg": call(_PATH, _VIEW, "1 unit"),
    "sinusoid_figure_config": call(20),
    "uniform_motion_config": call(5, 3),
    "io.config_from_items": call({"X": "1", "Y": "1", "STOP": "COUNT", "CAP": "3"}),
    "io.format_config": call(_CONFIG),
    "io.function_from_trace": call(_TRACE),
    "io.output_file": call("out.txt"),
    "io.parse_config_items": call(["X=1", "Y=1", "STOP=COUNT", "CAP=3"]),
    "io.parse_rational": call("3/4"),
    "io.read_config": call("valid.cfg", ["CAP=50"]),
    "io.read_samples_file": call("valid.txt"),
    "io.read_trace": call(_LINES.getvalue().splitlines(keepends=True)),
    "io.read_trace_file": call("valid.csv"),
    "io.trace_for_function": call(_PATH),
    "io.write_trace": call(_TRACE, io.StringIO()),
    "io.write_trace_file": call(_TRACE, "out.csv"),
    "IntegerFunction.from_codes": call((0, 0), b"\0\1"),
    "GenerationTrace.from_columns": call(b"\0", [1], [0], [0] * 16),
    "RegisterBank.from_mapping": call({"X": 1}),
    "DifferenceField.from_values": call(Axis.I, 1, 1, (2, 3)),
    "Viewport.around": call(_PATH),
}

CALLABLES = _callables()


def _places(func, args, kwargs) -> list:
    """Each argument place of ``func`` as (parameter name, index in args or
    keyword): the parameters of its signature, and the keys of ``kwargs``
    that a ``**`` parameter takes.  An exception class has no signature
    (BaseException takes any arguments), so its places are those of args."""
    try:
        parameters = list(inspect.signature(func).parameters.values())
    except ValueError:
        return [(f"args[{n}]", n) for n in range(len(args))]
    names = {p.name for p in parameters}
    places = []
    for n, p in enumerate(parameters):
        if p.kind is p.VAR_KEYWORD:
            places += [(key, key) for key in kwargs if key not in names]
        else:
            places.append((p.name, n if n < len(args) else p.name))
    return places


def _invoke(func, args, kwargs) -> None:
    result = func(*args, **kwargs)
    if func is intfunc.io.output_file:
        with result:
            pass


@pytest.fixture
def _files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in _FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")


def test_every_callable_has_one_valid_call():
    assert sorted(set(CALLABLES) - set(VALID)) == []
    assert sorted(set(VALID) - set(CALLABLES)) == []


@pytest.mark.parametrize("name", sorted(CALLABLES))
def test_junk_raises_only_the_package_errors(name, _files):
    func, (args, kwargs) = CALLABLES[name], VALID[name]
    _invoke(func, args, kwargs)
    escaped = []
    for parameter, place in _places(func, args, kwargs):
        allowed = (IntegerFunctionError, OSError) if parameter == "path" else IntegerFunctionError
        for junk in JUNK:
            if isinstance(place, int):
                bad_args, bad_kwargs = args[:place] + (junk,) + args[place + 1:], kwargs
            else:
                bad_args, bad_kwargs = args, {**kwargs, place: junk}
            try:
                _invoke(func, bad_args, bad_kwargs)
            except allowed:
                pass
            except Exception as error:
                escaped.append(f"{name}({parameter}={junk!r}) raised "
                               f"{type(error).__name__}: {error}")
    assert not escaped, "\n".join(escaped)
