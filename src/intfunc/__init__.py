"""Integer-only calculus on lattice paths.

Generates integer functions (4-connected lattice paths) with a ranked
register machine, differentiates them discretely, digitizes real samples
into discrete counterparts, renders unit-square views, and brackets pi/2
with exact rationals.

Names load on first use: ``import intfunc`` imports no submodule, and the
first ``intfunc.X`` or ``from intfunc import X`` imports the module that
defines X (PEP 562), so a command pays only for the modules it runs.
"""

__version__ = "0.1.0"

# The module that defines each public name.
_HOMES = {
    "core": (
        "ALL_REGISTERS", "Axis", "CapExhaustedError", "GenerationMode",
        "GenerationTrace", "GeneratorConfig", "InternalConsistencyError",
        "IntegerFunction", "IntegerFunctionError", "IntegerPair", "I_MINUS",
        "I_PLUS", "J_MINUS", "J_PLUS", "ParseError", "PreconditionError",
        "REGISTER_CAPACITY", "RegisterBank", "RegisterOverflowError",
        "STEP_CODES", "StepCount", "StepKind", "StopRule", "TraceRecord",
        "WORK_REGISTERS", "WhilePositive", "apply_step", "choose_step",
        "composite_generate", "designation_violations", "from_step_sequence",
        "generate", "implied_designation", "parse_steps",
    ),
    "calculus": (
        "CharacteristicIndex", "DifferenceField", "ScaledDifference",
        "characteristic_indices", "class_derivative", "difference_field",
        "full_derivative", "refinement_compatible", "regulator_monotone_check",
    ),
    "curves": (
        "IntegerScale", "PRESETS", "PiResult", "RealSampleSeries", "digitize",
        "egg_figure_config", "format_bound", "free_fall_config",
        "harmonic_config", "pi_bounds", "preset_config",
        "sinusoid_figure_config", "uniform_motion_config",
    ),
    "render": (
        "MAX_GRID_CELLS", "Viewport", "occupancy", "render_ascii",
        "render_pbm", "render_svg",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def _submodule(module: str):
    # __import__ is what an import statement calls; python -X importtime
    # reports only modules loaded through it, not through importlib.
    return __import__(module, globals(), None, ("__name__",), 1)


def __getattr__(name: str):
    if name in _HOMES:
        # intfunc.core and the rest stay reachable after a bare
        # `import intfunc`, as when this package imported them itself.
        return _submodule(name)
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(_submodule(home), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_HOMES})
