"""Integer-only calculus on lattice paths.

Generates integer functions (4-connected lattice paths) with a ranked
register machine, differentiates them discretely, digitizes real samples
into discrete counterparts, renders unit-square views, and brackets pi/2
with exact rationals.
"""

from .core import (
    ALL_REGISTERS,
    Axis,
    CapExhaustedError,
    GenerationMode,
    GenerationTrace,
    GeneratorConfig,
    InternalConsistencyError,
    IntegerFunction,
    IntegerFunctionError,
    IntegerPair,
    I_MINUS,
    I_PLUS,
    J_MINUS,
    J_PLUS,
    ParseError,
    PreconditionError,
    REGISTER_CAPACITY,
    RegisterBank,
    RegisterOverflowError,
    STEP_CODES,
    StepCount,
    StepKind,
    StopRule,
    TraceRecord,
    WORK_REGISTERS,
    WhilePositive,
    apply_step,
    choose_step,
    designation_violations,
    from_step_sequence,
    generate,
    implied_designation,
    parse_steps,
)
from .calculus import (
    CharacteristicIndex,
    DifferenceField,
    IntegerScale,
    ScaledDifference,
    characteristic_indices,
    class_derivative,
    difference_field,
    full_derivative,
    refinement_compatible,
    regulator_monotone_check,
    scale_difference,
)
from .curves import (
    PRESETS,
    PiResult,
    RealSampleSeries,
    composite_generate,
    digitize,
    egg_figure_config,
    format_bound,
    free_fall_config,
    harmonic_config,
    pi_bounds,
    preset_config,
    sinusoid_figure_config,
    uniform_motion_config,
)
from .render import MAX_GRID_CELLS, Viewport, occupancy, render_ascii, render_pbm, render_svg

__version__ = "0.1.0"

__all__ = [
    "ALL_REGISTERS", "Axis", "CapExhaustedError", "CharacteristicIndex",
    "DifferenceField", "GenerationMode", "GenerationTrace", "GeneratorConfig",
    "IntegerFunction", "IntegerFunctionError", "IntegerPair", "IntegerScale",
    "InternalConsistencyError", "I_MINUS", "I_PLUS", "J_MINUS", "J_PLUS",
    "MAX_GRID_CELLS", "PRESETS", "ParseError", "PiResult", "PreconditionError",
    "REGISTER_CAPACITY", "RealSampleSeries", "RegisterBank",
    "RegisterOverflowError", "STEP_CODES", "ScaledDifference", "StepCount", "StepKind",
    "StopRule", "TraceRecord", "Viewport", "WORK_REGISTERS", "WhilePositive",
    "apply_step", "characteristic_indices", "choose_step", "class_derivative",
    "composite_generate", "designation_violations", "difference_field",
    "digitize", "egg_figure_config", "format_bound", "free_fall_config",
    "from_step_sequence", "full_derivative", "generate", "harmonic_config",
    "implied_designation", "occupancy", "parse_steps", "pi_bounds",
    "preset_config", "refinement_compatible", "regulator_monotone_check",
    "render_ascii", "render_pbm", "render_svg", "scale_difference",
    "sinusoid_figure_config", "uniform_motion_config",
]
