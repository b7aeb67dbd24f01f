"""The register machine that generates integer functions.

An integer function (IF) is a finite 4-connected lattice path: a sequence of
integer pairs in which consecutive pairs differ by exactly 1 in exactly one
coordinate.  The generator drives such paths from a bank of 16 registers: two
regulators (RX, RY) whose comparison picks the next step axis, and 14 ranked
work registers that feed each other in a fixed cascade.

choose_step and apply_step run one step on a RegisterBank; they are the
readable reference.  Runs go through one step loop, which _kernel_source
writes as Python source per kernel key with the live registers as locals
and _compile_kernel compiles when first needed and caches: generate,
composite_generate, curves.pi_bounds and io.read_trace, which replays the
machine over a trace file, all run it.  The key is a machine shape (the
bank's dead registers, the mode and the watched register; see _shape) plus
one of three loop kinds: untraced, traced or checked.  The dead registers
(see _dead_registers) are all of a bank that the source reads, so banks that
differ only in a live zero register share a kernel.
tests/kernel_sources.sha256 pins the source of every key.
"""

from __future__ import annotations

import enum
import struct
from array import array
from collections.abc import Iterable
from functools import lru_cache
from itertools import accumulate, compress, count, islice, repeat
from operator import attrgetter, not_
from typing import Iterator, NamedTuple, Union

#: Register values are kept inside +/- REGISTER_CAPACITY.  Arithmetic is exact
#: (Python ints); exceeding the capacity raises instead of wrapping.
REGISTER_CAPACITY = 2**63 - 1

WORK_REGISTERS = (
    "X", "Y",
    "XX", "XY", "YX", "YY",
    "XXX", "XXY", "XYX", "XYY", "YXX", "YXY", "YYX", "YYY",
)
REGULATORS = ("RX", "RY")
ALL_REGISTERS = REGULATORS + WORK_REGISTERS
_SLOT = {name: n for n, name in enumerate(ALL_REGISTERS)}
_UNTRACED, _TRACED, _CHECKED = "untraced", "traced", "checked"
#: The step loop kinds of _kernel_source, each with whether it is traced and checked.
_LOOPS = {_UNTRACED: (False, False), _TRACED: (True, False), _CHECKED: (True, True)}


class IntegerFunctionError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(IntegerFunctionError):
    """Malformed textual input (step strings, config or trace files)."""


class RegisterOverflowError(IntegerFunctionError):
    """A register operation left the +/- REGISTER_CAPACITY range."""


class CapExhaustedError(IntegerFunctionError):
    """A predicate stop rule hit its step cap before the predicate fired."""


class PreconditionError(IntegerFunctionError):
    """An operation was called with inputs outside its contract."""


class InternalConsistencyError(IntegerFunctionError):
    """The generator violated one of its own structural guarantees."""


class Axis(enum.Enum):
    I = "i"
    J = "j"

    @property
    def letter(self) -> str:
        """Work-register letter that fires on steps of this axis."""
        return "X" if self is Axis.I else "Y"

    @property
    def regulator(self) -> str:
        return "RX" if self is Axis.I else "RY"


class StepKind(NamedTuple):
    """One lattice move: an axis and a +/-1 direction."""

    axis: Axis
    sign: int

    @property
    def token(self) -> str:
        return self.axis.value + ("+" if self.sign > 0 else "-")


I_PLUS = StepKind(Axis.I, 1)
I_MINUS = StepKind(Axis.I, -1)
J_PLUS = StepKind(Axis.J, 1)
J_MINUS = StepKind(Axis.J, -1)

#: A step's Freeman chain code is its index here: 0 = i+, 1 = j+, 2 = i-, 3 = j-.
STEP_CODES = (I_PLUS, J_PLUS, I_MINUS, J_MINUS)

# Direction suffixes accepted in step strings; a bare letter means +.
_SIGN_SUFFIXES = {"": 1, "+": 1, "⁺": 1, "-": -1, "−": -1, "⁻": -1}


def parse_steps(text: str) -> tuple[StepKind, ...]:
    """Parse a whitespace- or comma-separated step string like "i j i j i-"."""
    _check_type(text, str, "step text must be a str")
    steps = []
    for token in text.replace(",", " ").split():
        axis_char, suffix = token[0], token[1:]
        if axis_char not in ("i", "j") or suffix not in _SIGN_SUFFIXES:
            raise ParseError(f"invalid step token {token!r}")
        steps.append(StepKind(Axis(axis_char), _SIGN_SUFFIXES[suffix]))
    return tuple(steps)


class IntegerPair(NamedTuple):
    i: int
    j: int


# bytes.translate tables by step code: the move along i and along j as signed
# bytes (0xff = -1), and 0/1 flags per axis (i steps even codes, j steps odd).
_I_MOVES = bytes([1, 0, 0xFF, 0]) + bytes(252)
_J_MOVES = bytes([0, 1, 0, 0xFF]) + bytes(252)
_AXIS_MASKS = {Axis.I: bytes([1, 0, 1, 0]) + bytes(252),
               Axis.J: bytes([0, 1, 0, 1]) + bytes(252)}
_TRANSPOSED = bytes([1, 0, 3, 2]) + bytes(252)


def _step_codes(steps) -> bytes:
    """The code of each of ``steps``: its index in STEP_CODES, or 4, which
    IntegerFunction.from_codes refuses, for anything else.  The steps are
    found by equality, not hashed, so an unhashable item is refused too."""
    return bytes(STEP_CODES.index(step) if step in STEP_CODES else 4 for step in steps)


def _int64s(values: list[int]) -> array:
    """An array('q') of ``values``, packed by one struct call, which takes
    about half the time of array('q', values) for values under 2**32.  A
    value beyond 64 bits raises struct.error.  The copy ([:]) is allocated
    to size: array('q', bytes) keeps 1/16 more for growth, which a trace
    would keep."""
    return array("q", struct.pack(f"{len(values)}q", *values))[:]


def _walk(origin: int, codes: bytes, moves: bytes) -> array:
    """One coordinate of a path: ``origin``, then its value after each step."""
    try:
        column = _int64s(list(accumulate(array("b", codes.translate(moves)), initial=origin)))
        # array('q') also holds -2**63; only a path that can get there is scanned.
        if origin - len(codes) >= -REGISTER_CAPACITY or min(column) >= -REGISTER_CAPACITY:
            return column
    except (OverflowError, struct.error):
        pass
    raise PreconditionError(f"path positions must lie within +/- {REGISTER_CAPACITY}")


class IntegerFunction:
    """A finite lattice path: a start pair plus a sequence of unit steps.

    ``codes`` holds one Freeman chain code per step (its index in STEP_CODES)
    and ``i``, ``j`` are array('q') columns of the n + 1 element coordinates,
    built from the codes; positions must lie within +/- REGISTER_CAPACITY.
    ``steps`` and ``elements`` are tuple views built on read.
    """

    __slots__ = ("start", "codes", "i", "j")

    def __init__(self, start, steps=()):
        _check_type(steps, Iterable, "steps must be an iterable of unit steps")
        self._fill(start, _step_codes(steps))

    @classmethod
    def from_codes(cls, start, codes: bytes) -> "IntegerFunction":
        """The path from ``start`` through the steps of ``codes``."""
        f = cls.__new__(cls)
        f._fill(start, bytes(codes))
        return f

    def _fill(self, start, codes: bytes) -> None:
        if bad := codes.translate(None, b"\0\1\2\3"):
            raise PreconditionError(
                f"step {codes.index(bad[0]) + 1} is not a unit step (i+, j+, i- or j-)")
        self.start, self.codes = _start(start), codes
        self.i, self.j = _walk(self.start.i, codes, _I_MOVES), _walk(self.start.j, codes, _J_MOVES)

    @property
    def steps(self) -> tuple[StepKind, ...]:
        return tuple(map(STEP_CODES.__getitem__, self.codes))

    @property
    def elements(self) -> tuple[IntegerPair, ...]:
        # tuple.__new__ builds each IntegerPair without the Python-level
        # NamedTuple constructor, which would double the cost per element.
        return tuple(map(tuple.__new__, repeat(IntegerPair), zip(self.i, self.j)))

    @property
    def length(self) -> int:
        """Number of steps (one less than the number of elements)."""
        return len(self.codes)

    @property
    def end(self) -> IntegerPair:
        return IntegerPair(self.i[-1], self.j[-1])

    def is_monotone(self) -> bool:
        return 2 not in self.codes and 3 not in self.codes

    def axis_mask(self, axis: Axis) -> bytes:
        """One byte per step: 1 where the step moved ``axis``, else 0."""
        _check_type(axis, Axis, "axis must be an Axis")
        return self.codes.translate(_AXIS_MASKS[axis])

    def transposed(self) -> "IntegerFunction":
        """Swap the roles of the two coordinates (i <-> j)."""
        f = IntegerFunction.__new__(IntegerFunction)
        f.start, f.i, f.j = IntegerPair(self.start.j, self.start.i), self.j, self.i
        f.codes = self.codes.translate(_TRANSPOSED)
        return f

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntegerFunction):
            return NotImplemented
        return self.start == other.start and self.codes == other.codes

    def __hash__(self) -> int:
        return hash((self.start, self.codes))

    def __repr__(self) -> str:
        return (f"IntegerFunction(start={tuple(self.start)}, "
                f"length={self.length}, end={tuple(self.end)})")


def from_step_sequence(start, steps) -> IntegerFunction:
    """Build an integer function from a start pair and steps.

    ``steps`` may be StepKind instances or a step string such as
    "i j i j i i j" (see parse_steps).
    """
    if isinstance(steps, str):
        steps = parse_steps(steps)
    return IntegerFunction(start, steps)


def _overflow(context: str, value: int) -> RegisterOverflowError:
    return RegisterOverflowError(f"register overflow in {context}: {value}")


def _cap_exhausted(register: str, steps: int) -> CapExhaustedError:
    return CapExhaustedError(f"{register} still positive after {steps} steps (cap exhausted)")


def _checked(value: int, context: str) -> int:
    if value > REGISTER_CAPACITY or value < -REGISTER_CAPACITY:
        raise _overflow(context, value)
    return value


def _is_int(value) -> bool:
    """Whether ``value`` is an int; a bool is never a count, value or bound."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_type(value, kind, message: str) -> None:
    """Refuse with ``message`` a ``value`` that is not an instance of ``kind``
    (a type or a tuple of types)."""
    if not isinstance(value, kind):
        raise PreconditionError(message)


def _check_positive(value, name: str) -> None:
    """Refuse a ``value`` that is not a positive int."""
    if not _is_int(value) or value < 1:
        raise PreconditionError(f"{name} must be a positive integer")


def _start(start) -> IntegerPair:
    """``start`` as an IntegerPair; anything but a tuple or list of two ints
    is refused."""
    if not (isinstance(start, (tuple, list)) and len(start) == 2 and all(map(_is_int, start))):
        raise PreconditionError("start must be a pair of integers")
    return IntegerPair(*start)


class _Frozen:
    """Base of the immutable value classes, which behave as frozen dataclasses.

    The fields are the subclass's ``__slots__``, in order: equality (same
    class only), hash, repr, copy and pickle go through them.  Assigning or
    deleting an attribute raises AttributeError; a subclass's ``__init__``
    sets its fields through ``object.__setattr__``, as ``_set`` does.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = fields = cls.__slots__
        get = attrgetter(*fields)
        # The field values, as a tuple also for a single field.
        cls._values = property(get if len(fields) > 1 else lambda self: (get(self),))

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self.__slots__, self._values)
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values


class RegisterBank(_Frozen):
    """State of the 16 generator registers, each an int within +/-
    REGISTER_CAPACITY (default 0).

    The rank of a work register is the length of its identifier.  On a step
    with letter L (X for i steps, Y for j steps) every work register whose
    name ends in L is added into the register named by dropping that letter;
    the empty prefix maps to the step axis' regulator.
    """

    __slots__ = ALL_REGISTERS

    def __init__(self, RX=0, RY=0, X=0, Y=0, XX=0, XY=0, YX=0, YY=0,
                 XXX=0, XXY=0, XYX=0, XYY=0, YXX=0, YXY=0, YYX=0, YYY=0):
        values = (RX, RY, X, Y, XX, XY, YX, YY, XXX, XXY, XYX, XYY, YXX, YXY, YYX, YYY)
        for name, value in zip(ALL_REGISTERS, values):
            if not _is_int(value):
                raise PreconditionError(
                    f"register {name} must be an integer, got {type(value).__name__}")
            _checked(value, f"initial value of {name}")
            object.__setattr__(self, name, value)

    @classmethod
    def from_mapping(cls, mapping) -> "RegisterBank":
        """A bank from a mapping, or pairs, of register names to values."""
        try:
            values = dict(mapping)
        except (TypeError, ValueError):
            raise PreconditionError("registers must be a mapping of names to values") from None
        # A name that is not a str is unknown too; names are listed by their text.
        unknown = sorted(map(str, set(values) - set(ALL_REGISTERS)))
        if unknown:
            raise PreconditionError(f"unknown register name(s): {', '.join(unknown)}")
        return cls(**values)

    def value(self, name: str) -> int:
        if name not in ALL_REGISTERS:
            raise PreconditionError(f"unknown register name: {name}")
        return getattr(self, name)

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in ALL_REGISTERS}


def _cascade_pairs(letter: str) -> tuple[tuple[str, str], ...]:
    # Highest rank first: within one step every updated value feeds the next
    # addition down the chain (XX += XXX runs before X += XX before RX += X).
    pairs = []
    for rank in (3, 2, 1):
        for name in WORK_REGISTERS:
            if len(name) == rank and name.endswith(letter):
                target = name[:-1] or ("RX" if letter == "X" else "RY")
                pairs.append((name, target))
    return tuple(pairs)


_CASCADES = {"X": _cascade_pairs("X"), "Y": _cascade_pairs("Y")}


def choose_step(bank: RegisterBank) -> Axis:
    """Pick the next step axis by comparing the regulators.

    A j step is taken only when RX - RY is strictly positive; ties fall to
    the i side.
    """
    _check_type(bank, RegisterBank, "bank must be a RegisterBank")
    return Axis.J if _checked(bank.RX - bank.RY, "RX - RY") > 0 else Axis.I


def apply_step(bank: RegisterBank, axis: Axis) -> RegisterBank:
    """Run the register cascade for one step of the given axis.

    Pure: returns a new bank, leaving the input untouched.
    """
    _check_type(bank, RegisterBank, "bank must be a RegisterBank")
    _check_type(axis, Axis, "axis must be an Axis")
    values = bank.as_dict()
    for source, target in _CASCADES[axis.letter]:
        values[target] = _checked(values[target] + values[source],
                                  f"{target} += {source}")
    return RegisterBank(**values)


class StepCount(_Frozen):
    """Stop after exactly ``count`` steps."""

    __slots__ = ("count",)

    def __init__(self, count: int):
        _check_positive(count, "step count")
        self._set(count)


class WhilePositive(_Frozen):
    """Stop after the step that leaves ``register`` non-positive.

    The predicate is checked after every step, so the terminating step is
    included in the run.  ``cap`` bounds the run even if the register never
    goes non-positive; hitting it raises CapExhaustedError.
    """

    __slots__ = ("register", "cap")

    def __init__(self, register: str, cap: int):
        if register not in ALL_REGISTERS:
            raise PreconditionError(f"unknown register name: {register}")
        _check_positive(cap, "cap")
        self._set(register, cap)


StopRule = Union[StepCount, WhilePositive]


class GenerationMode(enum.Enum):
    MONOTONE = "MONOTONE"
    SIGN_HARMONIZED = "SIGN_HARMONIZED"


class GeneratorConfig(_Frozen):
    """A generator run: start pair, initial bank, stop rule and mode."""

    __slots__ = ("start", "bank", "stop", "mode")

    def __init__(self, start: IntegerPair, bank: RegisterBank, stop: StopRule,
                 mode: GenerationMode = GenerationMode.MONOTONE):
        start = _start(start)
        _check_type(bank, RegisterBank, "bank must be a RegisterBank")
        _check_type(stop, (StepCount, WhilePositive),
                    "stop must be a StepCount or WhilePositive rule")
        _check_type(mode, GenerationMode, "mode must be a GenerationMode")
        self._set(start, bank, stop, mode)


class TraceRecord(NamedTuple):
    """State after one executed step: its index, kind, position and bank."""

    k: int
    step: StepKind
    i: int
    j: int
    bank: RegisterBank


def _path_through(codes, i, j) -> IntegerFunction:
    """The path that walks ``codes`` and stands at (i[t], j[t]) after step t + 1.

    It starts one step back from the first position (at the origin when
    there are no steps).  IntegerFunction.from_codes checks the codes and the
    position range; a position that does not follow from its step raises
    PreconditionError naming that step.
    """
    start = (0, 0)
    if codes:
        # Undo the first step: its move along each axis is a signed byte.
        start = (i[0] - int.from_bytes(codes[:1].translate(_I_MOVES), "big", signed=True),
                 j[0] - int.from_bytes(codes[:1].translate(_J_MOVES), "big", signed=True))
    path = IntegerFunction.from_codes(start, codes)
    # Equal array('q') columns compare in C; anything else is scanned.
    if not (path.i[1:] == i and path.j[1:] == j):
        walked = zip(islice(path.i, 1, None), islice(path.j, 1, None))
        for k, position, given in zip(count(1), walked, zip(i, j)):
            if position != given:
                raise PreconditionError(f"position {given} does not follow from step {k}")
    return path


class GenerationTrace:
    """Per-step state of a generator run: the path it walked plus registers.

    ``path`` is the IntegerFunction the run walked.  ``codes`` (one Freeman
    chain code per step, see STEP_CODES) and ``i``, ``j`` (the position after
    each step) are read-only views of it.  ``registers`` has one entry per
    name in ALL_REGISTERS: an array('q') column of the value after each
    step, or a single int for a register that holds one value throughout.
    TraceRecord and RegisterBank views are built only when ``records``,
    iteration or indexing asks for them.
    """

    __slots__ = ("path", "registers")

    def __init__(self, records=()):
        _check_type(records, Iterable, "records must be an iterable of TraceRecords")
        records = tuple(records)
        for k, record in enumerate(records, start=1):
            _check_type(record, TraceRecord, "records must be an iterable of TraceRecords")
            _check_type(record.bank, RegisterBank, "bank must be a RegisterBank")
            if record.k != k:
                raise PreconditionError(
                    f"trace record {k} carries step index {record.k}")
        codes = _step_codes(r.step for r in records)
        trace = self.from_columns(codes, [r.i for r in records], [r.j for r in records], [
            array("q", [r.bank.value(name) for r in records]) for name in ALL_REGISTERS])
        self.path, self.registers = trace.path, trace.registers

    @staticmethod
    def from_columns(codes, i, j, registers) -> "GenerationTrace":
        """The trace whose ``codes``, ``i``, ``j`` and ``registers`` are these
        (see the class docstring); register values are not checked."""
        return _Parts().add(_path_through(codes, i, j), registers).trace()

    @property
    def codes(self) -> bytes:
        return self.path.codes

    @property
    def i(self) -> memoryview:
        return memoryview(self.path.i).toreadonly()[1:]

    @property
    def j(self) -> memoryview:
        return memoryview(self.path.j).toreadonly()[1:]

    def __len__(self) -> int:
        return len(self.path.codes)

    def _record(self, t: int) -> TraceRecord:
        values = {name: entry if isinstance(entry, int) else entry[t]
                  for name, entry in zip(ALL_REGISTERS, self.registers)}
        path = self.path
        return TraceRecord(t + 1, STEP_CODES[path.codes[t]], path.i[t + 1], path.j[t + 1],
                           RegisterBank(**values))

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(self._record, range(len(self)))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self._record, range(len(self))[index]))
        return self._record(range(len(self))[index])

    @property
    def records(self) -> tuple[TraceRecord, ...]:
        return tuple(self)

    def column(self, name: str) -> array:
        """Values of one register after each step."""
        if name not in ALL_REGISTERS:
            raise PreconditionError(f"unknown register name: {name}")
        return _column(self.registers[_SLOT[name]], len(self))

    def regulator_series(self, axis: Axis) -> list[int]:
        """Values the axis' regulator took, one per step of that axis."""
        mask = self.path.axis_mask(axis)  # refuses a non-Axis before axis.regulator
        return list(compress(self.column(axis.regulator), mask))

    def register_series(self, name: str) -> list[int]:
        return list(self.column(name))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GenerationTrace):
            return NotImplemented
        # Constant columns are always stored as ints, so equal registers are
        # stored alike.  An empty trace has no positions or register values
        # to compare, whatever its path's start.
        return (not (self.path.codes or other.path.codes)
                or self.path == other.path and self.registers == other.registers)

    def __hash__(self) -> int:
        return hash(self.path) if len(self) else 0

    def __repr__(self) -> str:
        return f"GenerationTrace(steps={len(self)})"


def _column(entry, steps: int) -> array:
    """A register entry as an array('q') column of ``steps`` values."""
    return array("q", [entry]) * steps if isinstance(entry, int) else entry


class _Parts:
    """Builds every GenerationTrace from parts in step order.  A part is a path
    that starts where the last one ends (not checked) plus one entry per
    register: an array('q') of its value after each step, or an int it holds
    throughout.  Parts are taken, not copied; paths join with no new walk.
    A register stays one int while every part holds it at that value."""

    __slots__ = ("path", "codes", "registers")

    def __init__(self, start=(0, 0)):
        self.path, self.codes = IntegerFunction.from_codes(start, b""), []
        self.registers = [array("q") for _ in ALL_REGISTERS]

    def __len__(self) -> int:
        return len(self.path.i) - 1

    def add(self, path: IntegerFunction, registers) -> "_Parts":
        steps = len(self)
        if steps:
            self.path.i += path.i[1:]
            self.path.j += path.j[1:]
            self.codes.append(path.codes)
        else:
            self.path, self.codes = path, [path.codes]
        for n, entry in enumerate(registers):
            if not isinstance(entry, int) and entry and entry[:1] * len(entry) == entry:
                entry = entry[0]
            have = self.registers[n]
            if not steps:
                self.registers[n] = entry
            elif not (isinstance(have, int) and have == entry):
                column = self.registers[n] = _column(have, steps)
                column += _column(entry, path.length)
        return self

    def trace(self) -> GenerationTrace:
        self.path.codes = b"".join(self.codes)
        trace = GenerationTrace.__new__(GenerationTrace)
        trace.path, trace.registers = self.path, tuple(self.registers)
        return trace


@lru_cache(maxsize=None)
def _constant_registers(dead: frozenset[str]) -> frozenset[str]:
    """Work registers no cascade addition can change, given the ``dead`` set
    of a bank (see _dead_registers).

    A register is structurally constant when it is rank 3, or when both
    registers that could feed it are dead: zero, and constant themselves.
    Only dead sets are passed here, and there are 676 of them, so the cache
    has no bound.
    """
    return frozenset(n for n in WORK_REGISTERS if len(n) == 3 or {n + "X", n + "Y"} <= dead)


def _dead_registers(values) -> frozenset[str]:
    """The dead registers of the 16 register ``values``: the work registers
    that are zero and structurally constant, so they stay zero for good.

    Each pass, from the highest rank down, adds the zero registers of one
    rank whose feeds the passes before found dead, so every set it passes to
    _constant_registers is a dead set.
    """
    zeros, dead = frozenset(compress(WORK_REGISTERS, map(not_, values[2:]))), frozenset()
    for _ in (3, 2, 1):
        dead = _constant_registers(dead) & zeros
    return dead


def _shape(config: GeneratorConfig) -> tuple[frozenset[str], bool, int | None]:
    """The machine shape of ``config``: its bank's dead registers (see
    _dead_registers), whether it is sign-harmonized, and its watched
    register's slot (None under a step count)."""
    stop = config.stop
    return (_dead_registers(config.bank._values), config.mode is GenerationMode.SIGN_HARMONIZED,
            _SLOT[stop.register] if isinstance(stop, WhilePositive) else None)


def implied_designation(bank: RegisterBank) -> frozenset[str]:
    """Work registers that are non-zero and provably constant for this bank.

    The non-zero structurally constant registers form the IF's type
    designation (written {X, Y}, {XXY, Y}, ...); the zero ones are its dead
    registers.
    """
    _check_type(bank, RegisterBank, "bank must be a RegisterBank")
    dead = _dead_registers(bank._values)
    return _constant_registers(dead) - dead


def designation_violations(designation, initial_bank: RegisterBank,
                           trace: GenerationTrace) -> list[str]:
    """Names from ``designation`` whose value changed anywhere in the trace."""
    try:
        names = set(designation)
    except TypeError:
        raise PreconditionError("designation must be an iterable of register names") from None
    _check_type(initial_bank, RegisterBank, "bank must be a RegisterBank")
    _check_type(trace, GenerationTrace, "trace must be a GenerationTrace")
    unknown = sorted(names - set(WORK_REGISTERS))
    if unknown:
        raise PreconditionError(f"designation contains non-work registers: {unknown}")
    # A register kept as a column is never constant, so it changed.
    return [name for name in sorted(names)
            if len(trace) and trace.registers[_SLOT[name]] != initial_bank.value(name)]


def _indent(lines, levels=1):
    return ["    " * levels + line for line in lines]


#: Steps in one block of the untraced loop that runs with no stop test.
_FREE_STEPS = 1 << 10


def _kernel_source(dead: frozenset[str], harmonized: bool, watched: int | None,
                   loop: str) -> tuple[str, tuple[int, ...]]:
    """The step loop of one kernel key as Python source, and ``recorded``.

    The key is a machine shape, as _shape gives it, plus a ``loop`` kind from
    _LOOPS; every bank of a shape shares its kernels.  The source defines one
    function, ``run``; _compile_kernel executes it.  tests/kernel_sources.py
    enumerates every key, and tests/kernel_sources.sha256 pins the sources.

    A ``dead`` register only ever adds zero, so the cascade pairs it feeds
    are dropped; that set is all of a bank the source reads.  In
    sign-harmonized mode each axis' rank-1 pair is taken out of the cascade
    as its rate: the regulator gains the rate's magnitude and the rate's sign
    picks the step's direction; a dropped rate moves by +1 as in monotone
    mode.

    The source is written from register names and step codes alone, so no
    value from a bank reaches ``exec``.  The registers are locals, unpacked
    from the list ``regs`` and written back to it at the end.  A kernel runs
    at most ``steps`` steps and stops after a step that leaves the watched
    register non-positive.  That test is made only on the sides that can
    change the register, so it is exact once the register is positive.

    A traced or checked kernel, ``run(regs, steps, code, snaps)``, passes each
    step's code to ``code`` and extends the list ``snaps`` with the ``recorded``
    registers.  Checked, it checks RX - RY and every addition against
    REGISTER_CAPACITY, raising apply_step's error text; traced, its caller must
    show that no register can overflow (see _batch_fits).  An untraced kernel,
    ``run(regs, steps)``, checks nothing and keeps one combined regulator
    r = RX - RY, so it can watch only a work register (else PreconditionError).
    It writes back only the work registers and returns the number of steps it
    ran.  ``done`` counts the steps its blocks ran (below; 0 when it has
    none), and every untraced kernel then runs the same tested loop:
    range(done, steps - 1, 2) at two steps a pass, and a last step when
    steps - done is odd.  So the total is worked out from the loop index at
    the break, else it is ``steps``.  It counts neither axis; its caller
    reads that from the work registers (see curves.pi_bounds).

    An untraced kernel whose watched register W has live feeds first runs
    blocks of _FREE_STEPS steps, 8 steps a pass, with no stop test.  A block
    runs while the cap leaves a whole block and W > _FREE_STEPS * bound(a
    feed of W) for the largest such bound, where bound(R) = |R| + _FREE_STEPS
    * the largest bound of R's live feeds.  A step adds a feed at most once
    to a register, as in _batch_fits, so bound(R) bounds |R| over the block,
    W falls by less than W in it, and the stop test could not have fired.
    The tested loop then runs the remaining steps.

    A monotone shape with a count pair runs a block fused when it can.  The
    count pair is a live j-side pair whose source is structurally constant
    and whose target, a work register, no other pair feeds, so the j steps
    of a stretch are the target's change divided by the source.  A fused
    block is _FREE_STEPS // 2 units, each ``if r > 0: <j side> <i side>
    else: <i side>``, so at most _FREE_STEPS steps and the guard and cap room
    above still hold; it adds the units plus its j steps to the count.  It
    runs when r <= Ylow and Xhigh <= Ylow, where Xhigh = X + _FREE_STEPS *
    bound(the feeds of X) is at least X through the block, and Ylow = Y -
    _FREE_STEPS * bound(the feeds of Y) at most Y (X or Y alone when it has
    no live feed).  Then r <= Ylow before every step: an i step runs at r <=
    0 and leaves r + X <= Xhigh <= Ylow, and a j step runs at 0 < r <= Ylow
    <= Y and leaves r - Y <= 0.  So every j step is followed by an i step,
    which the unit takes without testing r.  A fused block runs the very
    steps a plain one does, so every register takes the same values;
    ``done`` may end odd.  Sign-harmonized shapes and shapes with no count
    pair get the plain blocks alone.
    """
    traced, checked = _LOOPS[loop]
    if not traced and watched in (_SLOT["RX"], _SLOT["RY"]):
        raise PreconditionError(f"the untraced loop cannot watch {ALL_REGISTERS[watched]}")
    sides = []
    for letter in "XY":
        cascade, rate = _CASCADES[letter], None
        if harmonized:
            cascade, (rate, _) = cascade[:-1], cascade[-1]
            rate = None if rate in dead else rate
        sides.append((tuple(pair for pair in cascade if pair[0] not in dead), rate))
    cap = REGISTER_CAPACITY
    feeds = {}
    for pairs, _ in sides:
        for source, target in pairs:
            feeds.setdefault(target, []).append(source)
    recorded = tuple(sorted({0, 1} | {_SLOT[name] for name in feeds}))

    def reach(names):
        # The largest magnitude any of names can reach in _FREE_STEPS steps.
        terms = [f"abs({name})" + (f" + {_FREE_STEPS} * {reach(feeds[name])}"
                                   if name in feeds else "") for name in names]
        return terms[0] if len(terms) == 1 else f"max({', '.join(terms)})"

    def add(target, term, context):
        if not traced and target in REGULATORS:
            return [f"r {'+' if target == 'RX' else '-'}= {term}"]
        if not checked:
            return [f"{target} += {term}"]
        return [f"{target} += {term}",
                f"if not -{cap} <= {target} <= {cap}: raise _overflow({context!r}, {target})"]

    def side(axis, pairs, rate, stop):
        plus, regulator = STEP_CODES.index(StepKind(axis, 1)), axis.regulator

        def move(code):
            return [f"code({code})"] if traced else []

        lines, changed = [], {target for _, target in pairs}
        for source, target in pairs:
            lines += add(target, source, f"{target} += {source}")
        if rate is None:
            lines += move(plus)
        else:
            changed.add(regulator)
            context = f"{regulator} += |{rate}|"
            lines += [f"if {rate} < 0:",
                      *_indent(add(regulator, f"-{rate}", context) + move(plus + 2)),
                      "else:",
                      *_indent(add(regulator, rate, context) + move(plus))]
        if traced:
            lines.append(f"snaps += {', '.join(ALL_REGISTERS[s] for s in recorded)}")
        if stop and watched is not None and ALL_REGISTERS[watched] in changed:
            lines += [f"if {ALL_REGISTERS[watched]} <= 0:", *_indent(stop)]
        return lines or ["pass"]

    def step(stop):
        if checked:
            test = ["d = RX - RY",
                    f"if not -{cap} <= d <= {cap}: raise _overflow('RX - RY', d)",
                    "if d > 0:"]
        else:
            test = ["if RX > RY:" if traced else "if r > 0:"]
        return [*test, *_indent(side(Axis.J, *sides[1], stop)),
                "else:", *_indent(side(Axis.I, *sides[0], stop))]

    unpack = f"    {', '.join(ALL_REGISTERS)} = regs"
    if traced:
        head = ["def run(regs, steps, code, snaps):", unpack,
                "    for _ in repeat(None, steps >> 1):"]
        body = step(["break"]) * 2
        tail = [f"    regs[:] = {', '.join(ALL_REGISTERS)}"]
        odd = "steps & 1"
    else:
        head = ["def run(regs, steps):", unpack, "    r = RX - RY", "    done = 0"]
        name = None if watched is None else ALL_REGISTERS[watched]
        if name in feeds:
            guard = f"{name} > {_FREE_STEPS} * ({reach(feeds[name])})"
            block = [f"for _ in repeat(None, {_FREE_STEPS >> 3}):", *_indent(step([]) * 8),
                     f"done += {_FREE_STEPS}"]
            count_pair = None if harmonized else next(
                ((source, target) for source, target in sides[1][0]
                 if source in _constant_registers(dead) and feeds[target] == [source]
                 and target not in REGULATORS), None)
            if count_pair:
                def bound(register, sign):
                    if register not in feeds:
                        return register
                    return f"{register} {sign} {_FREE_STEPS} * ({reach(feeds[register])})"

                low, i_side = bound("Y", "-"), side(Axis.I, *sides[0], [])
                unit = ["if r > 0:", *_indent(side(Axis.J, *sides[1], []) + i_side),
                        "else:", *_indent(i_side)]
                feed, counted = count_pair
                block = [f"if r <= {low} and {bound('X', '+')} <= {low}:",
                         f"    entry = {counted}",
                         f"    for _ in repeat(None, {_FREE_STEPS >> 4}):",
                         *_indent(unit * 8, 2),
                         f"    done += {_FREE_STEPS >> 1} + ({counted} - entry) // {feed}",
                         "else:", *_indent(block)]
            head += [f"    while steps - done >= {_FREE_STEPS} and {guard}:", *_indent(block, 2)]
        head.append("    for n in range(done, steps - 1, 2):")
        body = step(["total = n + 1", "break"]) + step(["total = n + 2", "break"])
        tail = [f"    regs[2:] = {', '.join(WORK_REGISTERS)}", "    return total"]
        odd = "(steps - done) & 1"
    # Two steps per pass halve the loop's own cost; an odd last step runs
    # alone unless the stop test ended the loop.
    source = "\n".join([*head, *_indent(body, 2), "    else:",
                        *([] if traced else ["        total = steps"]),
                        f"        for _ in repeat(None, {odd}):",
                        *_indent(step(["break"]), 3), *tail])
    return source, recorded


@lru_cache(maxsize=256)
def _compile_kernel(dead: frozenset[str], harmonized: bool, watched: int | None,
                    loop: str) -> tuple:
    """``(run, recorded)`` for one kernel key (see _kernel_source): its step
    loop, compiled when first needed and cached, and the slots a traced
    step snapshots."""
    source, recorded = _kernel_source(dead, harmonized, watched, loop)
    namespace = {"_overflow": _overflow, "repeat": repeat}
    exec(source, namespace)
    return namespace["run"], recorded


#: Steps or rows in one part of a trace: a run's batch (_run), and a chunk
#: that io.read_trace replays or parses and io.write_trace joins; io reads
#: it here at call time.  The benchmark's trace_pipeline (seed 1, 8 s, six
#: rotations on a 2-vCPU KVM guest, Python 3.11.7) peaked at 25.9 MiB RSS
#: with 4 096-step batches and 1 024-row chunks, 26.3 with both at 4 096
#: and 24.0 with both at 1 024, each in 6 of 6 runs; steps/s held.
_BATCH_STEPS = 1 << 10

# Each register below rank 3 with its two feeds, every register after its feeds.
_FEEDS = tuple((_SLOT[name], _SLOT[name + "X"], _SLOT[name + "Y"])
               for name in WORK_REGISTERS[5::-1]) + ((0, 2, 2), (1, 3, 3))


def _batch_fits(regs: list[int], steps: int) -> bool:
    """Whether ``steps`` steps from ``regs`` surely keep RX - RY and every
    register within REGISTER_CAPACITY, in either mode.  A step adds a feed
    (or a rate's magnitude) at most once to a register, so its bound is its
    magnitude plus ``steps`` times the largest bound of its feeds; RX - RY
    moves by one rate a step, so its bound is its magnitude plus ``steps``
    times the larger rate bound."""
    bound = list(map(abs, regs))
    for target, a, b in _FEEDS:
        bound[target] += steps * max(bound[a], bound[b])
    gap = abs(regs[0] - regs[1]) + steps * max(bound[2], bound[3])
    return max(gap, *bound) <= REGISTER_CAPACITY


def _batch(regs: list[int], shape, steps: int, start) -> tuple[IntegerFunction, list]:
    """At most ``steps`` steps of the machine ``shape`` (see _shape) from the
    registers ``regs``, updated in place, and the position ``start``: the
    path walked and one entry per register, an array('q') of its value after
    each step or the int it held throughout.  The batch runs traced when
    _batch_fits shows it cannot overflow, and checked otherwise, so an
    overflow raises apply_step's text at the same step."""
    codes, snaps = bytearray(), []
    run, recorded = _compile_kernel(*shape, _TRACED if _batch_fits(regs, steps) else _CHECKED)
    run(regs, steps, codes.append, snaps)
    flat, width = _int64s(snaps), len(recorded)
    columns = {slot: flat[n::width] for n, slot in enumerate(recorded)}
    return (IntegerFunction.from_codes(start, codes),
            [columns.get(slot, value) for slot, value in enumerate(regs)])


def _run(config: GeneratorConfig) -> tuple[IntegerFunction, GenerationTrace]:
    """The register machine: run ``config`` in its mode until its stop rule.

    The run is a sequence of _batch calls of at most _BATCH_STEPS steps each,
    on the kernels of the config's shape (see _compile_kernel; each is
    compiled when first needed and cached).  Each batch's path and register
    columns go to _Parts as one part, so a long run holds about 8 bytes per
    recorded value.  Then the registers of the implied type designation are
    audited for constancy, and a predicate stop that used up its cap raises
    CapExhaustedError.
    """
    bank, stop = config.bank, config.stop
    shape = _shape(config)
    watched = shape[2]
    limit = stop.count if watched is None else stop.cap
    regs, parts = list(bank._values), _Parts(config.start)
    # The kernel makes the stop test only on steps that can change the
    # watched register, which is exact while it is positive; a register that
    # starts non-positive gets the first step run alone.
    batch = 1 if watched is not None and regs[watched] <= 0 else _BATCH_STEPS
    while len(parts) < limit:
        parts.add(*_batch(regs, shape, min(batch, limit - len(parts)), parts.path.end))
        if watched is not None and regs[watched] <= 0:
            break
        batch = _BATCH_STEPS
    else:
        if watched is not None:
            raise _cap_exhausted(stop.register, limit)
    trace = parts.trace()
    changed = designation_violations(implied_designation(bank), bank, trace)
    if changed:
        raise InternalConsistencyError(
            f"type-designation registers changed during generation: {changed}")
    return trace.path, trace


def generate(config: GeneratorConfig) -> tuple[IntegerFunction, GenerationTrace]:
    """Run the monotone generator until the stop rule fires.

    Each step picks an axis from the regulators, runs the cascade, then moves
    the chosen coordinate by +1.  Returns the integer function and the full
    per-step trace.  Registers in the bank's implied type designation are
    audited for constancy after the run.
    """
    _check_type(config, GeneratorConfig, "config must be a GeneratorConfig")
    if config.mode is not GenerationMode.MONOTONE:
        raise PreconditionError(
            "generate handles monotone mode only; use curves.composite_generate")
    return _run(config)


def composite_generate(config: GeneratorConfig) -> tuple[IntegerFunction, GenerationTrace]:
    """Run the sign-harmonized generator for composite (non-monotone) curves.

    Identical to the monotone generator except that an i step moves the
    coordinate by the sign of X while RX grows by |X| (symmetrically for j
    steps and Y).  With rates that stay positive this coincides with
    generate step for step.
    """
    _check_type(config, GeneratorConfig, "config must be a GeneratorConfig")
    if config.mode is not GenerationMode.SIGN_HARMONIZED:
        raise PreconditionError("composite_generate requires SIGN_HARMONIZED mode")
    _check_type(config.stop, StepCount, "composite runs must use a StepCount stop rule")
    return _run(config)
