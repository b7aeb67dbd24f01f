"""Command-line front end: generate, derive, pi, digitize, render, mech.

File formats
------------
Config files are line-based KEY=VALUE text ('#' starts a comment).  Keys:
I0, J0 (start pair, default 0), MODE (MONOTONE or SIGN_HARMONIZED, default
MONOTONE), STOP (COUNT or WHILE_POSITIVE:<REG>), CAP (step count or safety
cap, required), and any of the 16 register names (default 0).  Unknown keys
are errors.

Trace files are CSV with header
k,step,i,j,RX,RY,X,Y,XX,XY,YX,YY,XXX,XXY,XYX,XYY,YXX,YXY,YYX,YYY
and one row per executed step (step is one of i+, i-, j+, j-); the register
columns hold the bank after that step.  Each row's i, j must be one step of
its kind from the row before (the path starts one step back from the first
row); a row that breaks this is a parse error.  The same format serializes
bare integer functions (register columns all zero).

Exit codes: 0 ok, 2 bad usage, 3 parse error (a trace position that does
not follow from its step included), 4 register overflow, 5 precondition
violation (including stop-cap exhaustion and a trace whose path leaves
+/- REGISTER_CAPACITY).
"""

from __future__ import annotations

import argparse
import csv
import sys
from array import array
from fractions import Fraction
from itertools import islice, repeat
from pathlib import Path
from typing import IO

from .core import (
    ALL_REGISTERS,
    Axis,
    GenerationMode,
    GenerationTrace,
    GeneratorConfig,
    IntegerFunction,
    IntegerFunctionError,
    IntegerPair,
    ParseError,
    PreconditionError,
    REGISTER_CAPACITY,
    RegisterBank,
    RegisterOverflowError,
    STEP_CODES,
    StepCount,
    WhilePositive,
    generate,
)
from .calculus import IntegerScale, _class_fields, difference_field
from .curves import (
    composite_generate,
    digitize,
    format_bound,
    free_fall_config,
    harmonic_config,
    pi_bounds,
    RealSampleSeries,
    uniform_motion_config,
)
from .render import Viewport, render_ascii, render_pbm, render_svg

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_OVERFLOW = 4
EXIT_PRECONDITION = 5

TRACE_COLUMNS = ("k", "step", "i", "j") + ALL_REGISTERS

_CONFIG_KEYS = ("I0", "J0", "MODE", "STOP", "CAP") + ALL_REGISTERS


# ---------------------------------------------------------------------------
# Config files

def _parse_int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"value of {key} must be an integer, got {text!r}") from None


def parse_config_items(lines) -> dict[str, str]:
    """KEY=VALUE lines into a mapping; comments and blank lines skipped."""
    items: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected KEY=VALUE, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in items:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        items[key] = value
    return items


def config_from_items(items: dict[str, str]) -> GeneratorConfig:
    registers = {name: _parse_int(items[name], name)
                 for name in ALL_REGISTERS if name in items}
    start = IntegerPair(_parse_int(items.get("I0", "0"), "I0"),
                        _parse_int(items.get("J0", "0"), "J0"))
    mode_text = items.get("MODE", "MONOTONE")
    try:
        mode = GenerationMode(mode_text)
    except ValueError:
        raise ParseError(f"MODE must be MONOTONE or SIGN_HARMONIZED, got {mode_text!r}") from None
    if "STOP" not in items:
        raise ParseError("missing STOP key")
    if "CAP" not in items:
        raise ParseError("missing CAP key")
    cap = _parse_int(items["CAP"], "CAP")
    stop_text = items["STOP"]
    if stop_text == "COUNT":
        stop = StepCount(cap)
    elif stop_text.startswith("WHILE_POSITIVE:"):
        register = stop_text.split(":", 1)[1]
        if register not in ALL_REGISTERS:
            raise ParseError(f"STOP watches unknown register {register!r}")
        stop = WhilePositive(register, cap)
    else:
        raise ParseError(
            f"STOP must be COUNT or WHILE_POSITIVE:<REG>, got {stop_text!r}")
    return GeneratorConfig(start=start, bank=RegisterBank.from_mapping(registers),
                           stop=stop, mode=mode)


def read_config(path: str, overrides=()) -> GeneratorConfig:
    with open(path, "r", encoding="utf-8") as handle:
        items = parse_config_items(handle)
    for assignment in overrides:
        if "=" not in assignment:
            raise ParseError(f"--set expects KEY=VALUE, got {assignment!r}")
        key, value = (part.strip() for part in assignment.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ParseError(f"--set: unknown key {key!r}")
        items[key] = value
    return config_from_items(items)


def format_config(config: GeneratorConfig) -> str:
    """Deterministic KEY=VALUE rendering; zero registers are omitted."""
    lines = [f"I0={config.start.i}", f"J0={config.start.j}", f"MODE={config.mode.value}"]
    if isinstance(config.stop, StepCount):
        lines.append("STOP=COUNT")
        lines.append(f"CAP={config.stop.count}")
    else:
        lines.append(f"STOP=WHILE_POSITIVE:{config.stop.register}")
        lines.append(f"CAP={config.stop.cap}")
    for name in ALL_REGISTERS:
        value = config.bank.value(name)
        if value != 0:
            lines.append(f"{name}={value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Trace files

_TOKENS = tuple(step.token for step in STEP_CODES)
_CODE_OF_TOKEN = {token: code for code, token in enumerate(_TOKENS)}
_CHUNK_ROWS = 4096


def write_trace(trace: GenerationTrace, stream: IO[str]) -> None:
    """Write the CSV rows, a chunk at a time, joined from per-column strings.

    No field can hold a comma, quote or line break, so the output is what
    csv.writer would write for the same rows, byte for byte.
    """
    n = len(trace)
    columns = [map(str, range(1, n + 1)), map(_TOKENS.__getitem__, trace.codes),
               map(str, trace.i), map(str, trace.j)]
    columns += [repeat(str(entry), n) if isinstance(entry, int) else map(str, entry)
                for entry in trace.registers]
    stream.write(",".join(TRACE_COLUMNS) + "\n")
    rows = map(",".join, zip(*columns))
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        stream.write("\n".join(chunk) + "\n")


def write_trace_file(trace: GenerationTrace, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        write_trace(trace, handle)


def _parse_column(cells: tuple[str, ...]) -> array:
    """One numeric column of a chunk, every value within +/- REGISTER_CAPACITY.
    A column whose cells all hold the same text is parsed once."""
    if cells.count(cells[0]) == len(cells):
        values = [int(cells[0])]
    else:
        values = list(map(int, cells))
    if min(values) < -REGISTER_CAPACITY or max(values) > REGISTER_CAPACITY:
        raise ValueError
    if len(values) < len(cells):
        return array("q", values) * len(cells)
    return array("q", values)


def _parse_rows(rows: list[list[str]], k: int, last) -> tuple[bytes, list[array]]:
    """Step codes and the i, j and register columns of non-blank rows whose
    first step index should be ``k`` and whose first step leaves position
    ``last`` (None for the first row of the file)."""
    if not rows:
        return b"", []
    if any(len(row) != len(TRACE_COLUMNS) for row in rows):
        raise ValueError
    cells = list(zip(*rows))
    if list(map(int, cells[0])) != list(range(k, k + len(rows))):
        raise ValueError
    codes = bytes(map(_CODE_OF_TOKEN.__getitem__, cells[1]))
    columns = [_parse_column(column) for column in cells[2:]]
    # Only the path is checked here: from_columns raises if a position does
    # not follow from its step, and the first step must leave ``last``.
    chunk = GenerationTrace.from_columns(codes, columns[0], columns[1], ())
    if last is not None and chunk.path.start != last:
        raise ValueError
    return codes, columns


def _check_row(row: list[str], k: int, last) -> IntegerPair:
    """The row's position, once the row is checked; ``last`` as in _parse_rows."""
    if len(row) != len(TRACE_COLUMNS):
        raise ParseError(f"expected {len(TRACE_COLUMNS)} columns, got {len(row)}")
    if _parse_int(row[0], "k") != k:
        raise ParseError(f"step index {row[0]} out of order")
    if row[1] not in _CODE_OF_TOKEN:
        raise ParseError(f"invalid step token {row[1]!r} (expected i+, i-, j+ or j-)")
    for name, cell in zip(TRACE_COLUMNS[2:], row[2:]):
        value = _parse_int(cell, name)
        if abs(value) <= REGISTER_CAPACITY:
            continue
        if name in ("i", "j"):
            raise ParseError(f"position {name} = {value} is out of range")
        raise RegisterOverflowError(f"register {name} = {value} is beyond capacity")
    position = IntegerPair(int(row[2]), int(row[3]))
    if last is not None:
        step = STEP_CODES[_CODE_OF_TOKEN[row[1]]]
        moved = (last.i + step.sign, last.j) if step.axis is Axis.I else (last.i, last.j + step.sign)
        if position != moved:
            raise ParseError(f"position ({position.i}, {position.j}) is not one {row[1]} "
                             f"step from ({last.i}, {last.j})")
    return position


def _raise_first_defect(rows, lineno: int, k: int, last) -> None:
    """Check ``rows`` one at a time, numbered from ``lineno`` and expected to
    start at step index ``k`` from position ``last``; raise for the first
    malformed one."""
    for lineno, row in enumerate(rows, start=lineno):
        if not row:
            continue
        try:
            last = _check_row(row, k, last)
        except (ParseError, RegisterOverflowError) as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
        k += 1


def read_trace(stream: IO[str]) -> GenerationTrace:
    """Parse a trace CSV into columns, a chunk of rows at a time.

    Each chunk is checked column by column; only a chunk that fails is
    rescanned row by row, so the error names the first bad line.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty trace file (missing header)") from None
    if tuple(header) != TRACE_COLUMNS:
        raise ParseError("trace header does not match the expected 20 columns")
    codes = bytearray()
    columns = [array("q") for _ in TRACE_COLUMNS[2:]]
    lineno = 2
    while chunk := list(islice(reader, _CHUNK_ROWS)):
        last = IntegerPair(columns[0][-1], columns[1][-1]) if codes else None
        try:
            new_codes, parsed = _parse_rows([row for row in chunk if row], len(codes) + 1, last)
        except (ValueError, KeyError, PreconditionError):
            # With no bad row found, the PreconditionError stands: a path
            # that starts outside +/- REGISTER_CAPACITY.
            _raise_first_defect(chunk, lineno, len(codes) + 1, last)
            raise
        codes += new_codes
        for column, values in zip(columns, parsed):
            column += values
        lineno += len(chunk)
    return GenerationTrace.from_columns(codes, *columns[:2], columns[2:])


def read_trace_file(path: str) -> GenerationTrace:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return read_trace(handle)


def trace_for_function(f: IntegerFunction) -> GenerationTrace:
    """Serialize a bare integer function as a trace with an all-zero bank."""
    return GenerationTrace._wrap(f, (0,) * len(ALL_REGISTERS))


def function_from_trace(trace: GenerationTrace) -> IntegerFunction:
    """The integer function a trace walked."""
    if not len(trace):
        raise PreconditionError("trace has no steps; cannot recover an integer function")
    return trace.path


# ---------------------------------------------------------------------------
# Samples files

def read_samples_file(path: str) -> RealSampleSeries:
    """CSV-ish lines "x,y" with exact rational tokens like 3/10, 0.25 or 2."""
    pairs = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected x,y")
            try:
                pairs.append((Fraction(parts[0].strip()), Fraction(parts[1].strip())))
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"line {lineno}: invalid rational in {line!r}") from None
    return RealSampleSeries(tuple(pairs))


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"invalid rational {text!r} (use P/Q, a decimal, or an integer)") from None


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_generate(args) -> int:
    config = read_config(args.config, args.set or ())
    if config.mode is GenerationMode.MONOTONE:
        f, trace = generate(config)
    else:
        f, trace = composite_generate(config)
    write_trace_file(trace, args.out)
    print(f"wrote {args.out}: {f.length} steps, end [{f.end.i}, {f.end.j}]")
    return EXIT_OK


def _cmd_derive(args) -> int:
    trace = read_trace_file(args.infile)
    f = function_from_trace(trace)
    axis = Axis(args.axis)
    write = sys.stdout.write
    if args.all:
        # One class at a time from one cross list: memory holds one class,
        # not all n(n - 1)/2 entries.
        fields = _class_fields(f, axis)
        write("class,coordinate,d\n")
        for field in fields:
            write("".join(map(f"{field.diff_class},%s,%s\n".__mod__, field)))
    else:
        field = difference_field(f, axis, args.diff_class)
        write("coordinate,d\n")
        write("".join(map("%s,%s\n".__mod__, field)))
    return EXIT_OK


def _cmd_pi(args) -> int:
    result = pi_bounds(args.x0)
    if args.trace:
        # Trace first: if the two-regulator run overflows, nothing is printed
        # and no file is left behind.
        _, trace = generate(harmonic_config(args.x0, cap=result.step_count))
        write_trace_file(trace, args.trace)
    print(f"i={result.i_quarter} j={result.j_quarter} "
          f"lower={format_bound(result.lower, round_up=False)} "
          f"upper={format_bound(result.upper, round_up=True)} "
          f"steps={result.step_count} elapsed={result.elapsed:.3f}s")
    if args.trace:
        print(f"wrote {args.trace}: {len(trace)} steps")
    return EXIT_OK


def _cmd_digitize(args) -> int:
    samples = read_samples_file(args.samples)
    scale = IntegerScale(parse_rational(args.unit))
    f = digitize(samples, scale)
    write_trace_file(trace_for_function(f), args.out)
    print(f"wrote {args.out}: {f.length} steps, "
          f"start [{f.start.i}, {f.start.j}], end [{f.end.i}, {f.end.j}]")
    return EXIT_OK


def _parse_viewport(text: str, cell_px: int) -> Viewport:
    parts = text.split(":")
    if len(parts) != 4:
        raise ParseError("--viewport expects imin:imax:jmin:jmax")
    i_min, i_max, j_min, j_max = (_parse_int(part, "viewport bound") for part in parts)
    # Bounds are what --viewport says; --cell-px is checked by Viewport (exit 5).
    if i_min > i_max or j_min > j_max:
        raise ParseError("viewport bounds must satisfy min <= max")
    return Viewport(i_min, i_max, j_min, j_max, cell_px=cell_px)


def _cmd_render(args) -> int:
    trace = read_trace_file(args.infile)
    f = function_from_trace(trace)
    if args.viewport:
        viewport = _parse_viewport(args.viewport, args.cell_px)
    else:
        viewport = Viewport.around(f, cell_px=args.cell_px)
    if args.format == "ascii":
        payload = render_ascii(f, viewport).encode("utf-8")
    elif args.format == "pbm":
        payload = render_pbm(f, viewport)
    else:
        payload = render_svg(f, viewport, scale_label=args.label).encode("utf-8")
    if args.out:
        Path(args.out).write_bytes(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    return EXIT_OK


def _cmd_mech(args) -> int:
    if args.kind == "uniform":
        config = uniform_motion_config(args.il, args.jl)
    elif args.kind == "freefall":
        config = free_fall_config(args.xx, args.y, args.steps, args.x0)
    else:
        config = harmonic_config(args.x0, cap=args.cap)
    text = format_config(config)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intfunc",
        description="Integer-function toolkit: generate lattice curves, take "
                    "discrete derivatives, digitize real samples, render, and "
                    "bracket pi/2.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="run a generator config and write its trace")
    p.add_argument("--config", required=True, help="KEY=VALUE config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    p.add_argument("--out", required=True, help="output trace CSV path")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("derive", help="print a difference field of a traced function")
    p.add_argument("--in", dest="infile", required=True, help="input trace CSV")
    p.add_argument("--axis", choices=("i", "j"), required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--class", dest="diff_class", type=int, help="difference class")
    group.add_argument("--all", action="store_true", help="print every non-empty class")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("pi", help="bracket pi/2 with the quarter-wave run")
    p.add_argument("--x0", required=True, type=int, help="seed value (X = Y = x0)")
    p.add_argument("--trace", help="also write the full register trace CSV")
    p.set_defaults(func=_cmd_pi)

    p = sub.add_parser("digitize", help="digitize rational samples into a lattice path")
    p.add_argument("--unit", required=True, help="integer scale unit, e.g. 1/100")
    p.add_argument("--samples", required=True, help="file of x,y rational pairs")
    p.add_argument("--out", required=True, help="output trace CSV path")
    p.set_defaults(func=_cmd_digitize)

    p = sub.add_parser("render", help="render a traced function")
    p.add_argument("--in", dest="infile", required=True, help="input trace CSV")
    p.add_argument("--format", choices=("ascii", "pbm", "svg"), required=True)
    p.add_argument("--viewport", help="imin:imax:jmin:jmax (default: bounding box)")
    p.add_argument("--cell-px", type=int, default=16, help="SVG cell size in pixels")
    p.add_argument("--label", help="scale label text for SVG output")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("mech", help="emit a mechanics preset as a config file")
    mech_sub = p.add_subparsers(dest="kind", required=True)
    u = mech_sub.add_parser("uniform", help="uniform motion ({X, Y} line)")
    u.add_argument("--il", required=True, type=int, help="time units")
    u.add_argument("--jl", required=True, type=int, help="distance units")
    f = mech_sub.add_parser("freefall", help="free fall ({XX, Y} parabola)")
    f.add_argument("--xx", required=True, type=int, help="acceleration per time step")
    f.add_argument("--y", required=True, type=int, help="time rate")
    f.add_argument("--steps", required=True, type=int)
    f.add_argument("--x0", type=int, default=0, help="initial velocity")
    h = mech_sub.add_parser("harmonic", help="harmonic quarter wave ({XXY, Y})")
    h.add_argument("--x0", required=True, type=int, help="resolution (X = Y seed)")
    h.add_argument("--cap", type=int, default=None, help="step cap for the stop rule")
    for mech_parser in (u, f, h):
        mech_parser.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_mech)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RegisterOverflowError as exc:
        print(f"overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except IntegerFunctionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
