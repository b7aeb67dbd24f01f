"""Command-line front end: generate, derive, pi, digitize, render, mech.

The config, trace and samples file formats are described in intfunc.io.
Viewport is bound only under TYPE_CHECKING, so typing.get_type_hints of
_parse_viewport raises NameError unless localns binds it.

Exit codes: 0 ok, 2 bad usage, 3 parse error (a trace position that does
not follow from its step included), 4 register overflow, 5 precondition
violation (including stop-cap exhaustion and a trace whose path leaves
+/- REGISTER_CAPACITY).
"""

from __future__ import annotations

# core before argparse: compiling core, the largest module, sets a short
# command's peak memory, and argparse already loaded would add to it.
from .core import IntegerFunctionError, ParseError, RegisterOverflowError

import argparse
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .render import Viewport

# Each command imports what it runs, so none compiles a module it does not use.
# config_from_items, format_config, function_from_trace, parse_config_items,
# read_trace and write_trace stay importable from here, for callers that still
# take them from this module; they live in intfunc.io.
_IO_NAMES = frozenset({"config_from_items", "format_config", "function_from_trace",
                       "parse_config_items", "read_trace", "write_trace"})


def __getattr__(name: str):
    if name in _IO_NAMES:
        from . import io
        return getattr(io, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_OVERFLOW = 4
EXIT_PRECONDITION = 5


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_generate(args) -> int:
    from .core import GenerationMode, generate
    from .io import output_file, read_config, write_trace

    config = read_config(args.config, args.set or ())
    with output_file(args.out) as start:
        if config.mode is GenerationMode.MONOTONE:
            f, trace = generate(config)
        else:
            from .curves import composite_generate

            f, trace = composite_generate(config)
        write_trace(trace, start())
    print(f"wrote {args.out}: {f.length} steps, end [{f.end.i}, {f.end.j}]")
    return EXIT_OK


def _cmd_derive(args) -> int:
    from .calculus import _class_fields, difference_field
    from .core import Axis, _check_positive
    from .io import function_from_trace, read_trace_file

    # A bad --class is refused before the trace is read (exit 5).
    if not args.all:
        _check_positive(args.diff_class, "difference class")
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
    from .curves import format_bound, pi_bounds

    if args.trace is not None:
        from .core import generate
        from .curves import harmonic_config
        from .io import output_file, write_trace

        # Trace before printing: if the two-regulator run overflows, nothing
        # is printed and no file is left behind.
        with output_file(args.trace) as start:
            result = pi_bounds(args.x0)
            _, trace = generate(harmonic_config(args.x0))
            write_trace(trace, start())
    else:
        result = pi_bounds(args.x0)
    print(f"i={result.i_quarter} j={result.j_quarter} "
          f"lower={format_bound(result.lower, round_up=False)} "
          f"upper={format_bound(result.upper, round_up=True)} "
          f"steps={result.step_count} elapsed={result.elapsed:.3f}s")
    if args.trace is not None:
        print(f"wrote {args.trace}: {len(trace)} steps")
    return EXIT_OK


def _cmd_digitize(args) -> int:
    from .calculus import IntegerScale
    from .curves import digitize
    from .io import (output_file, parse_rational, read_samples_file, trace_for_function,
                     write_trace)

    # A bad --unit is refused before --samples is read.
    scale = IntegerScale(parse_rational(args.unit))
    samples = read_samples_file(args.samples)
    with output_file(args.out) as start:
        f = digitize(samples, scale)
        write_trace(trace_for_function(f), start())
    print(f"wrote {args.out}: {f.length} steps, "
          f"start [{f.start.i}, {f.start.j}], end [{f.end.i}, {f.end.j}]")
    return EXIT_OK


def _parse_viewport(text: str, cell_px: int) -> Viewport:
    from .io import _parse_int
    from .render import Viewport

    parts = text.split(":")
    if len(parts) != 4:
        raise ParseError("--viewport expects imin:imax:jmin:jmax")
    i_min, i_max, j_min, j_max = (_parse_int(part, "viewport bound") for part in parts)
    # Bounds are what --viewport says; --cell-px is checked by Viewport (exit 5).
    if i_min > i_max or j_min > j_max:
        raise ParseError("viewport bounds must satisfy min <= max")
    return Viewport(i_min, i_max, j_min, j_max, cell_px=cell_px)


def _cmd_render(args) -> int:
    from .io import function_from_trace, output_file, read_trace_file
    from .render import (Viewport, _ascii_grid, _check_cell_px, _check_grid, _check_label,
                         render_pbm, render_svg)

    # The arguments are refused before --out is opened or the trace is read;
    # only the grid limit of a default viewport needs the path.
    if args.viewport:
        viewport = _parse_viewport(args.viewport, args.cell_px)
        if args.format != "svg":
            _check_grid(viewport.columns, viewport.rows)
    else:
        _check_cell_px(args.cell_px)
    if args.format == "svg":
        _check_label(args.label)
    with output_file(args.out) as start:
        trace = read_trace_file(args.infile)
        f = function_from_trace(trace)
        if not args.viewport:
            viewport = Viewport.around(f, cell_px=args.cell_px)
        if args.format == "ascii":
            # The grid's bytes are its ASCII text: no str copy is made.
            payload = _ascii_grid(f, viewport)
        elif args.format == "pbm":
            payload = render_pbm(f, viewport)
        else:
            payload = render_svg(f, viewport, scale_label=args.label).encode("utf-8")
        stream = start().buffer
        stream.write(payload)
        stream.flush()
    return EXIT_OK


def _cmd_mech(args) -> int:
    from .curves import free_fall_config, harmonic_config, uniform_motion_config
    from .io import format_config, output_file

    with output_file(args.out) as start:
        if args.kind == "uniform":
            config = uniform_motion_config(args.il, args.jl)
        elif args.kind == "freefall":
            config = free_fall_config(args.xx, args.y, args.steps, args.x0)
        else:
            config = harmonic_config(args.x0, cap=args.cap)
        start().write(format_config(config))
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
    p.add_argument("--viewport", help="imin:imax:jmin:jmax (default: bounding box); "
                   "write --viewport=-3:10:-2:8 when imin is negative")
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
