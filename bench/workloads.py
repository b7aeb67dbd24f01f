"""Seeded inputs, timed ops and output checks of the benchmark workloads.

Every workload builds its inputs from the seed alone, as a list of rounds;
a run repeats the rounds, one op at a time (a closed loop with a single
caller), and starts no new round once its time is up.  Input sizes are
stratified: each round draws one value inside each of a fixed set of size
strata (digitize_view fixes its sizes and draws only positions), so two
seeds give different inputs with the same mix of op costs, and the median
and tail latencies do not move with the seed.

``run`` is the timed op; it calls the package only through the tracer, so a
traced run gets one span per public call.  ``check`` runs after the timer
stops, verifies the op's output against a reference that does not share the
code path under test, and returns the lattice steps the op handled.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import thread_time
from typing import NamedTuple

from intfunc import (
    Axis,
    GenerationMode,
    IntegerScale,
    RealSampleSeries,
    Viewport,
    class_derivative,
    composite_generate,
    difference_field,
    digitize,
    format_bound,
    full_derivative,
    generate,
    pi_bounds,
    refinement_compatible,
    regulator_monotone_check,
    render_ascii,
    render_pbm,
    render_svg,
)
from intfunc.cli import (
    config_from_items,
    format_config,
    function_from_trace,
    parse_config_items,
    read_trace,
    write_trace,
)
from intfunc.curves import (
    egg_figure_config,
    harmonic_config,
    preset_config,
    sinusoid_figure_config,
)

# pi/2 to 50 digits (truncated), so the true value lies in [LO, LO + 1e-50].
PI_HALF_LO = Fraction("1.57079632679489661923132169163975144209858469968755")
PI_HALF_HI = PI_HALF_LO + Fraction(1, 10**50)

# Golden quarter-wave rows: x0 -> (i, j, printed lower, printed upper).
GOLDEN_PI = {
    10**4: (157, 99, "1.56", "1.59596"),
    10**7: (4967, 3161, "1.570524", "1.571655"),
    10**12: (1570796, 999999, "1.570795", "1.570799"),
    10**14: (15707963, 9999999, "1.570796", "1.570797"),
}

CLI_TIMEOUT_S = 120   # per command


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def need(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def log_strata(rng: random.Random, lo_exp: float, hi_exp: float, k: int) -> list[int]:
    """One value per equal-width stratum of [10**lo_exp, 10**hi_exp] in log
    space, jittered over the middle fifth of its stratum."""
    width = (hi_exp - lo_exp) / k
    return [int(10 ** (lo_exp + width * (s + 0.4 + 0.2 * rng.random())))
            for s in range(k)]


def jittered(rng: random.Random, base: int) -> int:
    """``base`` moved by up to 5 % either way."""
    return base + rng.randint(-base // 20, base // 20)


# ---------------------------------------------------------------------------
# References that share no code with the package.

def quarter_wave(x0: int) -> tuple[int, int, str]:
    """(i, j, step letters) of the {XXY, Y} harmonic run at seed x0."""
    x = y = x0
    xx = xxy = -1
    r = 0
    steps = []
    while x > 0:
        if r > 0:
            xx += xxy
            r -= y
            steps.append("j")
        else:
            x += xx
            r += x
            steps.append("i")
    return steps.count("i"), steps.count("j"), "".join(steps)


def cross_series(elements, steps, axis: Axis) -> tuple[int, list[int]]:
    """First study coordinate and cross coordinates of the characteristic
    elements, for a path whose study axis only takes + steps (so the study
    coordinates are consecutive)."""
    study = 0 if axis is Axis.I else 1
    cross = [e[1 - study] for step, e in zip(steps, elements[1:]) if step.axis is axis]
    first = next((e[study] for step, e in zip(steps, elements[1:]) if step.axis is axis), 0)
    return first, cross


def reference_field(first: int, cross: list[int], diff_class: int) -> tuple:
    return tuple((first + k, cross[k + diff_class] - cross[k])
                 for k in range(len(cross) - diff_class))


def floor_cell(value: Fraction, unit: Fraction) -> int:
    return (value.numerator * unit.denominator) // (value.denominator * unit.numerator)


def check_grid(text: str, columns: int, rows: int, on: str, cells: int, what: str) -> None:
    lines = text.split("\n")
    need(len(lines) == rows, f"{what}: {len(lines)} rows, viewport has {rows}")
    need(all(len(line) == columns for line in lines),
         f"{what}: a row is not {columns} cells wide")
    need(text.count(on) == cells, f"{what}: {text.count(on)} marked cells, path has {cells}")


# ---------------------------------------------------------------------------
# Calibration kernels.  On a shared cloud VM (measured on a 2-vCPU KVM guest)
# the speed of the same Python code changes by up to 1.6x from one second to
# the next, as other tenants load the cores: far more than any regression
# bound.  Before every op, and once after the
# last, the worker times a short fixed kernel doing the same kind of work as
# the workload's ops, and scales the op's time by the mean of the two kernel
# times around it (see worker.py).  The kernels share no code with the
# package, so a faster package still shows.

def timed(kernel) -> float:
    """CPU seconds this thread spent in ``kernel``."""
    started = thread_time()
    kernel()
    return thread_time() - started


def integer_kernel(n: int = 8000) -> int:
    """A branchy small-integer recurrence."""
    a, b, r = 3, 5, 0
    for _ in range(n):
        if r > 0:
            b += 1
            r -= a
        else:
            a += 1
            r += b
    return r


class _Row(NamedTuple):
    k: int
    tag: str
    pair: tuple


def object_kernel(n: int = 800) -> int:
    """Small immutable records, dict and list traffic, CSV-style text."""
    rows, index = [], {}
    for k in range(n):
        row = _Row(k, "i+" if k & 1 else "j+", (k, -k))
        index[row.pair] = row
        rows.append(",".join((str(row.k), row.tag, str(row.pair[0]))))
    return len("\n".join(rows)) + len(index)


def fraction_kernel(n: int = 120) -> Fraction:
    """Exact rational products, sums and floor divisions."""
    total = Fraction(0)
    for k in range(1, n):
        total += (Fraction(k, 97) * Fraction(k + 3, 89) + Fraction(1, k)) // Fraction(1, 7)
    return total


# ---------------------------------------------------------------------------
# pi_bracket: the hand-written quarter-wave loop and nothing else.

class PiBracket:
    name = "pi_bracket"
    tail_percentile = 95
    calibration_ref_s = 0.5e-3

    def calibrate(self) -> float:
        return timed(integer_kernel)

    def build(self, seed: int, tiny: bool = False) -> list[list[int]]:
        rng = random.Random(f"{self.name}/{seed}")
        if tiny:
            return [log_strata(rng, 3, 5, 4) + [10**4, 10**7]]
        return [log_strata(rng, 8, 11, 24) + [10**4, 10**7, 10**12] for _ in range(40)]

    def run(self, t, x0: int):
        result = t.call("curves.pi_bounds", pi_bounds, x0)
        t.count("curves.pi_bounds", result.step_count)
        return result

    def check(self, x0: int, r) -> int:
        i, j = r.i_quarter, r.j_quarter
        need(i + j == r.step_count, f"x0={x0}: i + j != step_count")
        need(r.lower == Fraction(i - 1, j + 1) and r.upper == Fraction(i + 1, j),
             f"x0={x0}: bounds are not (i-1)/(j+1) and (i+1)/j")
        need(r.lower < PI_HALF_LO and PI_HALF_HI < r.upper,
             f"x0={x0}: [{r.lower}, {r.upper}] does not contain pi/2")
        if x0 in GOLDEN_PI:
            row = (i, j, format_bound(r.lower, round_up=False),
                   format_bound(r.upper, round_up=True))
            need(row == GOLDEN_PI[x0], f"x0={x0}: {row} != golden {GOLDEN_PI[x0]}")
        return r.step_count


# ---------------------------------------------------------------------------
# trace_pipeline: config -> generate -> trace CSV -> calculus -> SVG.

# Step counts are fixed per preset (jittered by 5 %), so a round costs the
# same for every seed; the register draws follow the neighbour fuzz in the
# acceptance tests, which never overflows at these lengths.
PRESET_STEPS = {"line": 1200, "parabola": 1000, "sine": 900,
                "exponential": 800, "conic": 700, "semicubic": 600}
FIGURE_STEPS = {"egg_figure": 1500, "sinusoid_figure": 1100}


def _nonzero(rng: random.Random, lo: int, hi: int) -> int:
    value = 0
    while value == 0:
        value = rng.randint(lo, hi)
    return value


def preset_params(rng: random.Random, name: str, steps: int) -> dict:
    if name == "line":
        return dict(x=_nonzero(rng, 1, 60), y=_nonzero(rng, 1, 60), steps=steps)
    if name == "parabola":
        return dict(xx=_nonzero(rng, -6, 6), y=_nonzero(rng, 1, 60), steps=steps,
                    x=rng.randint(0, 30))
    if name == "exponential":
        return dict(xy=_nonzero(rng, -6, 6), y=_nonzero(rng, 1, 60), steps=steps,
                    x=rng.randint(0, 30))
    if name == "conic":
        return dict(xx=_nonzero(rng, -6, 6), yy=_nonzero(rng, -6, 6), steps=steps,
                    x=rng.randint(0, 30), y=rng.randint(0, 30))
    if name == "sine":
        return dict(xxy=_nonzero(rng, -4, 4), y=_nonzero(rng, 1, 60), steps=steps,
                    x=rng.randint(0, 30), xx=rng.randint(-4, 4))
    return dict(xx=_nonzero(rng, -6, 6), yyy=_nonzero(rng, -4, 4), steps=steps,
                x=rng.randint(0, 30), yy=rng.randint(-4, 4), y=rng.randint(0, 30))


@dataclass
class PipelineResult:
    config_back: object
    function: object
    trace: object
    trace_back: object
    function_back: object
    axis: Axis | None
    fields: list
    derivative: object
    monotone_ok: object
    svg: str


class TracePipeline:
    name = "trace_pipeline"
    tail_percentile = 90
    calibration_ref_s = 0.75e-3

    def calibrate(self) -> float:
        return timed(object_kernel)

    def build(self, seed: int, tiny: bool = False) -> list[list]:
        rng = random.Random(f"{self.name}/{seed}")
        scale = 10 if tiny else 1
        rounds = []
        for _ in range(1 if tiny else 40):
            ops = [harmonic_config(x0) for x0 in
                   (log_strata(rng, 2, 3, 2) if tiny else log_strata(rng, 4, 7, 7))]
            for name, steps in PRESET_STEPS.items():
                ops.append(preset_config(
                    name, **preset_params(rng, name, jittered(rng, steps // scale))))
            ops.append(egg_figure_config(jittered(rng, FIGURE_STEPS["egg_figure"] // scale)))
            ops.append(sinusoid_figure_config(
                jittered(rng, FIGURE_STEPS["sinusoid_figure"] // scale)))
            rounds.append(ops)
        return rounds

    def run(self, t, config) -> PipelineResult:
        text = t.call("cli.format_config", format_config, config)
        items = t.call("cli.parse_config_items", parse_config_items, text.splitlines())
        config_back = t.call("cli.config_from_items", config_from_items, items)
        monotone = config_back.mode is GenerationMode.MONOTONE
        if monotone:
            f, trace = t.call("core.generate", generate, config_back)
            t.count("core.generate", len(trace))
        else:
            f, trace = t.call("curves.composite_generate", composite_generate, config_back)
            t.count("curves.composite_generate", len(trace))
        buffer = io.StringIO()
        t.call("cli.write_trace", write_trace, trace, buffer)
        t.count("cli.write_trace", len(trace))
        trace_back = t.call("cli.read_trace", read_trace, io.StringIO(buffer.getvalue()))
        t.count("cli.read_trace", len(trace_back))
        g = t.call("cli.function_from_trace", function_from_trace, trace_back)
        t.count("cli.function_from_trace", g.length)
        axis, fields, derivative, monotone_ok = None, [], None, None
        if monotone:
            i_steps = sum(1 for s in g.steps if s.axis is Axis.I)
            axis = Axis.I if 2 * i_steps >= g.length else Axis.J
            for diff_class in range(1, 9):
                fields.append(t.call("calculus.difference_field",
                                     difference_field, g, axis, diff_class))
                t.count("calculus.difference_field", len(fields[-1]))
            derivative = t.call("calculus.class_derivative", class_derivative, g, axis, 1)
            t.count("calculus.class_derivative", derivative.length)
            monotone_ok = t.call("calculus.regulator_monotone_check",
                                 regulator_monotone_check, trace_back)
            t.count("calculus.regulator_monotone_check", len(trace_back))
        viewport = t.call("render.Viewport.around", Viewport.around, g)
        t.count("render.Viewport.around", viewport.columns * viewport.rows)
        svg = t.call("render.render_svg", render_svg, g, viewport)
        if t.tracing:
            t.count("render.render_svg", len(set(g.elements)))
        return PipelineResult(config_back, f, trace, trace_back, g, axis, fields,
                              derivative, monotone_ok, svg)

    def memory_probe(self, configs) -> tuple[int, int]:
        """Bytes still allocated (per tracemalloc) while only the trace that
        ``generate`` returned is alive, and the steps in those traces."""
        retained = steps = 0
        for config in configs:
            if config.mode is GenerationMode.MONOTONE:
                before = tracemalloc.get_traced_memory()[0]
                trace = generate(config)[1]
                retained += tracemalloc.get_traced_memory()[0] - before
                steps += len(trace)
                del trace
        return retained, steps

    def check(self, config, r: PipelineResult) -> int:
        need(r.config_back == config, "config round trip changed the config")
        need(r.trace_back == r.trace, "trace CSV round trip changed the trace")
        need(r.function_back == r.function,
             "function_from_trace differs from the generated function")
        cells = len(set(r.function.elements))
        need(r.svg.count("<rect ") == cells,
             f"SVG has {r.svg.count('<rect ')} rects for {cells} distinct cells")
        if r.axis is not None:
            first, cross = cross_series(r.function.elements, r.function.steps, r.axis)
            for diff_class, got in enumerate(r.fields, start=1):
                need(got.entries == reference_field(first, cross, diff_class),
                     f"difference field class {diff_class} differs from the reference")
            on_path = set(r.derivative.elements)
            need(all(tuple(entry) in on_path for entry in r.fields[0].entries),
                 "class derivative misses a field entry")
            need(isinstance(r.monotone_ok, bool), "regulator check did not return a bool")
        return len(r.trace)


# ---------------------------------------------------------------------------
# digitize_view: exact samples -> digitize twice -> refinement ->
# full derivative -> ASCII and PBM grids.  No register machine, no trace I/O.

@dataclass
class SampleInput:
    shape: str
    points: tuple
    coarse: IntegerScale
    fine: IntegerScale
    m: int


def _circle(rng, radius: int, d: int):
    """Upper half of the rational circle (2t/(1+t^2), (1-t^2)/(1+t^2)) for
    t in [-1, 1], radius ``radius`` fine cells; x rises, y rises then falls."""
    n = 8 * radius
    ox, oy = Fraction(rng.randint(-400, 400), 7), Fraction(rng.randint(-400, 400), 7)
    r = Fraction(radius, d)
    points = []
    for k in range(n + 1):
        a = 2 * k - n          # t = a / n
        den = n * n + a * a
        points.append((ox / d + r * Fraction(2 * a * n, den),
                       oy / d + r * Fraction(n * n - a * a, den)))
    return points


_SINE_COEFFS = [(1, 1), (3, -6), (5, 120), (7, -5040), (9, 362880), (11, -39916800)]


def _sine(rng, length: int, height: int, d: int):
    """Degree-11 Taylor sine over s in [0, 355/113]: length x height fine
    cells, rising then falling."""
    n = 2 * max(length, 4 * height)
    s_end = Fraction(355, 113)
    ox, oy = Fraction(rng.randint(-400, 400), 9), Fraction(rng.randint(-400, 400), 9)
    h = Fraction(height, d)
    points = []
    for k in range(n + 1):
        s = s_end * k / n
        y = sum(s ** power / divisor for power, divisor in _SINE_COEFFS)
        points.append((ox / d + Fraction(length, d) * k / n, oy / d + h * y))
    return points


def _parabola(rng, length: int, height: int, d: int):
    """y = a (x - h)^2 with the vertex inside the range: down then up."""
    n = 2 * max(length, 4 * height)
    vertex = Fraction(rng.randint(7, 13), 20)
    a = Fraction(height, d) / max(vertex, 1 - vertex) ** 2
    ox, oy = Fraction(rng.randint(-400, 400), 11), Fraction(rng.randint(-400, 400), 11)
    points = []
    for k in range(n + 1):
        u = Fraction(k, n)
        points.append((ox / d + Fraction(length, d) * u, oy / d + a * (u - vertex) ** 2))
    return points


# (shape, size in fine cells, fine cells per real unit d, refinement m); one
# op per entry in each round.  Sizes and scales are fixed so that an op's
# cost does not depend on the seed, which moves the curves and their vertices.
DIGITIZE_STRATA = (
    ("circle", (40,), 3, 4), ("circle", (60,), 5, 7), ("circle", (90,), 7, 10),
    ("sine", (160, 50), 4, 5), ("sine", (260, 80), 6, 8),
    ("parabola", (100, 50), 2, 3), ("parabola", (220, 90), 9, 6),
)
_SHAPES = {"circle": _circle, "sine": _sine, "parabola": _parabola}


@dataclass
class DigitizeResult:
    series: RealSampleSeries
    coarse: object
    fine: object
    missing: list
    fields: dict
    viewport: Viewport
    ascii: str
    pbm: bytes


class DigitizeView:
    name = "digitize_view"
    tail_percentile = 95
    calibration_ref_s = 0.7e-3

    def calibrate(self) -> float:
        # Ops split their time between Fraction arithmetic and dict/tuple work.
        return timed(lambda: (fraction_kernel(60), object_kernel(400)))

    def build(self, seed: int, tiny: bool = False) -> list[list[SampleInput]]:
        rng = random.Random(f"{self.name}/{seed}")
        ops = []
        for shape, size, d, m in DIGITIZE_STRATA:
            fine = IntegerScale(Fraction(1, d))
            size = tuple(max(4, s // 10) for s in size) if tiny else size
            points = tuple(_SHAPES[shape](rng, *size, d))
            ops.append(SampleInput(shape, points, IntegerScale(fine.unit * m), fine, m))
        return [ops]

    def run(self, t, inp: SampleInput) -> DigitizeResult:
        series = t.call("curves.RealSampleSeries", RealSampleSeries, inp.points)
        t.count("curves.RealSampleSeries", len(inp.points))
        coarse = t.call("curves.digitize", digitize, series, inp.coarse)
        fine = t.call("curves.digitize", digitize, series, inp.fine)
        t.count("curves.digitize", 2 * len(inp.points))
        missing = t.call("calculus.refinement_compatible",
                         refinement_compatible, coarse, fine, inp.m)
        t.count("calculus.refinement_compatible", len(coarse.elements) + len(fine.elements))
        # x rises strictly, so the i coordinate of the counterpart never falls.
        fields = t.call("calculus.full_derivative", full_derivative, fine, Axis.I)
        if t.tracing:
            t.count("calculus.full_derivative", sum(len(f) for f in fields.values()))
        viewport = t.call("render.Viewport.around", Viewport.around, fine)
        cells = viewport.columns * viewport.rows
        t.count("render.Viewport.around", cells)
        text = t.call("render.render_ascii", render_ascii, fine, viewport)
        t.count("render.render_ascii", cells)
        pbm = t.call("render.render_pbm", render_pbm, fine, viewport)
        t.count("render.render_pbm", cells)
        return DigitizeResult(series, coarse, fine, missing, fields, viewport, text, pbm)

    def check(self, inp: SampleInput, r: DigitizeResult) -> int:
        sampled = {}
        for path, scale in (("coarse", inp.coarse), ("fine", inp.fine)):
            f = getattr(r, path)
            on_path = set(f.elements)
            cells = {(floor_cell(x, scale.unit), floor_cell(y, scale.unit))
                     for x, y in inp.points}
            need(cells <= on_path, f"{inp.shape}: a sample's {path} cell is off the path")
            sampled[path] = cells
        # A coarse cell that holds a sample holds that sample's fine cell too,
        # so only corner cells the digitizer inserted may lack a witness.
        need(set(r.missing) <= set(r.coarse.elements) - sampled["coarse"],
             f"{inp.shape}: refinement reports a sampled coarse cell as unwitnessed")
        first, cross = cross_series(r.fine.elements, r.fine.steps, Axis.I)
        n = len(cross)
        need(sorted(r.fields) == list(range(1, n)),
             f"{inp.shape}: full derivative classes are not 1..{n - 1}")
        need(sum(len(f) for f in r.fields.values()) == n * (n - 1) // 2,
             f"{inp.shape}: full derivative entry count is not n(n-1)/2")
        for diff_class in sorted({1, n - 1}) if n >= 2 else ():
            need(r.fields[diff_class].entries == reference_field(first, cross, diff_class),
                 f"{inp.shape}: class {diff_class} differs from the reference")
        vp = r.viewport
        distinct = len(set(r.fine.elements))
        check_grid(r.ascii.rstrip("\n"), vp.columns, vp.rows, "#", distinct, "ASCII")
        header, dims, body = r.pbm.decode("ascii").split("\n", 2)
        need(header == "P1" and dims == f"{vp.columns} {vp.rows}", "PBM header is wrong")
        check_grid(body.rstrip("\n"), vp.columns, vp.rows, "1", distinct, "PBM")
        return r.fine.length


# ---------------------------------------------------------------------------
# cli_session: real `python -m intfunc.cli` commands, one at a time.

@dataclass
class Command:
    name: str          # span and metric name: cli.<name>
    argv: list
    stdout: str        # file in the work directory that receives stdout
    expect: tuple      # what the check compares against (see CliSession.check)


@dataclass
class CommandResult:
    code: int
    stdout: bytes
    stderr: bytes


class CliSession:
    name = "cli_session"
    tail_percentile = 75
    calibration_ref_s = 20e-3
    CALIBRATION_CODE = ("rows = {}\nfor k in range(6000):\n"
                        "    rows[(k, -k)] = ','.join((str(k), str(-k)))")

    def __init__(self, root: Path, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        self.child_rss_kb: dict[str, int] = {}   # peak RSS per command name
        self._child_cpu_s = 0.0
        self._last_path: tuple = (None, None)
        self._launcher = None

    def build(self, seed: int, tiny: bool = False) -> list[list[Command]]:
        rng = random.Random(f"{self.name}/{seed}")
        # Narrow log-uniform bands for the harmonic and traced seeds keep
        # derive --all and pi --trace each at one cost, apart from the rest.
        harmonic_band, traced_band = ((2, 3), (3, 4)) if tiny else ((4.47, 4.53), (6.47, 6.53))
        rounds = []
        for _ in range(1 if tiny else 40):
            x0 = int(10 ** rng.uniform(*harmonic_band))
            diff_class = rng.randint(1, 8)
            trace_x0 = int(10 ** rng.uniform(*traced_band))
            rounds.append([
                Command("mech", ["mech", "harmonic", "--x0", str(x0)], "harmonic.cfg",
                        ("config", x0)),
                Command("generate", ["generate", "--config", "harmonic.cfg",
                                     "--out", "harmonic.csv"], "out.txt", ("generate", x0)),
                Command("derive_class", ["derive", "--in", "harmonic.csv", "--axis", "i",
                                         "--class", str(diff_class)], "out.txt",
                        ("derive", x0, diff_class)),
                Command("derive_all", ["derive", "--in", "harmonic.csv", "--axis", "i",
                                       "--all"], "out.txt", ("derive_all", x0)),
                Command("render_ascii", ["render", "--in", "harmonic.csv",
                                         "--format", "ascii"], "out.txt", ("ascii", x0)),
                Command("render_svg", ["render", "--in", "harmonic.csv",
                                       "--format", "svg"], "out.txt", ("svg", x0)),
                Command("render_pbm", ["render", "--in", "harmonic.csv",
                                       "--format", "pbm"], "out.txt", ("pbm", x0)),
                Command("pi_1e4", ["pi", "--x0", str(10**4)], "out.txt", ("pi", 10**4)),
                Command("pi_1e12", ["pi", "--x0", str(10**12)], "out.txt", ("pi", 10**12)),
                Command("pi_trace", ["pi", "--x0", str(trace_x0), "--trace", "pi.csv"],
                        "out.txt", ("pi_trace", trace_x0, "pi.csv")),
            ])
        return rounds

    def run(self, t, cmd: Command) -> CommandResult:
        return t.call(f"cli.{cmd.name}", self.spawn, cmd)

    def calibrate(self) -> float:
        # A bare interpreter that builds small records: the exec, loading and
        # page faults every command pays before its first import, which an
        # in-process kernel does not see, plus the object churn of its work.
        return self._launch(["-S", "-c", self.CALIBRATION_CODE],
                            self.workdir / "calibration.out")["cpu_s"]

    def op_clock(self) -> float:
        """CPU seconds used so far by the commands (user + system, per wait4)."""
        return self._child_cpu_s

    def spawn(self, cmd: Command) -> CommandResult:
        out_path = self.workdir / cmd.stdout
        reply = self._launch(["-m", "intfunc.cli", *cmd.argv], out_path)
        self.child_rss_kb[cmd.name] = max(self.child_rss_kb.get(cmd.name, 0), reply["rss_kb"])
        self._child_cpu_s += reply["cpu_s"]
        return CommandResult(reply["code"], out_path.read_bytes(),
                             (self.workdir / "stderr.txt").read_bytes())

    def _launch(self, python_args: list, out_path: Path) -> dict:
        if self._launcher is None:
            # Keep the launcher, the calibration process and the commands on
            # one CPU, so the calibration sees the speed the commands get.
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            self._launcher = subprocess.Popen(
                [sys.executable, str(Path(__file__).with_name("launch.py"))],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=self.env, text=True)
        request = {"argv": [sys.executable, *python_args], "cwd": str(self.workdir),
                   "stdout": str(out_path), "stderr": str(self.workdir / "stderr.txt"),
                   "timeout": CLI_TIMEOUT_S}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        return json.loads(self._launcher.stdout.readline())

    def close(self) -> None:
        """Stop the launcher and wait for it to exit."""
        if self._launcher is not None:
            self._launcher.stdin.close()
            self._launcher.wait()
            self._launcher.stdout.close()
            self._launcher = None

    def _path(self, x0: int) -> tuple:
        """Reference quarter-wave path at x0, kept for the round's commands:
        (i, j, elements, first i coordinate, j at each i step)."""
        if self._last_path[0] != x0:
            i, j, letters = quarter_wave(x0)
            elements = [(0, 0)]
            for letter in letters:
                a, b = elements[-1]
                elements.append((a + 1, b) if letter == "i" else (a, b + 1))
            i_steps = [e for letter, e in zip(letters, elements[1:]) if letter == "i"]
            self._last_path = (x0, (i, j, elements, i_steps[0][0], [e[1] for e in i_steps]))
        return self._last_path[1]

    def check(self, cmd: Command, r: CommandResult) -> int:
        kind = cmd.expect[0]
        out = r.stdout.decode("utf-8", "replace")
        need(r.code == 0,
             f"{cmd.name}: exit {r.code}: {r.stderr.decode(errors='replace')[-200:]}")
        if kind in ("pi", "pi_trace"):
            return self._check_pi(cmd, out)
        x0 = cmd.expect[1]
        i, j, elements, first, cross = self._path(x0)
        if kind == "config":
            want = (f"I0=0\nJ0=0\nMODE=MONOTONE\nSTOP=WHILE_POSITIVE:X\n"
                    f"CAP={4 * math.isqrt(x0) + 16}\nX={x0}\nY={x0}\nXX=-1\nXXY=-1\n")
            need(out == want, f"mech harmonic --x0 {x0}: config differs from the preset")
            return 0
        if kind == "generate":
            want = f"wrote harmonic.csv: {i + j} steps, end [{i}, {j}]\n"
            need(out == want, f"generate: {out!r} != {want!r}")
            return i + j
        if kind == "derive":
            rows = reference_field(first, cross, cmd.expect[2])
            want = "coordinate,d\n" + "".join(f"{c},{d}\n" for c, d in rows)
            need(out == want, f"derive --class {cmd.expect[2]} differs from the reference")
            return 0
        if kind == "derive_all":
            want = ["class,coordinate,d\n"]
            for diff_class in range(1, len(cross)):
                want.extend(f"{diff_class},{c},{d}\n"
                            for c, d in reference_field(first, cross, diff_class))
            need(out == "".join(want), "derive --all differs from the reference")
            return 0
        cells = set(elements)
        if kind in ("ascii", "pbm"):
            on, off = ("#", ".") if kind == "ascii" else ("1", "0")
            grid = [[off] * (i + 1) for _ in range(j + 1)]
            for a, b in cells:
                grid[j - b][a] = on
            want = "".join("".join(row) + "\n" for row in grid)
            if kind == "pbm":
                want = f"P1\n{i + 1} {j + 1}\n" + want
            need(out == want, f"render --format {kind} differs from the reference grid")
            return 0
        need(out.startswith("<?xml") and out.count("<rect ") == len(cells),
             f"render --format svg: {out.count('<rect ')} rects for {len(cells)} cells")
        return 0

    def _check_pi(self, cmd: Command, out: str) -> int:
        x0 = cmd.expect[1]
        if x0 in GOLDEN_PI:
            i, j, lower, upper = GOLDEN_PI[x0]
        else:
            i, j, _ = quarter_wave(x0)
            lower = format_bound(Fraction(i - 1, j + 1), round_up=False)
            upper = format_bound(Fraction(i + 1, j), round_up=True)
        lines = out.splitlines()
        want = f"i={i} j={j} lower={lower} upper={upper} steps={i + j} elapsed="
        need(bool(lines) and lines[0].startswith(want)
             and re.fullmatch(r"elapsed=\d+\.\d{3}s", lines[0][len(want) - 8:]) is not None,
             f"pi --x0 {x0}: {lines[:1]} does not match {want}...")
        if cmd.expect[0] == "pi":
            need(len(lines) == 1, f"pi --x0 {x0}: unexpected extra output")
            return i + j
        trace_file = cmd.expect[2]
        need(lines[1:] == [f"wrote {trace_file}: {i + j} steps"],
             f"pi --x0 {x0} --trace: {lines[1:]} is not the trace summary")
        with open(self.workdir / trace_file, "rb") as handle:
            rows = sum(chunk.count(b"\n") for chunk in iter(lambda: handle.read(1 << 20), b""))
        need(rows == i + j + 1, f"pi --x0 {x0} --trace: {rows - 1} trace rows, want {i + j}")
        return i + j


class DefectProbe(CliSession):
    """`pi --x0 1e14 --trace`: the command a user runs to trace the golden
    1e14 row.  In intfunc 0.1.0 it prints the bounds and then exits 4
    (register overflow while tracing).  The check rule is: exit 0 with the
    golden line and a full trace, or a documented non-zero exit with empty
    stdout.  Kept out of BENCHMARK.json, whose workloads must not fail."""

    name = "defect_probe"

    def build(self, seed: int, tiny: bool = False) -> list[list[Command]]:
        return [[Command("pi_trace_1e14", ["pi", "--x0", str(10**14), "--trace", "big.csv"],
                         "out.txt", ("pi_trace", 10**14, "big.csv"))]]

    def check(self, cmd: Command, r: CommandResult) -> int:
        if r.code in (4, 5):
            need(r.stdout == b"", f"{cmd.name}: printed a result, then exited {r.code}")
            return 0
        return super().check(cmd, r)


def make(name: str, root: Path, workdir: Path):
    if name == CliSession.name:
        return CliSession(root, workdir)
    if name == DefectProbe.name:
        return DefectProbe(root, workdir)
    return {w.name: w for w in (PiBracket, TracePipeline, DigitizeView)}[name]()


WORKLOADS = ("pi_bracket", "trace_pipeline", "digitize_view", "cli_session")
EXTRA_WORKLOADS = ("defect_probe",)
