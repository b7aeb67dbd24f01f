"""Run one workload in this process and print its results as one JSON line.

run.py starts a fresh worker for every workload run, so the worker's peak
RSS belongs to that workload alone.  With --trace 0 the worker times ops
with tracing off.  With --trace 1 it first runs whole rounds untraced for
half the time, then replays exactly those rounds with a span around every
call; the difference in summed op time is the tracing overhead.  Only the
traced run turns tracemalloc on, and only around a separate replay of
``generate``, so allocation tracking does not slow the timed spans.

An op's time is the CPU time it used: of this thread, or for cli_session of
the command, from wait4.  On a shared machine other processes preempt the
op at random, and wall time would count that.  Every time reported is also
scaled by the host's speed, measured around each op with the workload's
calibration kernel (see workloads.py): an op that took t CPU seconds
between kernel runs of k1 and k2 seconds is reported as
t * ref / ((k1 + k2) / 2), where ref is the kernel's reference time.
Wall-clock figures are kept and printed unscaled beside them.
"""

from __future__ import annotations

import argparse
import json
import sys
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time, thread_time

from metrics import CLI_COMMANDS, median, tail
from tracing import LAYERS, OP_SPAN, NullTracer, Tracer, layer_of

ROOT = Path(__file__).resolve().parent.parent
MAX_ERRORS = 5


@dataclass
class Pass:
    """Ops of one pass, as (CPU seconds, steps, error, wall seconds), the
    calibration kernel's time before each op and after the last, and the
    rounds run."""

    ops: list = field(default_factory=list)
    calibration: list = field(default_factory=list)
    rounds: int = 0

    def slowdowns(self, ref: float) -> list[float]:
        """Per op: the host's slowness against the reference speed."""
        c = self.calibration
        return [(c[i] + c[i + 1]) / 2 / ref for i in range(len(self.ops))]

    def scaled_walls(self, ref: float) -> list[float]:
        return [op[0] / s for op, s in zip(self.ops, self.slowdowns(ref))]

    def errors(self) -> list[str]:
        return [op[2] for op in self.ops if op[2] is not None]


def run_pass(workload, rounds, tracer, seconds=None, count=None) -> Pass:
    """Run whole rounds for ``seconds`` (or exactly ``count`` rounds).

    The time of an op covers the op alone, never its output check.  An op
    that raises, or whose output fails its check, is counted as failed.
    """
    clock = getattr(workload, "op_clock", thread_time)
    result = Pass()
    deadline = perf_counter() + seconds if seconds is not None else None
    while result.rounds < count if count is not None else perf_counter() < deadline:
        for inp in rounds[result.rounds % len(rounds)]:
            result.calibration.append(workload.calibrate())
            tracer.op += 1
            cpu, started = clock(), perf_counter()
            try:
                output = tracer.call(OP_SPAN, workload.run, tracer, inp)
            except Exception as exc:
                result.ops.append((clock() - cpu, 0, f"{type(exc).__name__}: {exc}",
                                   perf_counter() - started))
                continue
            cpu, wall = clock() - cpu, perf_counter() - started
            try:
                result.ops.append((cpu, workload.check(inp, output), None, wall))
            except Exception as exc:
                result.ops.append((cpu, 0, f"{type(exc).__name__}: {exc}", wall))
            del output
        result.rounds += 1
    result.calibration.append(workload.calibrate())
    return result


def end_to_end(run: Pass, ref: float, tail_percentile: float) -> dict:
    walls = run.scaled_walls(ref)
    p, value, beyond = tail(walls, tail_percentile)
    return {
        "steps_per_s": sum(op[1] for op in run.ops) / sum(walls),
        "op_p50_ms": median(walls) * 1e3,
        "op_tail_ms": value * 1e3,
        "ok_ops": (len(run.ops) - len(run.errors())) / len(run.ops),
        "tail_percentile": p,
        "tail_beyond": beyond,
        "wall_op_p50_ms": median(op[3] for op in run.ops) * 1e3,
        "slowdown": median(run.slowdowns(ref)),
    }


def layer_metrics(tracer: Tracer, untraced: Pass, traced: Pass, ref: float,
                  child_rss_kb: dict, bytes_per_step: float) -> dict:
    # Tracer op ids count from 1 in the order of traced.ops.
    spans = tracer.summary({op: s for op, s in enumerate(traced.slowdowns(ref), start=1)})

    def stat(name, key):
        return spans[name][key] if name in spans else 0

    def per_unit(name, scale):
        units = stat(name, "units")
        return stat(name, "busy_s") / units * scale if units else 0.0

    def per_call(name, scale):
        calls = stat(name, "calls")
        return stat(name, "busy_s") / calls * scale if calls else 0.0

    op_time = stat(OP_SPAN, "busy_s")
    self_time = defaultdict(float)
    for name, entry in spans.items():
        self_time[layer_of(name)] += entry["self_s"]
    roundtrip = ("cli.format_config", "cli.parse_config_items", "cli.config_from_items")
    out = {
        "core.generate.calls": stat("core.generate", "calls"),
        "core.generate.busy_s": stat("core.generate", "busy_s"),
        "core.generate.ns_per_step": per_unit("core.generate", 1e9),
        "core.generate.trace_bytes_per_step": bytes_per_step,
        "curves.pi_bounds.busy_s": stat("curves.pi_bounds", "busy_s"),
        "curves.pi_bounds.ns_per_step": per_unit("curves.pi_bounds", 1e9),
        "curves.composite_generate.ns_per_step": per_unit("curves.composite_generate", 1e9),
        "curves.RealSampleSeries.ns_per_sample": per_unit("curves.RealSampleSeries", 1e9),
        "curves.digitize.ns_per_sample": per_unit("curves.digitize", 1e9),
        "cli.write_trace.ns_per_row": per_unit("cli.write_trace", 1e9),
        "cli.read_trace.ns_per_row": per_unit("cli.read_trace", 1e9),
        "cli.trace_io.calls": stat("cli.write_trace", "calls") + stat("cli.read_trace", "calls"),
        "cli.config_roundtrip.us": sum(per_call(name, 1e6) for name in roundtrip),
        "cli.function_from_trace.ns_per_step": per_unit("cli.function_from_trace", 1e9),
        "calculus.difference_field.ns_per_entry": per_unit("calculus.difference_field", 1e9),
        "calculus.class_derivative.ns_per_step": per_unit("calculus.class_derivative", 1e9),
        "calculus.regulator_monotone_check.ns_per_record":
            per_unit("calculus.regulator_monotone_check", 1e9),
        "calculus.full_derivative.ns_per_entry": per_unit("calculus.full_derivative", 1e9),
        "calculus.full_derivative.entries":
            median(tracer.units_per_op("calculus.full_derivative")),
        "calculus.refinement_compatible.ns_per_element":
            per_unit("calculus.refinement_compatible", 1e9),
        "render.render_ascii.ns_per_cell": per_unit("render.render_ascii", 1e9),
        "render.render_pbm.ns_per_cell": per_unit("render.render_pbm", 1e9),
        "render.render_svg.ns_per_occupied_cell": per_unit("render.render_svg", 1e9),
        "render.viewport_cells": median(tracer.units_per_op("render.Viewport.around")),
        "trace.overhead_s": sum(traced.scaled_walls(ref)) - sum(untraced.scaled_walls(ref)),
        "trace.spans": len(tracer.spans),
    }
    for layer in LAYERS:
        out[f"{layer}.self_share"] = self_time[layer] / op_time if op_time else 0.0
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.wall_ms"] = per_call(f"cli.{cmd}", 1e3)
        out[f"cli.{cmd}.peak_rss_mb"] = child_rss_kb.get(cmd, 0) / 1024
    return out


def measure(workload, rounds, args) -> tuple[dict, list, int]:
    """Untraced end-to-end run (--trace 0) or untraced-then-traced layer run.

    Returns the metrics, the failed ops' errors and the ops attempted.
    """
    ref = workload.calibration_ref_s
    if args.trace == 0:
        run = run_pass(workload, rounds, NullTracer(), seconds=args.seconds)
        return end_to_end(run, ref, workload.tail_percentile), run.errors(), len(run.ops)
    untraced = run_pass(workload, rounds, NullTracer(), seconds=args.seconds / 2)
    tracer = Tracer()
    traced = run_pass(workload, rounds, tracer, count=untraced.rounds)
    bytes_per_step = 0.0
    probe = getattr(workload, "memory_probe", None)
    if probe is not None:
        tracemalloc.start()
        try:
            retained, steps = probe(rounds[0])
        finally:
            tracemalloc.stop()
        bytes_per_step = retained / steps
    result = layer_metrics(tracer, untraced, traced, ref,
                           getattr(workload, "child_rss_kb", {}), bytes_per_step)
    result["full_derivative_entries_per_op"] = tracer.units_per_op("calculus.full_derivative")
    if args.spans is not None:
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(args.spans)
    return result, untraced.errors() + traced.errors(), len(untraced.ops) + len(traced.ops)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="write the traced run's spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # Set-up: import the package from the checkout and build the inputs.
    cpu, started = process_time(), perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    workload = workloads.make(args.workload, ROOT, args.workdir)
    rounds = workload.build(args.seed)
    setup_s, setup_wall_s = process_time() - cpu, perf_counter() - started
    try:
        slowdown = median(workload.calibrate() for _ in range(5)) / workload.calibration_ref_s
        out = {"setup_s": setup_s / slowdown, "wall_setup_s": setup_wall_s}
        if not args.setup_only:
            metrics, errors, attempted = measure(workload, rounds, args)
            out.update(attempted=attempted, failed=len(errors), errors=errors[:MAX_ERRORS],
                       metrics=metrics,
                       child_peak_rss_kb=max(getattr(workload, "child_rss_kb", {}).values(),
                                             default=0))
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
