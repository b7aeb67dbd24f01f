"""Names and units of every metric the benchmark prints, and its statistics.

BENCHMARK.json at the repository root lists the same metrics; the tests
check that the two agree.
"""

from __future__ import annotations

import math
import statistics

WORKLOADS = ("pi_bracket", "trace_pipeline", "digitize_view", "cli_session")
# Runs on request and with --workload all, but is not in BENCHMARK.json:
# it fails in intfunc 0.1.0, and benchmark workloads must not fail.
EXTRA_WORKLOADS = ("defect_probe",)

# Child commands of cli_session, as named in the cli.<cmd>.* metrics.
CLI_COMMANDS = ("mech", "generate", "derive_class", "derive_all", "render_ascii",
                "render_svg", "render_pbm", "pi_1e4", "pi_1e12", "pi_trace")

# (name, unit) of the metrics printed with --trace 0.
END_TO_END = (
    ("setup_s", "s"),
    ("steps_per_s", "steps/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_ops", "ratio"),
)

# (name, unit) of the metrics printed with --trace 1.
PER_LAYER = (
    ("core.generate.calls", "count"),
    ("core.generate.busy_s", "s"),
    ("core.generate.ns_per_step", "ns/step"),
    ("core.generate.trace_bytes_per_step", "B/step"),
    ("core.self_share", "ratio"),
    ("curves.pi_bounds.busy_s", "s"),
    ("curves.pi_bounds.ns_per_step", "ns/step"),
    ("curves.composite_generate.ns_per_step", "ns/step"),
    ("curves.RealSampleSeries.ns_per_sample", "ns/sample"),
    ("curves.digitize.ns_per_sample", "ns/sample"),
    ("curves.self_share", "ratio"),
    ("cli.write_trace.ns_per_row", "ns/row"),
    ("cli.read_trace.ns_per_row", "ns/row"),
    ("cli.trace_io.calls", "count"),
    ("cli.config_roundtrip.us", "us"),
    ("cli.function_from_trace.ns_per_step", "ns/step"),
    *((f"cli.{cmd}.{kind}", unit) for cmd in CLI_COMMANDS
      for kind, unit in (("wall_ms", "ms"), ("peak_rss_mb", "MiB"))),
    ("cli.self_share", "ratio"),
    ("calculus.difference_field.ns_per_entry", "ns/entry"),
    ("calculus.class_derivative.ns_per_step", "ns/step"),
    ("calculus.regulator_monotone_check.ns_per_record", "ns/record"),
    ("calculus.full_derivative.ns_per_entry", "ns/entry"),
    ("calculus.full_derivative.entries", "count"),
    ("calculus.refinement_compatible.ns_per_element", "ns/element"),
    ("calculus.self_share", "ratio"),
    ("render.render_ascii.ns_per_cell", "ns/cell"),
    ("render.render_pbm.ns_per_cell", "ns/cell"),
    ("render.render_svg.ns_per_occupied_cell", "ns/cell"),
    ("render.viewport_cells", "count"),
    ("render.self_share", "ratio"),
    ("bench.self_share", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)

# Tail percentiles, highest first.  Each workload names the highest one it
# reports, chosen so that a run of BENCHMARK.json's length leaves at least
# twice TAIL_BEYOND ops above it; a run that leaves fewer than TAIL_BEYOND
# falls back to the next lower one.  A fixed choice keeps the metric
# comparable between runs whose op counts differ.
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
TAIL_BEYOND = 10


def tail(values: list[float], highest: float) -> tuple[float, float, int]:
    """(percentile, nearest-rank value, ops beyond it) of the latency tail."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (p for p in TAIL_PERCENTILES if p <= highest):
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= TAIL_BEYOND:
            break
    return p, ordered[rank - 1], n - rank


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
