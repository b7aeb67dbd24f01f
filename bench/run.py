"""intfunc benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload pi_bracket --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from anywhere inside a checkout; the package is imported from the
checkout's src/ directory (it need not be installed).  Each workload runs in
a fresh worker process (worker.py), one op at a time: a closed loop with a
single caller.  --trace 0 prints the end-to-end metrics of an untraced run;
--trace 1 prints the per-layer metrics of a traced run and writes its spans
to .bench_out/.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path

from metrics import END_TO_END, EXTRA_WORKLOADS, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_RUNS = 5          # set-ups per run; setup_s is their median
WORKER_TIMEOUT_S = 150


class WorkerFailed(Exception):
    pass


def spawn_worker(args: list[str], workdir: Path) -> tuple[dict, int]:
    """Run worker.py to completion; return its JSON result and peak RSS (KiB)."""
    out_path = workdir / "worker.json"
    with open(out_path, "wb") as out:
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args,
                                 "--workdir", str(workdir)],
                                stdout=out, start_new_session=True)
        # The worker leads its own process group, so a kill also stops any
        # command it has running.
        timer = threading.Timer(WORKER_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {' '.join(args)} exited {proc.returncode}")
    lines = out_path.read_text(encoding="utf-8").splitlines()
    return json.loads(lines[-1]), usage.ru_maxrss


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; return attempted/failed counts and its metrics."""
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", name, "--seed", str(seed)]
    try:
        setups = []
        if trace == 0:
            for _ in range(SETUP_RUNS - 1):
                setups.append(spawn_worker(
                    common + ["--seconds", "0", "--trace", "0", "--setup-only"], workdir)[0])
        spans = ROOT / ".bench_out" / f"spans-{name}-seed{seed}.json"
        raw, worker_rss_kb = spawn_worker(
            common + ["--seconds", str(seconds), "--trace", str(trace), "--spans", str(spans)],
            workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = raw["metrics"]
    if trace == 0:
        setups.append(raw)
        metrics["setup_s"] = statistics.median(setup["setup_s"] for setup in setups)
        # cli_session reports the largest of its commands; the others, the
        # worker process that ran them.
        metrics["peak_rss_mb"] = (raw["child_peak_rss_kb"] or worker_rss_kb) / 1024
    raw["setup_runs"] = [setup["setup_s"] for setup in setups]
    raw["wall_setup_runs"] = [setup["wall_setup_s"] for setup in setups]
    return raw


def report(name: str, seed: int, trace: int, raw: dict) -> dict:
    """Print one workload's metrics by name with unit; return them for JSON."""
    m = raw["metrics"]
    print(f"{name} seed={seed}: {raw['attempted']} ops, closed loop, 1 caller; "
          f"failed_ops {raw['failed']} of {raw['attempted']}")
    if trace == 0:
        print(f"  host slowdown {m['slowdown']:.3f} against the calibration reference; "
              f"unscaled wall-clock op_p50_ms {m['wall_op_p50_ms']:.4g}, "
              f"set-ups {', '.join(f'{s:.4f}' for s in raw['wall_setup_runs'])} s")
    for error in raw["errors"]:
        print(f"  failed: {error}")
    names = END_TO_END if trace == 0 else PER_LAYER
    out = {}
    for metric, unit in names:
        value = m[metric]
        note = ""
        if metric == "setup_s":
            note = f"median of {len(raw['setup_runs'])} set-ups"
        elif metric == "op_tail_ms":
            note = f"p{m['tail_percentile']:g}, {m['tail_beyond']} of {raw['attempted']} ops beyond it"
        elif metric == "ok_ops":
            note = f"failed_ops {raw['failed']} of {raw['attempted']}"
        print(f"  {metric:48} {value:>14.6g} {unit:10} {note}")
        out[metric] = {"value": value, "unit": unit}
    if trace == 1 and m.get("full_derivative_entries_per_op"):
        print(f"  calculus.full_derivative.entries per op: {m['full_derivative_entries_per_op']}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + EXTRA_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "intfunc" / "__init__.py").is_file():
        print(f"no intfunc package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS + EXTRA_WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for name, raw in results.items():
        for metric, value in report(name, args.seed, args.trace, raw).items():
            metrics[metric if len(names) == 1 else f"{name}.{metric}"] = value
    failed = sum(raw["failed"] for raw in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(raw["attempted"] for raw in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
