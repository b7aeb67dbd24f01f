"""Tests of the benchmark itself: seeded inputs, output checks, metric names.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from metrics import END_TO_END, PER_LAYER, WORKLOADS, tail
from tracing import NullTracer, Tracer
from worker import end_to_end, layer_metrics, run_pass

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.fixture
def make_workload(tmp_path):
    made = []

    def make(name):
        workload = workloads.make(name, ROOT, tmp_path)
        made.append(workload)
        return workload

    yield make
    for workload in made:
        if hasattr(workload, "close"):
            workload.close()


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_determines_inputs(make_workload, name):
    workload = make_workload(name)
    assert workload.build(7) == workload.build(7)
    assert workload.build(7) != workload.build(8)
    assert workload.build(7, tiny=True) == workload.build(7, tiny=True)


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_passes_every_check(make_workload, name):
    workload = make_workload(name)
    rounds = workload.build(3, tiny=True)
    untraced = run_pass(workload, rounds, NullTracer(), count=1)
    assert untraced.rounds == 1 and len(untraced.calibration) == len(untraced.ops) + 1
    assert untraced.errors() == []
    tracer = Tracer()
    traced = run_pass(workload, rounds, tracer, count=1)
    assert traced.errors() == []

    ref = workload.calibration_ref_s
    e2e = end_to_end(untraced, ref, workload.tail_percentile)
    assert {"steps_per_s", "op_p50_ms", "op_tail_ms", "ok_ops"} <= set(e2e)
    assert e2e["ok_ops"] == 1.0 and e2e["steps_per_s"] > 0
    layers = layer_metrics(tracer, untraced, traced, ref,
                           getattr(workload, "child_rss_kb", {}), 0.0)
    assert {metric for metric, _ in PER_LAYER} <= set(layers)


def test_full_size_digitize_round_passes(make_workload):
    # The full-size sample series must be dense enough for both scales.
    workload = make_workload("digitize_view")
    assert run_pass(workload, workload.build(5), NullTracer(), count=1).errors() == []


def test_layer_design_holds_on_tiny_runs(make_workload):
    def shares(name):
        workload = make_workload(name)
        tracer = Tracer()
        rounds = workload.build(4, tiny=True)
        run = run_pass(workload, rounds, tracer, count=1)
        return layer_metrics(tracer, run, run, workload.calibration_ref_s, {}, 0.0)

    pi = shares("pi_bracket")
    assert pi["curves.self_share"] > 0.9
    digitize = shares("digitize_view")
    assert digitize["core.generate.calls"] == 0 and digitize["cli.trace_io.calls"] == 0
    assert digitize["calculus.full_derivative.entries"] > 0


def test_check_rejects_wrong_output(make_workload):
    workload = make_workload("pi_bracket")
    result = workload.run(NullTracer(), 10**4)
    assert workload.check(10**4, result) == 256
    wrong = type(result)(result.i_quarter, result.j_quarter + 1, result.lower,
                         result.upper, result.step_count, result.elapsed)
    with pytest.raises(workloads.CheckFailed):
        workload.check(10**4, wrong)


def test_defect_probe_rule(make_workload):
    probe = make_workload("defect_probe")
    (cmd,), = probe.build(1)
    printed = workloads.CommandResult(4, b"i=15707963 j=9999999 ...\n", b"overflow")
    with pytest.raises(workloads.CheckFailed, match="printed a result"):
        probe.check(cmd, printed)
    refused = workloads.CommandResult(4, b"", b"overflow: ...")
    assert probe.check(cmd, refused) == 0


def test_tail_leaves_ten_ops_beyond():
    values = [float(v) for v in range(1, 401)]
    assert tail(values, 99) == (95, 380.0, 20)
    assert tail(values, 90) == (90, 360.0, 40)
    assert tail(values[:30], 95) == (50, 15.0, 15)


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    tracer.call("op", lambda: tracer.call("core.generate", sum, range(100000)))
    spans = tracer.summary()
    child = spans["core.generate"]["busy_s"]
    assert spans["op"]["self_s"] == pytest.approx(spans["op"]["busy_s"] - child)
    assert spans["core.generate"]["self_s"] == spans["core.generate"]["busy_s"]


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, names", [("0", END_TO_END), ("1", PER_LAYER)])
def test_output_names_every_metric_with_its_unit(trace, names):
    out = _run("--workload", "pi_bracket", "--seed", "1", "--seconds", "0.5",
               "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(names)
    for name, _ in names:
        assert name in out.stdout.split("\n", 1)[1]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run("--workload", "pi_bracket", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
