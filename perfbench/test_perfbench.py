"""Self-test of the benchmark (not part of the tier-1 suite).

    python3 -m pytest perfbench/test_perfbench.py -q

Smoke-runs every workload, checks that the result checker fails on a
fabricated wrong count or wrong replayed Result, and checks that the
traced run's spans are well formed and join across layers by request id.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run as bench  # noqa: E402
from common import Checks, Tracer, check_replays  # noqa: E402


def _run(workload: str, trace: int, seconds: float = 2.0, seed: int = 7):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=175,
    )
    assert proc.stdout.strip(), proc.stderr
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_reports_every_metric_with_its_unit(workload):
    proc, res = _run(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == set(bench.END_TO_END)
    for name, metric in res["metrics"].items():
        assert metric["unit"] == bench.END_TO_END[name]
        assert metric["value"] > 0, name


def test_benchmark_json_names_what_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


def test_checker_fails_on_a_wrong_count():
    from executor_load import ExecutorBench

    exb = ExecutorBench(seed=3)
    try:
        exb.setup()
        budget = {"fresh": 0.0, "frozen": 0.0, "gpu": 0.0, "saxpy": 0.0}
        honest = Checks()
        exb.exec_block(budget, honest, Tracer(False))
        exb.results(honest)
        assert honest.correct, honest.problems

        fabricated = Checks()
        exb.exec_block(budget, fabricated, Tracer(False))
        exb.expected_tasks += 1  # one task the executor never ran
        exb.results(fabricated)
    finally:
        exb.close()
    assert not fabricated.correct
    assert fabricated.failed == 1
    assert any("core.tasks_executed" in p for p in fabricated.problems)


def test_checker_fails_on_a_wrong_replayed_result():
    from repro.gateway import Result

    original = {"k1": Result("completed", passes=1, wall_s=0.001, wid=0),
                "k2": Result("completed", passes=1, wall_s=0.002, wid=1)}
    good = Checks()
    good.op(True)
    check_replays(good, original, dict(original))
    assert good.correct

    wrong = dict(original, k2=Result("completed", passes=1, wall_s=0.002, wid=0))
    bad = Checks()
    bad.op(True)
    check_replays(bad, original, wrong)
    assert not bad.correct and bad.failed == 1


def test_traced_run_emits_spans_that_join_across_layers():
    proc, res = _run("gateway-durable", trace=1, seed=11)
    assert proc.returncode == 0, proc.stderr
    assert set(res["metrics"]) == set(bench.PER_LAYER)
    assert res["metrics"]["journal.dedup_hits"]["value"] > 0
    path = os.path.join(ROOT, ".perfbench", "trace-gateway-durable-s11-t1.json")
    with open(path) as fh:
        events = [e for e in json.load(fh)["traceEvents"] if e["ph"] == "X"]
    spans = {e["args"]["id"]: e for e in events}
    assert len(spans) == len(events), "span ids are unique"
    for e in events:
        assert e["name"] and e["dur"] >= 0 and e["ts"] >= 0
        parent = e["args"]["parent"]
        assert parent == 0 or parent in spans, e
        if parent:
            assert spans[parent]["args"]["rid"] == e["args"]["rid"], e

    def root(e):
        while e["args"]["parent"]:
            e = spans[e["args"]["parent"]]
        return e

    by_rid = {}
    for e in events:
        by_rid.setdefault(e["args"]["rid"], set()).add(e["name"])
        assert root(e)["name"] == "client.submit", e
    layers = {"client.submit", "gateway.submit_call", "gateway.to_accept", "worker.exec",
              "gateway.return", "gateway.settle", "journal.write", "journal.fsync"}
    joined = [rid for rid, names in by_rid.items() if layers <= names]
    assert joined, "no request has spans in every gateway and journal layer"
    assert any({"core.run_call", "core.wait"} <= names for names in by_rid.values())
