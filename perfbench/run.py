#!/usr/bin/env python3
"""The repo benchmark: one command per workload, checked and measured.

Usage (from the repository root)::

    python3 perfbench/run.py --workload gateway-frozen --seed 1 --seconds 45 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload twice in one process (untraced, then traced, half the time
each) and prints every per-layer metric, the per-layer self-time table
and the tracing overhead, and writes a chrome trace under ``.perfbench/``.
The last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the full result with
the environment fingerprint and diagnostics is saved next to the trace.
See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("gateway-frozen", "gateway-durable")

#: end-to-end metric -> unit, in report order
END_TO_END = {
    "setup_s": "s",
    "exec.fresh_tasks_per_s": "tasks/s",
    "exec.frozen_tasks_per_s": "tasks/s",
    "exec.gpu_graph_p50_ms": "ms",
    "exec.saxpy_p50_ms": "ms",
    "lat_p50_ms.low": "ms",
    "lat_p90_ms.low": "ms",
    "lat_p50_ms.high": "ms",
    "capacity_rps": "1/s",
    "cpu_us_per_req": "us",
}

#: per-layer metric -> unit; a layer a workload bypasses reports 0
PER_LAYER = {
    "core.run_call_ms": "ms",
    "core.wait_ms": "ms",
    "core.tasks_executed": "count",
    "core.steal_success_ratio": "ratio",
    "core.sleeps_per_graph": "1/graph",
    "core.wakeups_per_graph": "1/graph",
    "core.notify_per_graph": "1/graph",
    "core.shared_pop_share": "ratio",
    "core.replay_fast_path": "count",
    "gpu.busy_share": "ratio",
    "gpu.kernel_launches_per_graph": "1/graph",
    "gpu.h2d_bytes_per_graph": "B/graph",
    "gpu.d2h_bytes_per_graph": "B/graph",
    "gpu.pool_splits_per_alloc": "1/alloc",
    "gpu.pool_peak_bytes": "B",
    "gpu.pool_fragmentation": "ratio",
    "gpu.pool_outstanding": "count",
    "service.admission_wait_ms": "ms",
    "service.admitted": "count",
    "service.refused": "count",
    "gateway.submit_call_us": "us",
    "gateway.overhead_ms.p50": "ms",
    "gateway.overhead_ms.p90": "ms",
    "gateway.to_accept_ms": "ms",
    "gateway.return_ms": "ms",
    "gateway.worker_exec_ms": "ms",
    "gateway.heartbeat_rtt_ms": "ms",
    "gateway.cpu_us_per_req.gw": "us",
    "gateway.cpu_us_per_req.workers": "us",
    "gateway.anomalies": "count",
    "journal.fsync_ms.p50": "ms",
    "journal.fsync_ms.p90": "ms",
    "journal.fsyncs_per_req": "1/req",
    "journal.write_us": "us",
    "journal.bytes_per_req": "B/req",
    "journal.segments_end": "count",
    "journal.compactions": "count",
    "journal.dedup_hits": "count",
    "dedupe_p50_us": "us",
    "loadgen.late_p50_ms": "ms",
    "loadgen.late_p99_ms": "ms",
    "floor.pipe_rtt_us": "us",
    "floor.submit_pickle_us": "us",
    "lat_p99_ms.low": "ms",
    "lat_p99_ms.high": "ms",
    "lat_p90_ms.high": "ms",
}
PER_LAYER.update({f"trace.overhead.{k}": u for k, u in END_TO_END.items()})

#: share of --seconds each phase measures for
BUDGET = {
    "fresh": 0.15, "frozen": 0.05, "gpu": 0.08, "saxpy": 0.10,
    "low": 0.25, "high": 0.15, "capacity": 0.20,
}
#: a run is round(--seconds / BLOCK_S) blocks, each holding one slice of
#: every phase, so each metric samples the whole run
BLOCK_S = 3.0
#: hard wall-clock limit of one invocation, including set-up and teardown
MAX_WALL_S = 170.0


def run_workload(workload: str, seed: int, seconds: float, tracer, checks, data_dir: str):
    """One pass of *workload*; returns (end-to-end, per-layer, diagnostics)."""
    import asyncio

    from common import StealMeter, median, reap_children
    from executor_load import ExecutorBench
    from gateway_load import GatewayBench

    blocks = max(1, round(seconds / BLOCK_S))
    budget = {k: f * seconds / blocks for k, f in BUDGET.items()}
    steal = StealMeter()
    exb = ExecutorBench(seed)

    async def drive():
        gb = GatewayBench(workload, seed, data_dir, tracer, checks)
        try:
            times = await gb.setup()
            res = await gb.run(budget, blocks, exb, steal)
        finally:
            await gb.close()
        return times, res

    try:
        exb.setup()
        setups, e2e = asyncio.run(drive())
        checks.equal("teardown.children", reap_children(), 0)
        ex_out = exb.results(checks, steal.quiet())
    finally:
        exb.close()
    layer = e2e.pop("layer")
    diag = {"blocks": blocks, **e2e.pop("diag")}
    layer.update(ex_out.pop("layer"))
    diag.update(ex_out.pop("diag"))
    e2e.update(ex_out)
    e2e["setup_s"] = median(setups)
    diag["setup_s.samples"] = setups
    diag["steal_share.blocks"] = steal.shares
    diag["quiet_blocks"] = steal.quiet()
    for key in ("lat_p99_ms.low", "lat_p99_ms.high", "loadgen.late_p50_ms", "loadgen.late_p99_ms"):
        layer[key] = diag[key]
    layer["lat_p90_ms.high"] = e2e.pop("lat_p90_ms.high")
    return e2e, layer, diag


def watchdog(seconds: float, workload: str) -> threading.Timer:
    """Fail the run, reap every child and exit if it outlives *seconds*."""
    from common import reap_children, stop_resource_tracker

    def expire() -> None:
        killed = reap_children()
        stop_resource_tracker()
        print(f"perfbench: {workload} exceeded {seconds:.0f}s; reaped {killed} child process(es)",
              file=sys.stderr)
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        print(json.dumps(result), flush=True)
        os._exit(3)

    timer = threading.Timer(seconds, expire)
    timer.daemon = True
    timer.start()
    return timer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    from common import (Checks, Tracer, environment, pickle_rtt_us, pipe_rtt_us, reap_children,
                        self_time_table, stop_resource_tracker)

    data_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(data_dir, exist_ok=True)
    timer = watchdog(min(MAX_WALL_S, 60.0 + 5.0 * args.seconds), args.workload)
    env = environment(ROOT, data_dir)
    checks = Checks()
    metrics: dict = {}
    diag: dict = {}
    tracer = Tracer(enabled=bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END
    try:
        if not args.trace:
            e2e, _layer, diag = run_workload(args.workload, args.seed, args.seconds,
                                             Tracer(False), checks, data_dir)
            metrics = {k: e2e[k] for k in END_TO_END}
        else:
            half = args.seconds / 2
            plain, _l, _d = run_workload(args.workload, args.seed, half, Tracer(False),
                                         checks, data_dir)
            traced, layer, diag = run_workload(args.workload, args.seed, half, tracer,
                                               checks, data_dir)
            from repro.gateway import messages

            layer["floor.pipe_rtt_us"] = pipe_rtt_us()
            layer["floor.submit_pickle_us"] = pickle_rtt_us(messages.Submit(rid=1, fid=1))
            for k in END_TO_END:
                layer[f"trace.overhead.{k}"] = traced[k] - plain[k]
            metrics = {k: layer.get(k, 0.0) for k in PER_LAYER}
            diag["bypassed"] = sorted(k for k in PER_LAYER if k not in layer)
    except Exception:  # noqa: BLE001 - the run must report, not crash
        traceback.print_exc()
        checks.check("exception", False, traceback.format_exc(limit=3).strip().splitlines()[-1])
    finally:
        # no process of the run may outlive it: the gateway's workers are
        # joined by its shutdown, and the tracker they started is next
        checks.equal("teardown.leftover_children", reap_children(), 0)
        checks.check("teardown.resource_tracker", stop_resource_tracker(),
                     "did not exit when its pipe closed")
        timer.cancel()
    env["loadavg_end"] = list(os.getloadavg())

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    print(f"environment: {json.dumps(env)}")
    for k, v in diag.items():
        print(f"  {k:<40} {v}")
    for k, v in metrics.items():
        print(f"{k:<40} {v:>16.6g} {units[k]}")
    if tracer.spans:
        requests = sum(1 for s in tracer.spans if s["name"] == "client.submit")
        print(self_time_table(tracer, requests))
        trace_path = os.path.join(data_dir, f"trace-{tag}.json")
        tracer.write_chrome(trace_path)
        print(f"chrome trace: {os.path.relpath(trace_path, ROOT)}")
    for p in checks.problems:
        print(f"PROBLEM: {p}", file=sys.stderr)
    result = {
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    os.makedirs(os.path.join(data_dir, "results"), exist_ok=True)
    with open(os.path.join(data_dir, "results", f"{tag}.json"), "w") as fh:
        json.dump({"result": result, "environment": env, "diagnostics": diag,
                   "problems": checks.problems}, fh, indent=1, default=str)
    print(json.dumps(result), flush=True)
    return 0 if checks.correct else 1


if __name__ == "__main__":
    sys.exit(main())
