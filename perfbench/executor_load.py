"""Executor phases, run by every workload.

The four executor phases measure the core runtime with one submitter
in a closed loop on ``Executor(2 workers, 2 GPUs)``:

1. fresh ``run(graph)`` of 2000-task host-only wide/chain/diamond shapes;
2. frozen replays of the same shapes;
3. a seeded pool of ``generate_graph(seed, num_gpus=2)`` CPU-GPU graphs,
   re-run in rotation and checked against their host oracles;
4. the paper's Listing-1 saxpy, rebuilt for every run.

Every workload runs these phases in its own process, as the reference a
gateway or journal change must leave unchanged.  Phases run in slices,
one slice of each per block, and a run is several blocks: the shared
machine's speed drifts over a few seconds, and spreading every metric's
samples over the whole run keeps that drift out of the run-to-run spread.
"""

from __future__ import annotations

import random
import time
from statistics import fmean as mean
from typing import Dict, List, Optional

from common import Checks, Tracer, block_iqm, iqm, median, pick, ratio

N_TASKS = 2000
POOL = 128
#: generated graphs are re-instantiated after this many passes, before
#: repeated affine kernels can drift their arrays towards overflow
PASSES_PER_INSTANCE = 16
SAXPY_TASKS = 7
SHAPES = ("wide", "chain", "diamond")
CORE_KEYS = (
    "executor.tasks_executed", "executor.steals_succeeded", "executor.steals_attempted",
    "executor.sleeps", "executor.wakeups", "executor.notify_count",
    "executor.shared_pops", "executor.local_pops", "replay.fast_path",
)


def _noop() -> None:
    return None


def build_shape(kind: str):
    from repro.core import Heteroflow

    hf = Heteroflow(kind)
    if kind == "wide":
        for _ in range(N_TASKS):
            hf.host(_noop)
    elif kind == "chain":
        prev = None
        for _ in range(N_TASKS):
            t = hf.host(_noop)
            if prev is not None:
                prev.precede(t)
            prev = t
    else:
        for _ in range(N_TASKS // 4):
            a, b, c, d = (hf.host(_noop) for _ in range(4))
            a.precede(b, c)
            d.succeed(b, c)
    return hf


def lane_sum(snap: dict, key: str) -> float:
    v = snap.get(key, 0)
    return sum(v) if isinstance(v, list) else v


def devices(snap: dict) -> List[dict]:
    return [v for k, v in sorted(snap.items()) if k.startswith("gpu") and isinstance(v, dict)]


class ExecutorBench:
    """One ``Executor(2, 2)``, every graph the phases run, and their samples."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        self.pool_seeds = [rng.randrange(1 << 30) for _ in range(POOL)]
        self.ex = None

    def setup(self) -> float:
        """Construction, graph build, freeze and warm-up; returns seconds."""
        from repro.check.generator import generate_graph
        from repro.core import Executor

        t0 = time.perf_counter()
        self.ex = Executor(2, 2, seed=self.seed)
        self.fresh = {k: build_shape(k) for k in SHAPES}
        self.frozen = {k: build_shape(k).freeze() for k in SHAPES}
        self.pool = [[generate_graph(s, num_gpus=2), 0] for s in self.pool_seeds]
        for k in SHAPES:
            self.ex.run(self.fresh[k]).result()
            self.ex.run(self.frozen[k]).result()
        for entry in self.pool:
            self.ex.run(entry[0].graph).result()
            entry[1] += 1
        elapsed = time.perf_counter() - t0
        self._reset()
        return elapsed

    def _reset(self) -> None:
        self.start = self.ex.metrics.snapshot()
        self.expected_tasks = 0
        # samples are kept per block: a metric is the interquartile mean
        # over blocks of its per-block value (see block_iqm)
        self.host = {p: {k: [] for k in SHAPES} for p in ("fresh", "frozen")}
        self.calls: List[float] = []
        self.waits: List[float] = []
        self.host_graphs = 0
        self.core = dict.fromkeys(CORE_KEYS, 0.0)
        self.gpu: List[List[float]] = []
        self.saxpy: List[List[float]] = []

    def close(self) -> None:
        if self.ex is not None:
            self.ex.shutdown()
            self.ex = None

    # -- the four closed-loop phases ------------------------------------
    def _timed(self, graph, rid: str, tracer: Tracer):
        t0 = time.perf_counter()
        fut = self.ex.run(graph)
        t1 = time.perf_counter()
        passes = fut.result()
        t2 = time.perf_counter()
        if tracer.enabled:
            root = tracer.span("client.submit", t0, t2, rid=rid)
            tracer.span("core.run_call", t0, t1, parent=root, rid=rid)
            tracer.span("core.wait", t1, t2, parent=root, rid=rid)
        return passes, t1 - t0, t2 - t1, t2 - t0

    def exec_block(self, budget: Dict[str, float], checks: Checks, tracer: Tracer) -> None:
        """One slice of each executor phase; every slice runs each shape
        (or each pool graph) at least once."""
        from repro.analysis.corpus import build_saxpy
        from repro.check.generator import generate_graph

        snap0 = self.ex.metrics.snapshot()
        for phase, graphs in (("fresh", self.fresh), ("frozen", self.frozen)):
            walls = {kind: [] for kind in SHAPES}
            end = time.perf_counter() + budget[phase]
            first = True
            while first or time.perf_counter() < end:
                first = False
                for kind in SHAPES:
                    rid = f"{phase}{self.host_graphs}.{kind}"
                    passes, call, wait, wall = self._timed(graphs[kind], rid, tracer)
                    checks.op(passes == 1, f"{phase} {kind} run returned {passes}")
                    if phase == "fresh":
                        self.calls.append(call)
                        self.waits.append(wait)
                    walls[kind].append(wall)
                    self.expected_tasks += N_TASKS
                    self.host_graphs += 1
            for kind in SHAPES:
                self.host[phase][kind].append(walls[kind])
        snap1 = self.ex.metrics.snapshot()
        for key in CORE_KEYS:
            self.core[key] += lane_sum(snap1, key) - lane_sum(snap0, key)

        # whole rounds over the pool only, so every block weighs each
        # generated graph the same
        walls = []
        end = time.perf_counter() + budget["gpu"]
        first = True
        while first or time.perf_counter() < end:
            first = False
            for entry in self.pool:
                gen = entry[0]
                rid = f"gpu{len(walls)}.{gen.seed}"
                passes, _c, _w, wall = self._timed(gen.graph, rid, tracer)
                checks.op(passes == 1, f"generated graph seed={gen.seed} returned {passes}")
                entry[1] += 1
                walls.append(wall)
                self.expected_tasks += gen.num_nodes
                if entry[1] >= PASSES_PER_INSTANCE:
                    self._verify(checks, entry)
                    entry[0] = generate_graph(gen.seed, num_gpus=2)
                    entry[1] = 0

        self.gpu.append(walls)

        walls = []
        end = time.perf_counter() + budget["saxpy"]
        first = True
        while first or time.perf_counter() < end:
            first = False
            hf, x, y, size = build_saxpy()
            passes, _c, _w, wall = self._timed(hf, f"saxpy{len(self.saxpy)}.{len(walls)}", tracer)
            ok = passes == 1 and len(y) == size and y == [4] * size and x == [1] * size
            checks.op(ok, "saxpy result is not y == 4")
            walls.append(wall)
            self.expected_tasks += SAXPY_TASKS
        self.saxpy.append(walls)

    @staticmethod
    def _verify(checks: Checks, entry: list) -> None:
        gen, passes = entry
        if passes:
            problems = gen.verify(passes=passes)
            checks.check(f"oracle[seed={gen.seed}]", not problems, "; ".join(problems[:3]))

    def results(self, checks: Checks, keep: Optional[List[int]] = None) -> dict:
        """End-to-end, per-layer and diagnostic values of every slice so far.

        End-to-end values are medians over the blocks in *keep* (all blocks
        when None); checks and counters cover every block."""
        for entry in self.pool:
            self._verify(checks, entry)
        end = self.ex.metrics.snapshot()
        executed = (lane_sum(end, "executor.tasks_executed")
                    - lane_sum(self.start, "executor.tasks_executed"))
        checks.equal("core.tasks_executed", executed, self.expected_tasks)
        c = self.core
        pops = c["executor.shared_pops"] + c["executor.local_pops"] + c["executor.steals_succeeded"]
        layer = {
            "core.run_call_ms": median(self.calls) * 1e3,
            "core.wait_ms": median(self.waits) * 1e3,
            "core.tasks_executed": executed,
            "core.steal_success_ratio": ratio(c["executor.steals_succeeded"],
                                              c["executor.steals_attempted"]),
            "core.sleeps_per_graph": ratio(c["executor.sleeps"], self.host_graphs),
            "core.wakeups_per_graph": ratio(c["executor.wakeups"], self.host_graphs),
            "core.notify_per_graph": ratio(c["executor.notify_count"], self.host_graphs),
            "core.shared_pop_share": ratio(c["executor.shared_pops"], pops),
            "core.replay_fast_path": c["replay.fast_path"],
        }
        dev0, dev1 = devices(self.start), devices(end)

        def dsum(key):
            return sum(b[key] - a[key] for a, b in zip(dev0, dev1))

        def psum(key):
            return sum(b["pool"][key] - a["pool"][key] for a, b in zip(dev0, dev1))

        gpu_runs = sum(len(b) for b in self.gpu)
        saxpy_runs = sum(len(b) for b in self.saxpy)
        gpu_wall = sum(sum(b) for b in self.gpu) + sum(sum(b) for b in self.saxpy)
        outstanding = sum(dv["pool"]["outstanding"] for dv in dev1)
        checks.equal("gpu.pool_outstanding", outstanding, 0)
        layer.update({
            "gpu.busy_share": ratio(dsum("busy_seconds"), gpu_wall * len(dev1)),
            "gpu.kernel_launches_per_graph": ratio(dsum("kernel_launches"), gpu_runs + saxpy_runs),
            "gpu.h2d_bytes_per_graph": ratio(dsum("h2d_bytes"), gpu_runs + saxpy_runs),
            "gpu.d2h_bytes_per_graph": ratio(dsum("d2h_bytes"), gpu_runs + saxpy_runs),
            "gpu.pool_splits_per_alloc": ratio(psum("splits"), psum("allocs")),
            "gpu.pool_peak_bytes": max(dv["pool"]["peak_bytes"] for dv in dev1),
            "gpu.pool_fragmentation": max(dv["pool"]["fragmentation"] for dv in dev1),
            "gpu.pool_outstanding": outstanding,
        })

        def host_wall(phase):
            # each shape keeps its own median; a mix of graph sizes pooled
            # into one median would jump between their modes
            shapes = self.host[phase]
            return [mean(median(shapes[k][b]) for k in SHAPES) for b in range(len(shapes["wide"]))]

        out = {
            "exec.fresh_tasks_per_s": N_TASKS / iqm(pick(host_wall("fresh"), keep)),
            "exec.frozen_tasks_per_s": N_TASKS / iqm(pick(host_wall("frozen"), keep)),
            "exec.gpu_graph_p50_ms": block_iqm(self.gpu, mean, keep) * 1e3,
            "exec.saxpy_p50_ms": block_iqm(self.saxpy, keep=keep) * 1e3,
            "layer": layer,
            "diag": {
                "exec.fresh_p50_ms": {k: block_iqm(self.host["fresh"][k]) * 1e3 for k in SHAPES},
                "exec.frozen_p50_ms": {k: block_iqm(self.host["frozen"][k]) * 1e3 for k in SHAPES},
                "exec.host_runs": self.host_graphs,
                "exec.gpu_runs": gpu_runs,
                "exec.saxpy_runs": saxpy_runs,
            },
        }
        return out
