"""Gateway workloads: one asyncio loop driving a 2-worker ``Gateway``.

``gateway-frozen`` replays a frozen 1-task ``BurstSpec`` with no journal;
``gateway-durable`` submits unique-key ``GeneratedSpec`` graphs through an
fsync-always ``Journal`` and then replays a seeded sample of settled keys.
Both run a Poisson open loop at a low and a high rate (latency timed from
when each request was due) and a 2-client closed loop for capacity.
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import time
from typing import Dict, List, Optional

from common import (
    Checks,
    Tracer,
    LoopSlice,
    StealMeter,
    block_iqm,
    check_replays,
    children_cpu_s,
    iqm,
    median,
    p90,
    pick,
    poisson_schedule,
    quantile,
    ratio,
    settle_heap,
    timing_os,
)
from executor_load import lane_sum

SETUPS = 3
WARMUP = 40
DEDUPE_SAMPLE = 512
SPEC_POOL = 64
#: open-loop rates (requests/s): low and high per workload
RATES = {"gateway-frozen": (400.0, 1000.0), "gateway-durable": (100.0, 200.0)}
ANOMALIES = (
    "gateway.worker_deaths",
    "gateway.replans",
    "gateway.breaker.opened",
    "gateway.hedge.launched",
    "gateway.retry_budget.exhausted",
)


class Req:
    """One submission as the client saw it (perf_counter stamps)."""

    __slots__ = ("rid", "due", "block", "sent", "called", "done", "accepted", "settled",
                 "result", "sub", "root", "call_sid", "key", "spec_seed")

    def __init__(self, rid: str, due: float, block: int) -> None:
        self.rid = rid
        self.due = due
        self.block = block
        self.sent = self.called = self.done = 0.0
        self.accepted = self.settled = 0.0
        self.result = None
        self.sub = None
        self.root = self.call_sid = 0
        self.key = ""
        self.spec_seed = 0


class GatewayBench:
    def __init__(self, workload: str, seed: int, data_dir: str, tracer: Tracer,
                 checks: Checks) -> None:
        self.workload = workload
        self.durable = workload == "gateway-durable"
        self.seed = seed
        self.data_dir = data_dir
        self.tracer = tracer
        self.checks = checks
        self.rng = random.Random(seed ^ 0x5EED)
        self.spec_seeds = [self.rng.randrange(1 << 30) for _ in range(SPEC_POOL)]
        self.gw = None
        self.journal = None
        self.jdir: Optional[str] = None
        self.timing = None
        self.fh = None
        self.reqs: Dict[str, List[Req]] = {}
        self._n = 0
        self._block = 0
        self._events: List[asyncio.Task] = []
        self._node_counts: Dict[int, int] = {}

    # -- setup / teardown ------------------------------------------------
    async def _setup_once(self, k: int) -> float:
        from repro.durability import Journal
        from repro.gateway import BurstSpec, Gateway, WorkerConfig

        t0 = time.perf_counter()
        journal = None
        if self.durable:
            self.jdir = os.path.join(self.data_dir, f"journal-{os.getpid()}-{k}")
            shutil.rmtree(self.jdir, ignore_errors=True)
            self.timing = timing_os(self.tracer) if self.tracer.enabled else None
            journal = Journal(self.jdir, fsync_policy="always", os_impl=self.timing)
        self.gw = Gateway(
            2,
            worker=WorkerConfig(threads=1, gpus=1, max_topologies=8, policy="block"),
            journal=journal,
            seed=self.seed,
        )
        self.journal = journal
        await self.gw.start()
        self.fh = await self.gw.freeze(BurstSpec(width=1))
        return time.perf_counter() - t0

    async def setup(self) -> List[float]:
        """Start + journal open + freeze, SETUPS times; keeps the last pool."""
        times = []
        for k in range(SETUPS):
            times.append(await self._setup_once(k))
            if k < SETUPS - 1:
                await self.close()
        return times

    async def close(self) -> None:
        gw, self.gw = self.gw, None
        try:
            if gw is not None:
                await gw.shutdown(drain_timeout=10.0)
        finally:
            for task in self._events:
                task.cancel()
            self._events.clear()
            if self.jdir is not None:
                shutil.rmtree(self.jdir, ignore_errors=True)
                self.jdir = None

    # -- one request -------------------------------------------------------
    def _send(self, phase: str, due: float) -> Req:
        from repro.gateway import GeneratedSpec

        self._n += 1
        req = Req(f"{phase}{self._n}", due, self._block)
        tr = self.tracer
        if tr.enabled:
            req.root, req.call_sid = tr.new_id(), tr.new_id()
            tr.current, tr.current_rid = req.call_sid, req.rid
        req.sent = time.perf_counter()
        if self.durable:
            req.key = f"s{self.seed}-r{self._n}"
            req.spec_seed = self.spec_seeds[self._n % SPEC_POOL]
            sub = self.gw.submit(GeneratedSpec(req.spec_seed, num_gpus=1),
                                 idempotency_key=req.key)
        else:
            sub = self.gw.submit(self.fh)
        req.called = time.perf_counter()
        req.sub = sub

        def done(fut, r=req) -> None:
            r.done = time.perf_counter()
            if not fut.cancelled() and fut.exception() is None:
                r.result = fut.result()

        sub.future.add_done_callback(done)
        if tr.enabled:
            tr.current = 0
            if sub.jid:
                tr.by_jid[sub.jid] = (req.rid, req.root)
            self._events.append(asyncio.ensure_future(self._consume(sub, req)))
        self.reqs.setdefault(phase, []).append(req)
        return req

    @staticmethod
    async def _consume(sub, req: Req) -> None:
        async for ev in sub.events():
            if ev["kind"] == "accepted":
                req.accepted = time.perf_counter()
            elif ev["kind"] == "settled":
                req.settled = time.perf_counter()

    async def _wait(self, reqs: List[Req]) -> None:
        futs = [r.sub.future for r in reqs if r.sub is not None and not r.sub.future.done()]
        if futs:
            await asyncio.wait_for(asyncio.gather(*futs, return_exceptions=True), 60.0)
        # done-callbacks stamp on the next loop turn after the result is set
        await asyncio.sleep(0)
        if self._events:
            await asyncio.wait_for(asyncio.gather(*self._events, return_exceptions=True), 60.0)
            self._events.clear()
        # settled handles are garbage the collector would rescan all run
        for r in reqs:
            r.sub = None

    # -- load shapes -------------------------------------------------------
    async def open_loop(self, phase: str, rate: float, duration: float) -> List[Req]:
        schedule = poisson_schedule(self.rng, rate, duration)
        reqs = []
        base = time.perf_counter() + 0.002
        for off in schedule:
            due = base + off
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            reqs.append(self._send(phase, due))
        await self._wait(reqs)
        return reqs

    async def closed_loop(self, phase: str, duration: float, clients: int = 2):
        end = time.perf_counter() + duration
        done = [0]

        async def client() -> None:
            while time.perf_counter() < end:
                req = self._send(phase, time.perf_counter())
                await req.sub.future
                done[0] += 1

        sl = LoopSlice(lambda: (time.process_time(), children_cpu_s()))
        await asyncio.gather(*(client() for _ in range(clients)))
        sl.finish(done[0])
        await self._wait(self.reqs[phase])
        return sl

    # -- the workload -------------------------------------------------------
    async def run(self, budget: Dict[str, float], blocks: int, exb, steal: StealMeter) -> dict:
        """Warm up, then *blocks* rounds of: an executor slice (in a thread,
        so heartbeats keep flowing), the low and high open loops and the
        closed loop; then the dedupe replay and every check."""
        gw = self.gw
        for _ in range(WARMUP):
            await self._send("warmup", time.perf_counter()).sub.future
        await self._wait(self.reqs["warmup"])
        w0 = await gw.worker_metrics()
        g0 = gw.snapshot()
        j0 = self.journal.metrics.snapshot() if self.durable else {}

        low_rate, high_rate = RATES[self.workload]
        loops, health = [], []
        for self._block in range(blocks):
            settle_heap()
            steal.start()
            await asyncio.to_thread(exb.exec_block, budget, self.checks, self.tracer)
            await self.open_loop("low", low_rate, budget["low"])
            await self.open_loop("high", high_rate, budget["high"])
            health.append(gw.health_snapshot())
            loops.append(await self.closed_loop("capacity", budget["capacity"]))
            steal.stop()

        keep = steal.quiet()
        out: dict = {"layer": {}, "diag": {}}
        for phase in ("low", "high"):
            lat = [[] for _ in range(blocks)]
            for r in self.reqs[phase]:
                lat[r.block].append(r.done - r.due)
            out[f"lat_p50_ms.{phase}"] = block_iqm(lat, keep=keep) * 1e3
            out[f"lat_p90_ms.{phase}"] = block_iqm(lat, p90, keep) * 1e3
            out["diag"][f"lat_p99_ms.{phase}"] = quantile([x for b in lat for x in b], 0.99) * 1e3
            out["diag"][f"requests.{phase}"] = len(self.reqs[phase])
        out["capacity_rps"] = iqm([sl.rate for sl in pick(loops, keep)])
        out["cpu_us_per_req"] = iqm([sl.cpu_per_done() for sl in pick(loops, keep)]) * 1e6

        replay_us = self._dedupe() if self.durable else []
        w1 = await gw.worker_metrics()
        g1 = gw.snapshot()
        out["layer"].update(self._layer(w0, w1, g0, g1, j0, health, loops, replay_us))
        self._check_outcomes(w0, w1, g0, g1)
        late = [r.sent - r.due for r in self.reqs["low"]]
        out["diag"].update({
            "loadgen.late_p50_ms": median(late) * 1e3,
            "loadgen.late_p99_ms": quantile(late, 0.99) * 1e3,
            "requests.capacity": len(self.reqs["capacity"]),
        })
        if self.tracer.enabled:
            self._spans()
        return out

    def _dedupe(self) -> List[float]:
        """Closed-loop replay of a seeded sample of already-settled keys."""
        from repro.gateway import GeneratedSpec

        settled = [r for phase in ("low", "high", "capacity") for r in self.reqs[phase]]
        sample = self.rng.sample(settled, min(DEDUPE_SAMPLE, len(settled)))
        originals = {r.key: r.result for r in sample}
        replays, took = {}, []
        for r in sample:
            t0 = time.perf_counter()
            sub = self.gw.submit(GeneratedSpec(r.spec_seed, num_gpus=1), idempotency_key=r.key)
            replays[r.key] = sub.future.result() if sub.future.done() else None
            took.append(time.perf_counter() - t0)
        check_replays(self.checks, originals, replays)
        return took

    def _node_count(self, spec_seed: int) -> int:
        from repro.gateway import GeneratedSpec

        if spec_seed not in self._node_counts:
            graph, _gen = GeneratedSpec(spec_seed, num_gpus=1).build()
            self._node_counts[spec_seed] = len(graph.nodes)
        return self._node_counts[spec_seed]

    def _check_outcomes(self, w0, w1, g0, g1) -> None:
        c = self.checks
        measured = [r for phase in ("low", "high", "capacity") for r in self.reqs[phase]]
        for r in self.reqs["warmup"] + measured:
            res = r.result
            c.op(res is not None and res.ok and res.passes == 1,
                 f"{r.rid}: {getattr(res, 'outcome', 'unsettled')} {getattr(res, 'error', '')}")
        if self.durable:
            expected = sum(self._node_count(r.spec_seed) for r in measured)
        else:
            expected = len(measured)
        executed = sum(lane_sum(w1[w], "executor.tasks_executed")
                       - lane_sum(w0.get(w, {}), "executor.tasks_executed") for w in w1)
        c.equal("worker.tasks_executed", executed, expected)
        if self.durable:
            keys = len(self.reqs["warmup"]) + len(measured)
            counts = self.journal.counts()
            c.equal("journal.accepted", counts["entries"], keys)
            c.equal("journal.settled", counts["settled"], keys)
            c.equal("journal.unsettled", self.journal.metrics.snapshot()["journal.unsettled"], 0)
            c.equal("journal.dedup_hits", g1["journal.dedup_hits"] - g0["journal.dedup_hits"],
                    min(DEDUPE_SAMPLE, len(measured)))

    def _layer(self, w0, w1, g0, g1, j0, health, loops, replay_us) -> dict:
        def wsum(key):
            return sum(w1[w][key] - w0.get(w, {}).get(key, 0) for w in w1)

        wait_sum = sum(w1[w]["service.admission_wait_seconds"]["sum"]
                       - w0[w]["service.admission_wait_seconds"]["sum"] for w in w1)
        wait_n = sum(w1[w]["service.admission_wait_seconds"]["count"]
                     - w0[w]["service.admission_wait_seconds"]["count"] for w in w1)
        refused = wsum("service.rejected") + wsum("service.shed")
        anomalies = sum(g1[k] - g0[k] for k in ANOMALIES)
        self.checks.equal("service.refused", refused, 0)
        self.checks.equal("gateway.anomalies", anomalies, 0)
        low = self.reqs["low"]
        overhead = [(r.done - r.sent) - r.result.wall_s for r in low if r.result]
        accepted = [r for r in low if r.accepted and r.settled and r.result]
        layer = {
            "service.admission_wait_ms": ratio(wait_sum, wait_n) * 1e3,
            "service.admitted": wsum("service.admitted"),
            "service.refused": refused,
            "gateway.submit_call_us": median([r.called - r.sent for r in low]) * 1e6,
            "gateway.overhead_ms.p50": median(overhead) * 1e3,
            "gateway.overhead_ms.p90": quantile(overhead, 0.9) * 1e3,
            "gateway.to_accept_ms": median([r.accepted - r.sent for r in accepted]) * 1e3,
            "gateway.return_ms": median([r.settled - r.accepted - r.result.wall_s
                                         for r in accepted]) * 1e3,
            "gateway.worker_exec_ms": median([r.result.wall_s for r in low if r.result]) * 1e3,
            "gateway.heartbeat_rtt_ms": median([h["ewma_rtt_s"] for snap in health
                                                for h in snap.values()]) * 1e3,
            "gateway.cpu_us_per_req.gw": median([sl.cpu_per_done(0) for sl in loops]) * 1e6,
            "gateway.cpu_us_per_req.workers": median([sl.cpu_per_done(1) for sl in loops]) * 1e6,
            "gateway.anomalies": anomalies,
        }
        if self.durable:
            j1 = self.journal.metrics.snapshot()
            new = sum(len(self.reqs[p]) for p in ("low", "high", "capacity"))
            fs = self.timing.fsync_s if self.timing else []
            ws = self.timing.write_s if self.timing else []
            layer.update({
                "journal.fsync_ms.p50": median(fs) * 1e3,
                "journal.fsync_ms.p90": quantile(fs, 0.9) * 1e3,
                "journal.fsyncs_per_req": ratio(j1["journal.fsyncs"] - j0["journal.fsyncs"], new),
                "journal.write_us": median(ws) * 1e6,
                "journal.bytes_per_req": ratio(j1["journal.bytes"] - j0["journal.bytes"], new),
                "journal.segments_end": j1["journal.segments"],
                "journal.compactions": j1["journal.compactions"],
                "journal.dedup_hits": g1["journal.dedup_hits"] - g0["journal.dedup_hits"],
                "dedupe_p50_us": median(replay_us) * 1e6,
            })
        return layer

    def _spans(self) -> None:
        """Per-request spans from the client stamps and the event stream.

        ``worker.exec`` is a duration measured in the worker; it is placed
        at the accepted event's arrival because clocks are never compared
        across processes, and ``gateway.return`` follows it."""
        tr = self.tracer
        for phase in ("warmup", "low", "high", "capacity"):
            for r in self.reqs[phase]:
                if not r.result:
                    continue
                tr.span("client.submit", r.sent, r.done, sid=r.root, rid=r.rid,
                        late_s=r.sent - r.due)
                tr.span("gateway.submit_call", r.sent, r.called, sid=r.call_sid,
                        parent=r.root, rid=r.rid)
                if r.accepted:
                    tr.span("gateway.to_accept", r.sent, r.accepted, parent=r.root, rid=r.rid)
                    w_end = r.accepted + r.result.wall_s
                    tr.span("worker.exec", r.accepted, w_end, parent=r.root, rid=r.rid,
                            duration_only=True)
                    tr.span("gateway.return", w_end, max(w_end, r.settled or r.done),
                            parent=r.root, rid=r.rid)
