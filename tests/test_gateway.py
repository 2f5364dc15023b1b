"""Tests for the async multiprocess gateway (:mod:`repro.gateway`).

Every test spawns a real worker pool (``multiprocessing`` spawn
context), so the pool stays small (2 processes) and each test bundles
several related assertions to keep the spawn bill down.  The seeded
worker-death test SIGKILLs a live worker mid-graph and requires every
awaitable to settle and the slot to respawn; the drain-under-load test
mirrors ``tests/test_service.py``'s drain guarantees across the
process boundary.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import pickle
import signal
import struct
import threading
import time

import pytest

from repro.errors import GatewayError
from repro.gateway import (
    BuiltinSpec,
    BurstSpec,
    Gateway,
    GeneratedSpec,
    WorkerConfig,
)
from repro.gateway import messages as m

pytestmark = pytest.mark.gateway

_CONFIG = WorkerConfig(threads=2, gpus=1)


def _run(coro):
    return asyncio.run(coro)


class TestSubmission:
    def test_submit_completes_and_streams_events(self):
        async def main():
            async with Gateway(2, worker=_CONFIG) as gw:
                sub = gw.submit(GeneratedSpec(seed=7, num_gpus=1))
                res = await sub
                assert res.ok and res.outcome == "completed"
                assert res.passes == 1
                assert res.wid in (0, 1)
                kinds = [ev["kind"] async for ev in sub.events()]
                assert kinds == ["submitted", "accepted", "settled"]
                # the event iterator terminates once settled
                res2 = await gw.submit(BuiltinSpec("saxpy"))
                assert res2.ok

        _run(main())

    def test_instance_pins_to_worker_and_verifies(self):
        async def main():
            async with Gateway(2, worker=_CONFIG) as gw:
                gh = gw.instance(GeneratedSpec(seed=11, num_gpus=1))
                r1 = await gw.submit(gh)
                r2 = await gw.submit(gh, repeats=2)
                assert r1.ok and r2.ok
                assert r1.wid == r2.wid == gh.wid
                total = r1.passes + r2.passes
                assert total == 3
                assert await gw.verify(gh, total) == ()
                # a wrong pass count is a detected violation, proving
                # the oracle runs for real on the worker side
                wrong = await gw.verify(gh, total + 1)
                assert wrong and "pass" in wrong[0]

        _run(main())

    def test_frozen_replay_crosses_process_boundary(self):
        async def main():
            async with Gateway(2, worker=_CONFIG) as gw:
                fh = await gw.freeze(BurstSpec(width=8))
                results = await asyncio.gather(
                    *[gw.submit(fh).future for _ in range(6)]
                )
                assert all(r.ok for r in results)
                # both workers served replays (round-robin routing) and
                # their executors took the frozen-plan path
                metrics = await gw.worker_metrics()
                assert sorted(metrics) == [0, 1]
                for snap in metrics.values():
                    assert snap["worker.frozen"] == 1
                    assert (
                        snap["replay.cache_hits"] + snap["replay.fast_path"]
                        > 0
                    )

        _run(main())

    def test_submit_rejects_unknown_target(self):
        async def main():
            async with Gateway(2, worker=_CONFIG) as gw:
                with pytest.raises(GatewayError):
                    gw.submit("not a spec")  # type: ignore[arg-type]

        _run(main())


class TestWorkerDeath:
    def test_sigkill_mid_graph_settles_and_respawns(self):
        """SIGKILL a worker with a graph in flight: the submission
        settles (replayed on the replacement), the slot respawns
        within the heartbeat budget, and nothing is stranded."""

        async def main():
            interval = 0.2
            async with Gateway(
                2, worker=_CONFIG, heartbeat_interval=interval
            ) as gw:
                gh = gw.instance(BurstSpec(width=4, sleep_s=0.3))
                sub = gw.submit(gh)
                await asyncio.sleep(0.1)  # let the work start
                victim = gw._workers[sub.wid]
                t0 = time.monotonic()
                os.kill(victim.proc.pid, signal.SIGKILL)
                res = await asyncio.wait_for(sub.future, 30.0)
                # the replan path resubmitted the idempotent spec
                assert res.outcome == "completed"
                assert res.replans == 1
                # detection is one is_alive poll away, the respawned
                # Ready a process start after that
                deadline = t0 + 15.0
                while time.monotonic() < deadline:
                    fresh = gw._workers[victim.wid]
                    if fresh is not victim and fresh.ready:
                        break
                    await asyncio.sleep(0.02)
                fresh = gw._workers[victim.wid]
                assert fresh is not victim and fresh.ready
                assert gw._workers_alive() == 2
                # the dead worker's instance state is gone: the handle
                # is tainted and verification is honestly vacuous
                assert gh.tainted
                assert await gw.verify(gh, 1) == ()
                snap = gw.snapshot()
                assert snap["gateway.worker_deaths"] == 1
                assert snap["gateway.respawns"] == 1
                assert snap["gateway.replans"] == 1
                # the replacement serves new work
                assert (await gw.submit(BurstSpec(width=2))).ok

        _run(main())

    def test_second_death_settles_as_worker_lost(self):
        """With the replan budget exhausted, a submission settles with
        a structured worker_lost result instead of hanging."""

        async def main():
            async with Gateway(
                1, worker=_CONFIG, heartbeat_interval=0.2, max_replans=0
            ) as gw:
                sub = gw.submit(BurstSpec(width=4, sleep_s=0.4))
                await asyncio.sleep(0.1)
                os.kill(gw._workers[0].proc.pid, signal.SIGKILL)
                res = await asyncio.wait_for(sub.future, 30.0)
                assert res.outcome == "worker_lost"
                assert "WorkerDiedError" in res.error
                # the pool healed regardless
                assert (await gw.submit(BurstSpec(width=2))).ok

        _run(main())


class TestDrainShutdown:
    def test_drain_under_load_settles_everything(self):
        """Mirror of the in-process drain guarantee: drain() with live
        submissions settles every awaitable, then refuses new work."""

        async def main():
            async with Gateway(2, worker=_CONFIG) as gw:
                subs = [
                    gw.submit(BurstSpec(width=3, sleep_s=0.1))
                    for _ in range(6)
                ]
                ok = await gw.drain(timeout=30.0)
                assert ok
                assert all(s.done() for s in subs)
                outcomes = {(await s).outcome for s in subs}
                assert outcomes == {"completed"}
                with pytest.raises(GatewayError):
                    gw.submit(BurstSpec(width=1))

        _run(main())

    def test_shutdown_is_idempotent_and_strands_nothing(self):
        async def main():
            gw = Gateway(2, worker=_CONFIG)
            await gw.start()
            subs = [
                gw.submit(BurstSpec(width=2, sleep_s=0.05))
                for _ in range(4)
            ]
            await gw.shutdown(drain_timeout=30.0)
            assert all(s.done() for s in subs)
            await gw.shutdown()  # second call is a no-op
            assert gw._workers_alive() == 0

        _run(main())


class TestCancelAndMetrics:
    def test_cancel_and_exact_metric_counts(self):
        """gateway.* counters track the harness's view exactly, the
        replay.* pattern one tier up (docs/observability.md)."""

        async def main():
            async with Gateway(2, worker=_CONFIG) as gw:
                fh = await gw.freeze(BurstSpec(width=4))
                oks = [gw.submit(fh) for _ in range(5)]
                await asyncio.gather(*(s.future for s in oks))
                # a long multi-pass run leaves passes to cancel
                victim = gw.submit(
                    gw.instance(BurstSpec(width=3, sleep_s=0.2)),
                    repeats=10,
                )
                await asyncio.sleep(0.05)
                assert gw.cancel(victim) is True
                res = await asyncio.wait_for(victim.future, 30.0)
                assert res.outcome == "cancelled"
                # cancelling a settled submission reports False
                assert gw.cancel(oks[0]) is False

                snap = gw.snapshot()
                assert snap["gateway.submits"] == 6
                assert snap["gateway.settled"] == 6
                assert snap["gateway.cancels"] == 1
                assert snap["gateway.worker_deaths"] == 0
                assert snap["gateway.respawns"] == 0
                assert snap["gateway.replans"] == 0
                assert snap["gateway.workers_alive"] == 2
                assert snap["gateway.inflight"] == 0
                hist = snap["gateway.round_trip_seconds"]
                assert hist["count"] == 6
                assert hist["sum"] > 0

        _run(main())


def _wire(msgs) -> bytes:
    """The exact bytes a ``Connection`` writes for *msgs*, in order."""
    reader, writer = multiprocessing.Pipe(duplex=True)

    def send_all():
        for msg in msgs:
            writer.send(msg)
        writer.close()

    sender = threading.Thread(target=send_all)
    sender.start()
    chunks = []
    while True:
        chunk = os.read(reader.fileno(), 1 << 16)
        if not chunk:
            break
        chunks.append(chunk)
    sender.join()
    reader.close()
    return b"".join(chunks)


def _feed(buf: bytearray, data: bytes) -> list:
    buf += data
    return [pickle.loads(p) for p in m.split_frames(buf)]


class TestPipeFraming:
    MSGS = [
        m.Ready(wid=0, pid=1, protocol=m.PROTOCOL_VERSION),
        m.Accepted(rid=1, wid=0),
        m.Settled(rid=1, outcome="completed", passes=1, wall_s=0.25),
        m.Pong(seq=3, wid=0, inflight=0),
        m.EventMsg(rid=None, kind="degraded", fields={"why": "x" * 40}),
    ]

    def test_split_at_every_byte_boundary_keeps_fifo(self):
        blob = _wire(self.MSGS)
        # every frame in one read
        buf = bytearray()
        assert _feed(buf, blob) == self.MSGS and not buf
        # the stream cut into two reads at every byte offset
        for cut in range(len(blob) + 1):
            buf = bytearray()
            got = _feed(buf, blob[:cut]) + _feed(buf, blob[cut:])
            assert got == self.MSGS, cut
            assert not buf

    def test_large_metrics_reply_reassembles_across_reads(self):
        big = m.MetricsReply(
            rid=9, wid=1, snapshot={f"k{i}": f"{i:064d}" for i in range(2048)}
        )
        blob = _wire([big, m.Pong(seq=4, wid=1, inflight=0)])
        assert len(blob) > 2 * (1 << 16)
        buf = bytearray()
        got = []
        for off in range(0, len(blob), 1 << 16):  # one loop read each
            got += _feed(buf, blob[off : off + (1 << 16)])
        assert got == [big, m.Pong(seq=4, wid=1, inflight=0)] and not buf
        # the -1 + u64 header Connection uses for frames over 2 GiB
        payload = pickle.dumps(big)
        framed = struct.pack("!i", -1) + struct.pack("!Q", len(payload))
        buf = bytearray()
        assert _feed(buf, framed[:7]) == []
        assert _feed(buf, framed[7:] + payload) == [big]
        with pytest.raises(ValueError):
            m.split_frames(bytearray(struct.pack("!i", -2)))

    def test_no_reader_threads_after_start(self):
        async def main():
            async with Gateway(2, worker=_CONFIG, name="gwx") as gw:
                names = [t.name for t in threading.enumerate()]
                assert not [n for n in names if n.startswith("gwx-")], names
                snaps = await gw.worker_metrics()
                assert sorted(snaps) == [0, 1]

        _run(main())


class TestGatewaySoakSmoke:
    def test_tiny_sweep_reconciles(self):
        from repro.gateway import run_gateway_soak

        report = run_gateway_soak(
            3, workers=2, seed=7, kill_every=3, throughput_repeats=20
        )
        assert report.ok, report.violations
        assert report.num_scenarios == 3
        totals = report.totals
        assert totals["kills"] == 1
        assert totals["failed"] == 0
        settled = sum(
            totals[k]
            for k in (
                "completed",
                "rejected",
                "shed",
                "deadline_exceeded",
                "cancelled",
                "failed",
                "worker_lost",
            )
        )
        assert settled == totals["submitted"]
        assert report.throughput["errors"] == 0
        doc = report.to_dict()
        assert doc["schema"] == "repro.gateway-soak-report/1"
        assert doc["cpu_count"] == os.cpu_count()
