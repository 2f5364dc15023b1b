"""Tests for the journaled gateway (:mod:`repro.gateway` + journal).

Spawns real worker pools like tests/test_gateway.py, so tests stay
bundled and pools stay at 2 processes.  Covers the write-through
contract (accepted before the handle, settled before the Result),
idempotency-key dedupe, crash recovery via :meth:`Gateway.recover`,
structured refusal when the journal device fails, worker immunity to
operator signals, and a smoke run of the crash soak harness.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time

import pytest

from repro.durability import FaultyOs, Journal, fsck
from repro.durability.soak import run_gateway_crash_soak
from repro.errors import GatewayError, JournalWriteError
from repro.gateway import BurstSpec, Gateway, GeneratedSpec, WorkerConfig

pytestmark = pytest.mark.gateway

_CONFIG = WorkerConfig(threads=2, gpus=1)


def _run(coro):
    return asyncio.run(coro)


class TestWriteThrough:
    def test_journaled_submit_settle_and_dedupe(self, tmp_path):
        path = str(tmp_path / "j")

        async def main():
            async with Gateway(2, worker=_CONFIG, journal=path) as gw:
                fh = await gw.freeze(BurstSpec(width=4))
                s1 = gw.submit(fh, idempotency_key="job-1")
                # accepted journaled before the client sees the handle
                assert gw.journal.lookup("job-1") == s1.jid
                # an in-flight key returns the SAME live handle
                s1b = gw.submit(fh, idempotency_key="job-1")
                assert s1b is s1
                r1 = await s1
                assert r1.ok
                # a settled key replays the journaled Result, no re-run
                submits_before = gw.snapshot()["gateway.submits"]
                s1c = gw.submit(
                    BurstSpec(width=64), idempotency_key="job-1"
                )
                r1c = await s1c
                assert r1c.outcome == r1.outcome
                assert gw.snapshot()["gateway.submits"] == submits_before
                assert gw.snapshot()["journal.dedup_hits"] == 2
                events = [ev async for ev in s1c.events()]
                assert events[-1]["replayed"] is True

                # unkeyed submissions are journaled too
                r2 = await gw.submit(BurstSpec(width=2))
                assert r2.ok
                assert gw.journal.counts()["entries"] == 2
                assert await gw.drain(timeout=30.0)
        _run(main())
        report = fsck(path)
        assert report.clean and report.drained
        assert report.accepted == report.settled == 2

    def test_key_without_journal_refused(self):
        async def main():
            async with Gateway(2, worker=_CONFIG) as gw:
                with pytest.raises(GatewayError, match="requires a journal"):
                    gw.submit(BurstSpec(width=2), idempotency_key="k")
        _run(main())

    def test_journal_device_failure_refuses_submission(self, tmp_path):
        # ordinal 1 is the segment header; the first accepted append is
        # write 2 and must fail structured with nothing admitted
        journal = Journal(
            str(tmp_path / "j"),
            os_impl=FaultyOs(fail_write_at=2),
            fsync_policy="always",
        )

        async def main():
            async with Gateway(2, worker=_CONFIG, journal=journal) as gw:
                with pytest.raises(JournalWriteError) as ei:
                    gw.submit(BurstSpec(width=2), idempotency_key="k")
                assert ei.value.reason == "write"
                assert gw.snapshot()["gateway.inflight"] == 0
                assert gw.journal.counts()["entries"] == 0
                # transient device: the retry goes through end to end
                res = await gw.submit(
                    BurstSpec(width=2), idempotency_key="k"
                )
                assert res.ok
        _run(main())

    def test_auto_compaction_fsync_fault_resolves_every_submission(
        self, tmp_path
    ):
        # the 4th settle auto-compacts (3 droppable before it); its pass
        # fsyncs seal (+3), header (+4), frozen (+5) and commit (+6)
        # after that submission's accept (+1) and settle (+2)
        for k in (3, 6):
            path = str(tmp_path / f"j{k}")
            shim = FaultyOs()
            journal = Journal(path, os_impl=shim, compact_min_settled=4)

            async def main():
                async with Gateway(2, worker=_CONFIG, journal=journal) as gw:
                    fh = await gw.freeze(BurstSpec(width=2))
                    for i in range(8):
                        if i == 3:
                            shim.fail_fsync_at = shim.fsyncs + k
                        res = await asyncio.wait_for(gw.submit(fh).future, 30.0)
                        assert res.ok
                    assert shim.injected == ["fsync"]
                    snap = journal.metrics.snapshot()
                    assert snap["journal.errors"] == 1
                    # the 5th settle retried the pass on the healthy device
                    assert snap["journal.compactions"] == 1

            _run(main())
            reopened = Journal(path)
            reopened.open()
            assert reopened.counts() == {
                "entries": 3, "settled": 3, "unsettled": 0, "frozen": 1
            }
            reopened.close()
            assert fsck(path).clean


class TestRecovery:
    def test_recover_resubmits_unsettled(self, tmp_path):
        path = str(tmp_path / "j")
        # fabricate post-crash residue: what a SIGKILLed gateway leaves
        j = Journal(path, fsync_policy="never")
        j.open()
        j.append_frozen(1, BurstSpec(width=4))
        done = j.append_accepted(key="done", target="spec",
                                 spec=BurstSpec(width=2))
        j.append_settled(done, outcome="completed", passes=1)
        j.append_accepted(key="spec-redo", target="spec",
                          spec=GeneratedSpec(seed=5, num_gpus=1))
        j.append_accepted(key="frozen-redo", target="frozen", fid=1)
        j.append_accepted(key="pinned", target="instance",
                          spec=BurstSpec(width=2), iid=1)
        j.close()

        async def main():
            async with Gateway(2, worker=_CONFIG, journal=path) as gw:
                report = await gw.recover()
                assert report.frozen_reshipped == 1
                assert report.resubmitted == 2
                assert report.not_replayable == 1
                results = await asyncio.gather(
                    *(s.future for s in report.submissions)
                )
                assert all(r.ok for r in results)
                # the pinned-instance entry settled without re-running
                pinned = await gw.submit(
                    BurstSpec(width=1), idempotency_key="pinned"
                )
                assert pinned.outcome == "worker_lost"
                assert pinned.reason == "not_replayable"
                # the pre-crash settlement replays too
                done_again = await gw.submit(
                    BurstSpec(width=1), idempotency_key="done"
                )
                assert done_again.outcome == "completed"
                # the re-shipped frozen handle is live for new traffic
                fh = gw.frozen_handles()[1]
                assert (await gw.submit(fh)).ok
                assert await gw.drain(timeout=30.0)
        _run(main())
        report = fsck(path)
        assert report.clean and report.drained
        # 4 fabricated + 1 fresh frozen submit; no double-accepts
        assert report.accepted == report.settled == 5

    def test_keyed_fallthrough_resubmits_journaled_payload(self, tmp_path):
        # restart WITHOUT recover(): a keyed submit whose entry is
        # journaled-but-unsettled must resubmit from the *journaled*
        # entry — the caller's divergent payload is ignored, so what
        # runs (and what another recovery would replay) is exactly
        # what the journal recorded
        path = str(tmp_path / "j")
        j = Journal(path, fsync_policy="never")
        j.open()
        j.append_accepted(key="redo", target="spec",
                          spec=BurstSpec(width=7))
        j.append_accepted(key="pinned", target="instance",
                          spec=BurstSpec(width=2), iid=1)
        j.close()

        async def main():
            async with Gateway(2, worker=_CONFIG, journal=path) as gw:
                sub = gw.submit(BurstSpec(width=1), idempotency_key="redo")
                assert sub.jid == 1
                assert sub.request.spec == BurstSpec(width=7)
                assert gw.journal.get(1).spec == BurstSpec(width=7)
                assert (await sub).ok
                # a pinned-instance entry is not replayable: it settles
                # worker_lost/not_replayable, mirroring recover()
                pinned = await gw.submit(
                    BurstSpec(width=1), idempotency_key="pinned"
                )
                assert pinned.outcome == "worker_lost"
                assert pinned.reason == "not_replayable"
                assert await gw.drain(timeout=30.0)
        _run(main())
        report = fsck(path)
        assert report.clean and report.drained
        assert report.accepted == report.settled == 2

    def test_workers_ignore_operator_signals(self):
        # SIGTERM to the process group must drain via the gateway, not
        # slaughter the pool: workers ignore TERM/INT (worker_main)
        async def main():
            async with Gateway(2, worker=_CONFIG) as gw:
                for handle in gw._workers:
                    os.kill(handle.proc.pid, signal.SIGTERM)
                    os.kill(handle.proc.pid, signal.SIGINT)
                await asyncio.sleep(0.3)
                assert gw.snapshot()["gateway.workers_alive"] == 2
                res = await gw.submit(BurstSpec(width=4))
                assert res.ok
                assert gw.snapshot()["gateway.worker_deaths"] == 0
        _run(main())


class TestCrashSoakSmoke:
    def test_five_scenarios_including_one_kill_cycle(self, tmp_path):
        # indices 0-4: three clean, one journal fault, one full
        # SIGKILL + recover cycle — the CI-smoke shape
        report = run_gateway_crash_soak(
            5, workers=2, seed=11, journal_dir=str(tmp_path)
        )
        assert report.ok, report.all_violations
        totals = report.totals
        assert totals["crash_cycles"] == 1
        assert totals["kills"] == 1
        assert totals["fault_injections"] >= 1
        assert report.final_fsck["clean"]
        doc = report.to_dict()
        assert doc["schema"] == "repro.gateway-crash-soak-report/1"
        assert doc["num_scenarios"] == 5
