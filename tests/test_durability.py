"""Tests for the durable submission journal (:mod:`repro.durability`).

Pure file-level tests — no gateway, no spawned processes (those live in
tests/test_gateway_durability.py).  The property-style classes sweep
seeded random record batches through the codec and the journal under
truncation, bit flips, and scheduled system-call faults: every torn
tail must truncate cleanly, every flipped bit must be rejected by the
checksum, and every injected fault must surface as a structured
:class:`~repro.errors.JournalWriteError` with the record rolled back.
"""

from __future__ import annotations

import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability import (
    FaultyOs,
    FsckReport,
    Journal,
    encode_record,
    fsck,
    scan_bytes,
    segment_index,
    segment_name,
)
from repro.durability.journal import FRAME_OVERHEAD
from repro.errors import JournalCorruptError, JournalError, JournalWriteError


def _record(rng: random.Random, seq: int) -> dict:
    return {
        "kind": "accepted",
        "seq": seq,
        "jid": seq,
        "key": f"k{seq}" if rng.random() < 0.5 else "",
        "target": rng.choice(("spec", "frozen", "instance")),
        "payload": rng.randbytes(rng.randint(0, 200)),
    }


def _fill(journal: Journal, n: int, *, settle: int = 0) -> None:
    for i in range(n):
        journal.append_accepted(key=f"k{i}", target="spec", tenant="t")
    for jid in range(1, settle + 1):
        journal.append_settled(jid, outcome="completed")


class TestCodec:
    def test_roundtrip_random_batches(self):
        for seed in range(8):
            rng = random.Random(seed)
            records = [_record(rng, s) for s in range(1, rng.randint(2, 30))]
            blob = b"".join(encode_record(r) for r in records)
            scanned, good_end, problem = scan_bytes(blob)
            assert problem is None
            assert good_end == len(blob)
            assert [r for _off, r in scanned] == records

    def test_truncation_at_every_boundary(self):
        """A torn tail at ANY byte offset yields exactly the records
        whose frames are complete — never an exception, never a
        half-parsed record."""
        rng = random.Random(42)
        records = [_record(rng, s) for s in range(1, 6)]
        frames = [encode_record(r) for r in records]
        blob = b"".join(frames)
        ends = [0]
        for f in frames:
            ends.append(ends[-1] + len(f))
        for cut in range(len(blob) + 1):
            scanned, good_end, problem = scan_bytes(blob[:cut])
            complete = sum(1 for e in ends[1:] if e <= cut)
            assert len(scanned) == complete
            assert good_end == ends[complete]
            assert (problem is None) == (cut == ends[complete])

    def test_bit_flips_rejected(self):
        rng = random.Random(7)
        records = [_record(rng, s) for s in range(1, 10)]
        blob = bytearray(b"".join(encode_record(r) for r in records))
        for _ in range(32):
            pos = rng.randrange(len(blob))
            flipped = bytearray(blob)
            flipped[pos] ^= 1 << rng.randrange(8)
            scanned, _good_end, problem = scan_bytes(bytes(flipped))
            # the flip must cost records from its frame onward, and the
            # scan must flag the damage — silent acceptance is the bug
            assert problem is not None
            assert len(scanned) < len(records)

    def test_segment_names(self):
        assert segment_name(3) == "seg-00000003.wal"
        assert segment_index("seg-00000003.wal") == 3
        assert segment_index("other.txt") is None

    def test_spec_payloads_roundtrip_restricted(self):
        # the allowlisted spec classes decode normally
        from repro.gateway.spec import BurstSpec, GeneratedSpec

        rec = {
            "kind": "accepted", "seq": 1, "jid": 1,
            "spec": GeneratedSpec(seed=3, num_gpus=1),
            "extra": (BurstSpec(width=2), frozenset({1, 2})),
        }
        scanned, good_end, problem = scan_bytes(encode_record(rec))
        assert problem is None
        assert scanned[0][1]["spec"] == GeneratedSpec(seed=3, num_gpus=1)

    def test_malicious_frame_is_rejected_not_executed(self, tmp_path):
        # a crafted, CRC-valid frame naming a global outside the
        # allowlist must surface as a "pickle" problem — the payload is
        # never imported or executed, even by read-only fsck
        pwned = tmp_path / "pwned"

        class Evil:
            def __reduce__(self):
                return (os.mkdir, (str(pwned),))

        evil = encode_record({"kind": "accepted", "seq": 2, "spec": Evil()})
        scanned, _good_end, problem = scan_bytes(evil)
        assert problem is not None and problem[0] == "pickle"
        assert scanned == [] and not pwned.exists()

        # planted in a sealed (non-final) segment it is corruption:
        # fsck flags it, open() refuses — and neither executes it
        jdir = tmp_path / "j"
        jdir.mkdir()
        (jdir / segment_name(1)).write_bytes(
            encode_record(
                {"kind": "segment_header", "index": 1, "compact": False,
                 "seq": 1}
            )
            + evil
        )
        (jdir / segment_name(2)).write_bytes(
            encode_record(
                {"kind": "segment_header", "index": 2, "compact": False,
                 "seq": 3}
            )
        )
        report = fsck(str(jdir))
        assert not report.clean
        assert report.corruptions[0].kind == "pickle"
        with pytest.raises(JournalCorruptError):
            Journal(str(jdir)).open()
        assert not pwned.exists()


class TestJournal:
    def test_append_reopen_rebuilds_state(self, tmp_path):
        path = str(tmp_path / "j")
        j = Journal(path, fsync_policy="never")
        j.open()
        j.append_frozen(1, {"spec": "burst"})
        _fill(j, 6, settle=4)
        j.close()

        j2 = Journal(path)
        j2.open()
        assert j2.counts() == {
            "entries": 6, "settled": 4, "unsettled": 2, "frozen": 1
        }
        assert [e.jid for e in j2.unsettled()] == [5, 6]
        assert j2.lookup("k2") == 3
        assert j2.get(1).settled["outcome"] == "completed"
        assert j2.next_fid == 2
        # appends continue after the replayed sequence
        jid = j2.append_accepted(key="fresh", target="spec")
        assert jid == 7
        j2.close()

    def test_exactly_once_refusals(self, tmp_path):
        j = Journal(str(tmp_path / "j"), fsync_policy="never")
        j.open()
        jid = j.append_accepted(key="once", target="spec")
        j.append_settled(jid, outcome="completed")
        with pytest.raises(JournalError, match="exactly-once"):
            j.append_settled(jid, outcome="failed")
        with pytest.raises(JournalError, match="already journaled"):
            j.append_accepted(key="once", target="spec")
        with pytest.raises(JournalError, match="unknown jid"):
            j.append_settled(99, outcome="completed")
        j.close()

    def test_rotation_and_compaction(self, tmp_path):
        # compact_retain_keyed=False bounds the dedupe window: every
        # settled entry is dropped, keyed or not
        path = str(tmp_path / "j")
        j = Journal(
            path, fsync_policy="never", segment_max_bytes=512,
            auto_compact=False, compact_retain_keyed=False,
        )
        j.open()
        j.append_frozen(1, {"w": 8})
        _fill(j, 20, settle=17)
        assert j._num_segments() > 1
        dropped = j.compact()
        assert dropped == 17
        j.close()

        j2 = Journal(path)
        j2.open()
        # settled history is gone, live state survives
        assert j2.counts()["entries"] == 3
        assert j2.counts()["unsettled"] == 3
        assert j2.frozen_specs == {1: {"w": 8}}
        assert {e.key for e in j2.unsettled()} == {"k17", "k18", "k19"}
        j2.close()

    def test_compaction_retains_keyed_dedupe(self, tmp_path):
        # the default: keyed settlements survive compaction, so a
        # replayed idempotency key keeps returning the journaled
        # Result; only unkeyed settled history is dropped
        path = str(tmp_path / "j")
        j = Journal(path, fsync_policy="never", auto_compact=False)
        j.open()
        _fill(j, 4, settle=4)  # keyed k0..k3, all settled
        unkeyed = [j.append_accepted(target="spec") for _ in range(3)]
        for jid in unkeyed:
            j.append_settled(jid, outcome="completed")
        live = j.append_accepted(key="live", target="spec")
        dropped = j.compact()
        assert dropped == 3  # the unkeyed settlements, nothing else
        assert j.counts() == {
            "entries": 5, "settled": 4, "unsettled": 1, "frozen": 0
        }
        j.close()

        j2 = Journal(path)
        j2.open()
        for i in range(4):
            jid = j2.lookup(f"k{i}")
            assert jid is not None
            assert j2.get(jid).settled["outcome"] == "completed"
        assert all(j2.get(jid) is None for jid in unkeyed)
        assert [e.jid for e in j2.unsettled()] == [live]
        # a second compaction keeps carrying the keyed settlements
        assert j2.compact() == 0
        assert j2.lookup("k0") is not None
        j2.close()
        assert fsck(path).clean

    def test_jids_continue_after_compaction_drops_everything(self, tmp_path):
        # the compact header carries the jid high-water mark: with every
        # entry compacted away, a reopen must not restart jids at 1
        path = str(tmp_path / "j")
        j = Journal(path, fsync_policy="never", auto_compact=False)
        j.open()
        old = [j.append_accepted(target="spec") for _ in range(5)]
        for jid in old:
            j.append_settled(jid, outcome="completed")
        assert j.compact() == 5
        assert j.counts()["entries"] == 0
        j.close()

        report = fsck(path)
        assert report.clean and report.drained
        assert report.next_jid == 6
        j2 = Journal(path)
        j2.open()
        assert j2.counts()["entries"] == 0
        assert j2.append_accepted(target="spec") == max(old) + 1
        j2.close()

    def test_header_without_next_jid_still_opens(self, tmp_path):
        # journals written before the compact header carried next_jid
        path = tmp_path / "j"
        path.mkdir()
        (path / segment_name(1)).write_bytes(
            encode_record({"kind": "segment_header", "index": 1,
                           "compact": True, "seq": 1})
            + encode_record({"kind": "accepted", "seq": 2, "jid": 3,
                             "key": "", "target": "spec"})
        )
        assert fsck(str(path)).clean
        j = Journal(str(path), fsync_policy="never")
        j.open()
        assert j.append_accepted(target="spec") == 4
        j.close()

    def test_crash_mid_compaction_residue_is_harmless(self, tmp_path):
        # a crash between "start writing the compact segment" and the
        # commit rename leaves only a *.tmp file: the old generation is
        # untouched, open() keeps every record and removes the residue
        path = str(tmp_path / "j")
        j = Journal(path, fsync_policy="never")
        j.open()
        j.append_frozen(1, {"w": 2})
        _fill(j, 6, settle=4)
        j.close()
        # fabricate the residue: a header-only compact segment that
        # never got renamed into place
        tmp = tmp_path / "j" / (segment_name(2) + ".tmp")
        tmp.write_bytes(encode_record(
            {"kind": "segment_header", "index": 2, "compact": True,
             "seq": 999}
        ))
        pre = fsck(path)
        assert pre.clean and pre.tmp_segments == 1
        assert pre.accepted == 6 and pre.settled == 4

        j2 = Journal(path)
        j2.open()
        assert j2.open_report.tmp_removed == 1
        assert j2.counts() == {
            "entries": 6, "settled": 4, "unsettled": 2, "frozen": 1
        }
        assert not tmp.exists()
        j2.close()
        assert fsck(path).tmp_segments == 0

    def test_compaction_write_failure_rolls_back(self, tmp_path):
        # a device fault mid-compaction must abort the whole pass:
        # tmp removed, appends resume on the old generation, no record
        # lost — never a partial compact generation
        path = str(tmp_path / "j")
        j = Journal(
            path, os_impl=FaultyOs(fail_write_at=9),
            fsync_policy="always", auto_compact=False,
        )
        j.open()
        _fill(j, 5, settle=2)  # writes 1-8: header + 5 accepted + 2 settled
        with pytest.raises(JournalWriteError):
            j.compact()  # write 9 is the compact segment's header
        assert not any(
            n.endswith(".tmp") for n in os.listdir(path)
        )
        # the journal keeps working on the old generation...
        j.append_accepted(key="after", target="spec")
        # ...and a retried compaction succeeds (transient device)
        assert j.compact() == 0  # keyed settlements are retained
        j.close()

        j2 = Journal(path)
        j2.open()
        assert j2.counts() == {
            "entries": 6, "settled": 2, "unsettled": 4, "frozen": 0
        }
        assert j2.lookup("after") == 6
        j2.close()
        assert fsck(path).clean

    def test_torn_tail_truncated_on_open(self, tmp_path):
        path = str(tmp_path / "j")
        j = Journal(path, fsync_policy="never")
        j.open()
        _fill(j, 5)
        j.close()
        seg = tmp_path / "j" / segment_name(1)
        with open(seg, "ab") as fh:
            fh.write(b"\xa6\x5c\xff\xff")  # marker + torn header
        size_torn = seg.stat().st_size

        j2 = Journal(path)
        j2.open()
        assert j2.open_report.torn_truncations == 1
        assert j2.counts()["entries"] == 5
        assert seg.stat().st_size == size_torn - 4
        j2.close()

    def test_corruption_mid_log_refuses_open(self, tmp_path):
        path = str(tmp_path / "j")
        j = Journal(path, fsync_policy="never", segment_max_bytes=512)
        j.open()
        _fill(j, 20)
        assert j._num_segments() > 1
        j.close()
        first = tmp_path / "j" / segment_name(1)
        data = bytearray(first.read_bytes())
        data[len(data) // 2] ^= 0x40
        first.write_bytes(bytes(data))
        with pytest.raises(JournalCorruptError):
            Journal(path).open()
        report = fsck(path)
        assert not report.clean
        assert report.corruptions[0].segment == segment_name(1)

    def test_fsync_policy_validation(self, tmp_path):
        with pytest.raises(JournalError, match="fsync_policy"):
            Journal(str(tmp_path / "j"), fsync_policy="sometimes")


class TestFaultInjection:
    @pytest.mark.parametrize("fault,reason", [
        ("fail_fsync_at", "fsync"),
        ("short_write_at", "short_write"),
        ("fail_write_at", "write"),
        ("enospc_at", "enospc"),
    ])
    def test_scheduled_fault_is_structured_and_rolled_back(
        self, tmp_path, fault, reason
    ):
        for seed in range(4):
            rng = random.Random(seed)
            n = rng.randint(4, 12)
            at = rng.randint(3, n + 1)  # ordinal 1 is the segment header
            path = str(tmp_path / f"{fault}-{seed}")
            shim = FaultyOs(**{fault: at})
            j = Journal(path, os_impl=shim, fsync_policy="always")
            j.open()
            failures = 0
            for i in range(n):
                try:
                    j.append_accepted(key=f"k{i}", target="spec")
                except JournalWriteError as exc:
                    assert exc.reason == reason
                    failures += 1
                    # transient device (once=True): the retry commits
                    j.append_accepted(key=f"k{i}", target="spec")
            j.close()
            assert failures == 1 and shim.injected == [reason]

            j2 = Journal(path)
            j2.open()
            # the failed append never half-committed; the retry did
            assert j2.counts()["entries"] == n
            assert [j2.lookup(f"k{i}") for i in range(n)] == list(
                range(1, n + 1)
            )
            j2.close()
            assert fsck(path).clean

    def test_persistent_enospc_keeps_refusing(self, tmp_path):
        shim = FaultyOs(enospc_at=3, once=False)
        j = Journal(str(tmp_path / "j"), os_impl=shim, fsync_policy="always")
        j.open()
        j.append_accepted(key="a", target="spec")
        for _ in range(3):
            with pytest.raises(JournalWriteError) as ei:
                j.append_accepted(key="b", target="spec")
            assert ei.value.reason == "enospc"
        j.close()
        j2 = Journal(str(tmp_path / "j"))
        j2.open()
        assert j2.counts()["entries"] == 1
        j2.close()


def _mixed_state(journal: Journal) -> None:
    """Frozen spec, keyed settled/unsettled, unkeyed settled/unsettled."""
    journal.append_frozen(1, {"w": 2})
    _fill(journal, 4, settle=2)
    for _ in range(3):
        jid = journal.append_accepted(target="spec")
        journal.append_settled(jid, outcome="completed")
    journal.append_accepted(target="spec")


def _counter(journal: Journal, name: str):
    return journal.metrics.snapshot()[name]


class TestCompactionFaults:
    def test_fsync_fault_at_every_fsync_of_a_pass_rolls_back(self, tmp_path):
        # how many fsyncs one compaction pass of this state makes
        shim = FaultyOs()
        twin = Journal(
            str(tmp_path / "twin"), os_impl=shim, auto_compact=False
        )
        twin.open()
        _mixed_state(twin)
        before = shim.fsyncs
        assert twin.compact() == 3
        per_pass = shim.fsyncs - before
        twin.close()
        assert per_pass >= 3  # seal + header + commit, at least

        for k in range(1, per_pass + 1):
            path = str(tmp_path / f"f{k}")
            shim = FaultyOs()
            j = Journal(path, os_impl=shim, auto_compact=False)
            j.open()
            _mixed_state(j)
            counts = j.counts()
            shim.fail_fsync_at = shim.fsyncs + k
            with pytest.raises(JournalWriteError) as ei:
                j.compact()
            assert ei.value.reason == "fsync"
            assert shim.injected == ["fsync"]
            assert _counter(j, "journal.errors") == 1
            assert _counter(j, "journal.compactions") == 0
            assert j.counts() == counts
            assert not any(n.endswith(".tmp") for n in os.listdir(path))
            # appends land on the old generation and survive reopen
            jid = j.append_accepted(key="after", target="spec")
            j.append_settled(jid, outcome="completed")
            j.close()

            j2 = Journal(path)
            j2.open()
            assert j2.get(j2.lookup("after")).settled["outcome"] == "completed"
            assert j2.counts() == {
                "entries": counts["entries"] + 1,
                "settled": counts["settled"] + 1,
                "unsettled": counts["unsettled"],
                "frozen": 1,
            }
            assert j2.compact() == 3
            j2.close()
            assert fsck(path).clean

    def test_auto_compaction_fault_is_counted_not_raised(self, tmp_path):
        # settle 1 fsyncs its own record, then auto-compaction makes
        # three more: seal, compact header, commit
        for k in (2, 3, 4):
            path = str(tmp_path / f"a{k}")
            shim = FaultyOs()
            j = Journal(path, os_impl=shim, compact_min_settled=2)
            j.open()
            a = j.append_accepted(target="spec")
            b = j.append_accepted(target="spec")
            j.append_settled(a, outcome="completed")
            shim.fail_fsync_at = shim.fsyncs + k
            j.append_settled(b, outcome="completed")  # must not raise
            assert shim.injected == ["fsync"]
            assert _counter(j, "journal.errors") == 1
            assert _counter(j, "journal.compactions") == 0
            assert j.counts()["settled"] == 2
            # the next settle retries the pass on the healthy device
            c = j.append_accepted(target="spec")
            j.append_settled(c, outcome="completed")
            assert _counter(j, "journal.compactions") == 1
            assert j.counts()["entries"] == 0
            j.close()

            j2 = Journal(path)
            j2.open()
            assert j2.counts()["entries"] == 0
            j2.close()
            assert fsck(path).clean


_MIN_SETTLED = 3

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("accept"), st.booleans()),  # keyed?
        st.tuples(st.just("settle"), st.integers(0, 7)),  # which unsettled
        st.tuples(st.just("compact"), st.just(0)),
        st.tuples(st.just("reopen"), st.just(0)),
        st.tuples(
            st.sampled_from(["fail_write_at", "fail_fsync_at"]),
            st.integers(1, 4),  # how many calls ahead
        ),
    ),
    max_size=40,
)


def _recount(j: Journal) -> None:
    """The running counts must equal a full recount after every step."""
    entries = list(j.entries.values())
    settled = sum(1 for e in entries if e.is_settled)
    assert j.counts() == {
        "entries": len(entries),
        "settled": settled,
        "unsettled": len(entries) - settled,
        "frozen": len(j.frozen_specs),
    }
    assert _counter(j, "journal.unsettled") == len(entries) - settled
    assert j._n_droppable == sum(1 for e in entries if j._droppable(e))


class TestCountsProperty:
    @settings(max_examples=80, deadline=None)
    @given(ops=_OPS, retain=st.booleans())
    def test_counts_match_recount(self, ops, retain):
        with tempfile.TemporaryDirectory() as path:
            shim = FaultyOs()

            def opened() -> Journal:
                j = Journal(
                    path, os_impl=shim, compact_min_settled=_MIN_SETTLED,
                    compact_retain_keyed=retain,
                )
                return j.open()

            j = opened()
            keys = 0
            for op, arg in ops:
                if op == "accept":
                    keys += 1
                    try:
                        j.append_accepted(
                            key=f"k{keys}" if arg else "", target="spec"
                        )
                    except JournalWriteError:
                        pass
                elif op == "settle":
                    open_jids = [
                        e.jid for e in j.entries.values() if not e.is_settled
                    ]
                    if not open_jids:
                        continue
                    jid = open_jids[arg % len(open_jids)]
                    drops = not j.get(jid).key or not retain
                    d0 = j._n_droppable
                    c0 = _counter(j, "journal.compactions")
                    e0 = _counter(j, "journal.errors")
                    try:
                        j.append_settled(jid, outcome="completed")
                    except JournalWriteError:
                        assert not j.get(jid).is_settled
                        continue
                    d1 = d0 + drops
                    c1 = _counter(j, "journal.compactions")
                    if d1 < _MIN_SETTLED:
                        assert c1 == c0 and j._n_droppable == d1
                    elif c1 == c0:  # the auto-compaction pass faulted
                        assert _counter(j, "journal.errors") > e0
                        assert j._n_droppable == d1
                    else:
                        assert c1 == c0 + 1 and j._n_droppable == 0
                elif op == "compact":
                    d0 = j._n_droppable
                    try:
                        assert j.compact() == d0
                        assert j._n_droppable == 0
                    except JournalWriteError:
                        assert j._n_droppable == d0
                elif op == "reopen":
                    state = {
                        jid: (e.key, e.is_settled)
                        for jid, e in j.entries.items()
                    }
                    j.close()
                    j = opened()
                    assert {
                        jid: (e.key, e.is_settled)
                        for jid, e in j.entries.items()
                    } == state
                else:  # arm a one-shot device fault a few calls ahead
                    done = shim.writes if op == "fail_write_at" else shim.fsyncs
                    setattr(shim, op, done + arg)
                _recount(j)
            j.close()


class TestFsck:
    def test_clean_and_drained(self, tmp_path):
        path = str(tmp_path / "j")
        j = Journal(path, fsync_policy="never")
        j.open()
        j.append_frozen(1, {"w": 2})
        _fill(j, 4, settle=4)
        j.close()
        report = fsck(path)
        assert report.clean and report.drained
        assert (report.accepted, report.settled, report.frozen) == (4, 4, 1)
        assert report.record_kinds["segment_header"] == 1
        assert "clean" in report.render_text()
        assert report.to_dict()["schema"].startswith("repro.fsck")

    def test_unsettled_reported(self, tmp_path):
        path = str(tmp_path / "j")
        j = Journal(path, fsync_policy="never")
        j.open()
        _fill(j, 3, settle=1)
        j.close()
        report = fsck(path)
        assert report.clean and not report.drained
        assert report.unsettled == [(2, "k1"), (3, "k2")]

    def test_missing_directory(self, tmp_path):
        report = fsck(str(tmp_path / "nope"))
        assert not report.clean
        assert report.corruptions[0].kind == "missing"

    def test_property_random_batches_with_damage(self, tmp_path):
        """Random journals + random damage: fsck must agree with what
        open() would do — count every intact record, flag every tear."""
        for seed in range(6):
            rng = random.Random(seed)
            path = str(tmp_path / f"p{seed}")
            j = Journal(path, fsync_policy="never", segment_max_bytes=2048)
            j.open()
            n = rng.randint(5, 25)
            _fill(j, n, settle=rng.randint(0, n))
            j.close()
            clean = fsck(path)
            assert clean.clean and clean.accepted == n

            segs = sorted(
                p for p in os.listdir(path) if segment_index(p) is not None
            )
            final = os.path.join(path, segs[-1])
            with open(final, "ab") as fh:
                fh.write(rng.randbytes(rng.randint(1, FRAME_OVERHEAD + 8)))
            damaged = fsck(path)
            # a torn FINAL tail is recoverable, never corruption
            assert damaged.clean
            assert damaged.torn_tail_bytes > 0
            j2 = Journal(path)
            j2.open()
            assert j2.counts()["entries"] == n
            assert j2.open_report.torn_truncations == 1
            j2.close()
            assert fsck(path).torn_tail_bytes == 0
