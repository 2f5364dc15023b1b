"""Durable submission journal: an append-only, checksummed WAL.

The crash-consistency backbone of the gateway (docs/durability.md).  A
:class:`Journal` is a directory of **segment files** filled with
CRC-framed records; the gateway writes *through* it so that every
accepted submission and every settlement is on disk — fsync'd — before
the client observes it.  After a gateway crash,
:meth:`repro.gateway.Gateway.recover` replays the journal and
guarantees every journaled submission reaches exactly one settlement.

Frame layout (little-endian)::

    +--------+----------+---------+-----------------+
    | marker | length   | crc32   | payload         |
    | 2 B    | u32      | u32     | `length` bytes  |
    +--------+----------+---------+-----------------+

The payload is a pickled dict carrying ``kind`` and a strictly
increasing ``seq``.  Four record kinds exist:

==================  ==================================================
``segment_header``  first record of every segment (index, compact flag)
``accepted``        one submission entered the gateway (jid, key, spec)
``settled``         terminal outcome of one jid — at most once per jid
``frozen``          a frozen topology's fid + spec (re-shipped on recover)
==================  ==================================================

Crash-consistency rules, in the style of etcd's WAL:

- a **torn tail** — a partial or checksum-failing frame at the end of
  the *final* segment — is the expected residue of an interrupted
  append and is truncated away on :meth:`Journal.open`;
- corruption anywhere else (bad frame mid-segment, checksum failure in
  a non-final segment, a sequence regression, a duplicate settle)
  cannot be explained by a crash and raises a structured
  :class:`~repro.errors.JournalCorruptError` instead of guessing;
- every append is written as one frame and fsync'd (policy
  ``"always"``) before the caller proceeds; a failed write is rolled
  back by truncating to the pre-append offset, so torn bytes never
  masquerade as a committed record — the caller gets a structured
  :class:`~repro.errors.JournalWriteError`;
- **rotation** caps segment size; **compaction** rewrites the *live*
  records (frozen specs, unsettled entries, and — by default — keyed
  settled entries, whose results must stay replayable for idempotent
  dedupe) into a fresh segment whose header carries ``compact=True``.
  The compact segment is written under a temporary name and only
  :func:`os.rename`\\ d into place after every live record is on disk
  and fsync'd, so open() can never observe a *partial* compact
  generation: a crash mid-compaction leaves the old segments fully
  intact plus a stale ``*.tmp`` file that the next open() removes.  On
  open, every segment older than the newest compact header is ignored
  (and removed).

All I/O goes through an injectable :class:`~repro.durability.osshim.OsFacade`
so fault-injection tests and the crash soak can schedule fsync
failures, short writes, and ``ENOSPC`` deterministically.
"""

from __future__ import annotations

import io
import os
import pickle
import re
import struct
import threading
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import JournalCorruptError, JournalError, JournalWriteError
from repro.durability.osshim import OsFacade

#: two-byte frame marker; a frame that does not start with it is torn
#: (final segment) or corrupt (anywhere else)
MARKER = b"\xa6\x5c"

#: frame header after the marker: payload length + crc32(payload)
_HDR = struct.Struct("<II")

#: full fixed overhead of one frame
FRAME_OVERHEAD = len(MARKER) + _HDR.size

#: segment file naming: seg-00000001.wal, strictly increasing indices
_SEGMENT_RE = re.compile(r"^seg-(\d{8})\.wal$")

#: suffix of an uncommitted compact segment being written; renamed to
#: its final name only once complete, removed as stale residue on open
TMP_SUFFIX = ".tmp"

#: record kinds a segment may carry
RECORD_KINDS = ("segment_header", "accepted", "settled", "frozen")

#: the only globals a journal payload may reference when decoded: the
#: picklable spec classes plus a handful of benign builtins.  ``repro
#: fsck`` is documented as safe to run on a suspect journal, so the
#: codec must never import or execute anything a crafted (CRC-valid)
#: frame names — anything outside this allowlist is reported as a
#: ``"pickle"`` problem by :func:`scan_bytes`, exactly like a payload
#: that fails to parse.
SAFE_GLOBALS = {
    ("builtins", "set"),
    ("builtins", "frozenset"),
    ("builtins", "bytearray"),
    ("builtins", "complex"),
    ("repro.gateway.spec", "WorkSpec"),
    ("repro.gateway.spec", "GeneratedSpec"),
    ("repro.gateway.spec", "BuiltinSpec"),
    ("repro.gateway.spec", "BurstSpec"),
}


class _RestrictedUnpickler(pickle.Unpickler):
    """Unpickler that refuses any global outside :data:`SAFE_GLOBALS`."""

    def find_class(self, module: str, name: str):
        if (module, name) in SAFE_GLOBALS:
            return super().find_class(module, name)
        raise pickle.UnpicklingError(
            f"journal payload references disallowed global "
            f"{module}.{name}"
        )


def decode_payload(payload: bytes):
    """Decode one frame payload under the :data:`SAFE_GLOBALS` allowlist."""
    return _RestrictedUnpickler(io.BytesIO(payload)).load()


def segment_name(index: int) -> str:
    return f"seg-{index:08d}.wal"


def segment_index(name: str) -> Optional[int]:
    m = _SEGMENT_RE.match(name)
    return int(m.group(1)) if m else None


def is_tmp_segment(name: str) -> bool:
    """A stale mid-compaction leftover (``seg-XXXXXXXX.wal.tmp``)."""
    return name.endswith(TMP_SUFFIX) and (
        segment_index(name[: -len(TMP_SUFFIX)]) is not None
    )


def encode_record(record: dict) -> bytes:
    """Frame one record dict: marker + length + crc32 + pickled payload."""
    payload = pickle.dumps(record, protocol=4)
    return MARKER + _HDR.pack(len(payload), zlib.crc32(payload)) + payload


def scan_bytes(data: bytes) -> Tuple[List[Tuple[int, dict]], int, Optional[Tuple[str, int]]]:
    """Decode every whole frame in *data*.

    Returns ``(records, good_end, problem)`` where *records* is a list
    of ``(offset, record)`` pairs, *good_end* is the byte offset just
    past the last intact frame, and *problem* is ``None`` for a clean
    scan or ``(kind, offset)`` — ``kind`` one of ``"marker"``,
    ``"frame"``, ``"checksum"``, ``"pickle"`` — naming the first bad
    frame.  The caller decides whether the problem is a torn tail
    (final segment: truncate) or corruption (raise / report).
    """
    records: List[Tuple[int, dict]] = []
    off = 0
    n = len(data)
    while off < n:
        if off + FRAME_OVERHEAD > n:
            return records, off, ("frame", off)
        if data[off : off + len(MARKER)] != MARKER:
            return records, off, ("marker", off)
        length, crc = _HDR.unpack_from(data, off + len(MARKER))
        start = off + FRAME_OVERHEAD
        end = start + length
        if end > n:
            return records, off, ("frame", off)
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            return records, off, ("checksum", off)
        try:
            record = decode_payload(payload)
        except Exception:
            return records, off, ("pickle", off)
        records.append((off, record))
        off = end
    return records, off, None


@dataclass
class JournalEntry:
    """In-memory view of one journaled submission (jid-keyed)."""

    jid: int
    key: str = ""
    target: str = "spec"  # "spec" | "frozen" | "instance"
    spec: object = None
    fid: Optional[int] = None
    iid: Optional[int] = None
    priority: int = 0
    deadline: Optional[float] = None
    repeats: int = 1
    tenant: str = ""
    settled: Optional[dict] = None

    @property
    def is_settled(self) -> bool:
        return self.settled is not None

    @classmethod
    def from_record(cls, rec: dict) -> "JournalEntry":
        return cls(
            jid=rec["jid"],
            key=rec.get("key", ""),
            target=rec.get("target", "spec"),
            spec=rec.get("spec"),
            fid=rec.get("fid"),
            iid=rec.get("iid"),
            priority=rec.get("priority", 0),
            deadline=rec.get("deadline"),
            repeats=rec.get("repeats", 1),
            tenant=rec.get("tenant", ""),
        )

    def accepted_record(self) -> dict:
        """The (seq-less) accepted record this entry re-serializes to —
        used by compaction to carry live entries forward."""
        return {
            "kind": "accepted",
            "jid": self.jid,
            "key": self.key,
            "target": self.target,
            "spec": self.spec,
            "fid": self.fid,
            "iid": self.iid,
            "priority": self.priority,
            "deadline": self.deadline,
            "repeats": self.repeats,
            "tenant": self.tenant,
        }

    def settled_record(self) -> dict:
        """The (seq-less) settled record this entry re-serializes to —
        used by compaction to keep keyed settlements replayable."""
        return {"kind": "settled", "jid": self.jid, **(self.settled or {})}


@dataclass
class OpenReport:
    """What :meth:`Journal.open` found and repaired."""

    segments: int = 0
    records: int = 0
    torn_tail_bytes: int = 0
    torn_truncations: int = 0
    dropped_segments: int = 0  # pre-compaction leftovers removed
    tmp_removed: int = 0  # uncommitted *.tmp compact segments removed
    entries: int = 0
    unsettled: int = 0
    frozen: int = 0

    def to_dict(self) -> dict:
        return dict(self.__dict__)


class Journal:
    """Append-only, checksummed, fsync'd submission journal.

    *path* is a directory (created on open).  ``fsync_policy`` is
    ``"always"`` (fsync every append — the durability the gateway
    relies on), ``"batch"`` (fsync on :meth:`flush`, rotation, and
    close), or ``"never"`` (tests only).  ``os_impl`` swaps the
    system-call surface for fault injection
    (:class:`~repro.durability.osshim.FaultyOs`).

    ``compact_retain_keyed`` (default True) makes compaction carry
    settled entries that have an idempotency key forward, so a
    replayed key keeps returning the journaled Result no matter how
    many compactions have run; set it False to bound the dedupe
    window at one compaction (keyed settlements are then dropped like
    unkeyed ones).
    """

    def __init__(
        self,
        path: str,
        *,
        os_impl: Optional[OsFacade] = None,
        segment_max_bytes: int = 1 << 20,
        fsync_policy: str = "always",
        auto_compact: bool = True,
        compact_min_settled: int = 256,
        compact_retain_keyed: bool = True,
        metrics=None,
    ) -> None:
        if fsync_policy not in ("always", "batch", "never"):
            raise JournalError(
                f"unknown fsync_policy {fsync_policy!r}: expected "
                "'always', 'batch', or 'never'"
            )
        if segment_max_bytes < 4 * FRAME_OVERHEAD:
            raise JournalError("segment_max_bytes is too small to hold records")
        self.path = str(path)
        self.segment_max_bytes = segment_max_bytes
        self.fsync_policy = fsync_policy
        self.auto_compact = auto_compact
        self.compact_min_settled = compact_min_settled
        self.compact_retain_keyed = compact_retain_keyed
        self._os = os_impl or OsFacade()
        self._lock = threading.Lock()
        self._fd: Optional[int] = None
        self._seg_index = 0
        self._seg_size = 0
        self._compacting = False
        self._open = False
        self._next_seq = 1
        self._next_jid = 1
        self.entries: Dict[int, JournalEntry] = {}
        self.by_key: Dict[str, int] = {}
        self.frozen_specs: Dict[int, object] = {}
        self.open_report = OpenReport()
        # running counts over self.entries, updated at every mutation,
        # so the per-settle auto-compaction check and the gauges stay
        # O(1) however many keyed entries the journal retains
        self._n_settled = 0
        self._n_droppable = 0

        # journal.* metrics (docs/observability.md, "Journal counters")
        if metrics is None:
            from repro.metrics.registry import MetricsRegistry

            metrics = MetricsRegistry()
        self.metrics = metrics
        self._m_appends = metrics.counter("journal.appends")
        self._m_bytes = metrics.counter("journal.bytes")
        self._m_fsyncs = metrics.counter("journal.fsyncs")
        self._m_rotations = metrics.counter("journal.rotations")
        self._m_compactions = metrics.counter("journal.compactions")
        self._m_torn = metrics.counter("journal.torn_truncations")
        self._m_errors = metrics.counter("journal.errors")
        metrics.register_callback("journal.segments", self._num_segments)
        metrics.register_callback(
            "journal.unsettled", lambda: len(self.entries) - self._n_settled
        )

    # -- introspection -------------------------------------------------
    @property
    def is_open(self) -> bool:
        return self._open

    @property
    def next_fid(self) -> int:
        return max(self.frozen_specs, default=0) + 1

    def _num_segments(self) -> int:
        if not os.path.isdir(self.path):
            return 0
        return sum(1 for n in os.listdir(self.path) if segment_index(n) is not None)

    def counts(self) -> Dict[str, int]:
        return {
            "entries": len(self.entries),
            "settled": self._n_settled,
            "unsettled": len(self.entries) - self._n_settled,
            "frozen": len(self.frozen_specs),
        }

    def lookup(self, key: str) -> Optional[int]:
        """jid journaled under idempotency key *key*, or None."""
        return self.by_key.get(key)

    def get(self, jid: int) -> Optional[JournalEntry]:
        return self.entries.get(jid)

    def unsettled(self) -> List[JournalEntry]:
        """Entries accepted but never settled, in jid order — exactly
        the work :meth:`repro.gateway.Gateway.recover` must resubmit."""
        return sorted(
            (e for e in self.entries.values() if not e.is_settled),
            key=lambda e: e.jid,
        )

    # -- open / close --------------------------------------------------
    def open(self) -> "Journal":
        """Open (or create) the journal: scan every segment, truncate
        a torn tail, rebuild the in-memory state, and position the
        write head.  Idempotent."""
        if self._open:
            return self
        os.makedirs(self.path, exist_ok=True)
        report = OpenReport()
        # an uncommitted compact segment (crash mid-compaction, before
        # the rename) is residue, never state — the superseded
        # generation it was replacing is still complete on disk
        for name in os.listdir(self.path):
            if is_tmp_segment(name):
                self._os.unlink(os.path.join(self.path, name))
                report.tmp_removed += 1
        names = sorted(
            n for n in os.listdir(self.path) if segment_index(n) is not None
        )

        # the newest compact segment supersedes everything before it;
        # a crash between "write compact segment" and "delete the old
        # ones" leaves harmless leftovers we drop (and remove) here
        start = 0
        for i, name in enumerate(names):
            if self._segment_is_compact(name):
                start = i
        for name in names[:start]:
            self._os.unlink(os.path.join(self.path, name))
            report.dropped_segments += 1
        names = names[start:]

        max_seq = 0
        max_jid = 0
        for pos, name in enumerate(names):
            final = pos == len(names) - 1
            spath = os.path.join(self.path, name)
            with open(spath, "rb") as fh:
                data = fh.read()
            records, good_end, problem = scan_bytes(data)
            if problem is not None:
                kind, offset = problem
                if not final:
                    raise JournalCorruptError(kind, name, offset)
                # torn tail: the expected residue of an interrupted
                # append — truncate it away and carry on
                report.torn_tail_bytes += len(data) - good_end
                report.torn_truncations += 1
                self._m_torn.inc()
                fd = self._os.open(spath, os.O_WRONLY)
                try:
                    self._os.ftruncate(fd, good_end)
                    if self.fsync_policy != "never":
                        self._os.fsync(fd)
                finally:
                    self._os.close(fd)
            for offset, rec in records:
                seq = rec.get("seq", 0)
                if seq <= max_seq:
                    raise JournalCorruptError("sequence", name, offset)
                max_seq = seq
                max_jid = max(max_jid, self._apply(rec, name, offset))
                report.records += 1
            report.segments += 1

        self._next_seq = max_seq + 1
        self._next_jid = max_jid + 1
        counts = self.counts()
        report.entries = counts["entries"]
        report.unsettled = counts["unsettled"]
        report.frozen = counts["frozen"]
        self.open_report = report

        if names:
            self._seg_index = segment_index(names[-1])
            spath = os.path.join(self.path, names[-1])
            self._seg_size = os.path.getsize(spath)
            self._fd = self._os.open(spath, os.O_WRONLY)
            os.lseek(self._fd, self._seg_size, os.SEEK_SET)
            self._open = True
        else:
            self._open = True
            self._new_segment(1, compact=False)
        return self

    def _segment_is_compact(self, name: str) -> bool:
        spath = os.path.join(self.path, name)
        try:
            with open(spath, "rb") as fh:
                head = fh.read(64 << 10)
        except OSError:
            return False
        records, _end, _problem = scan_bytes(head)
        if not records:
            return False
        first = records[0][1]
        return first.get("kind") == "segment_header" and bool(first.get("compact"))

    def _apply(self, rec: dict, segment: str, offset: int) -> int:
        """Fold one scanned record into the state; returns its jid (0
        for non-submission records)."""
        kind = rec.get("kind")
        if kind == "segment_header":
            return 0
        if kind == "accepted":
            jid = rec["jid"]
            if jid in self.entries:
                raise JournalCorruptError(
                    "duplicate", segment, offset,
                    f"journal corrupt (duplicate accepted jid {jid}) in "
                    f"segment {segment!r} at byte {offset}",
                )
            entry = JournalEntry.from_record(rec)
            self.entries[jid] = entry
            if entry.key:
                self.by_key[entry.key] = jid
            return jid
        if kind == "settled":
            jid = rec["jid"]
            entry = self.entries.get(jid)
            if entry is None:
                raise JournalCorruptError(
                    "orphan", segment, offset,
                    f"journal corrupt (settled orphan jid {jid}) in "
                    f"segment {segment!r} at byte {offset}",
                )
            if entry.is_settled:
                raise JournalCorruptError(
                    "duplicate", segment, offset,
                    f"journal corrupt (duplicate settle for jid {jid}) in "
                    f"segment {segment!r} at byte {offset}",
                )
            self._settle(entry, {
                k: rec[k]
                for k in ("outcome", "passes", "error", "reason", "wall_s",
                          "replans", "wid")
                if k in rec
            })
            return jid
        if kind == "frozen":
            self.frozen_specs[rec["fid"]] = rec["spec"]
            return 0
        # unknown kinds are skipped (forward compatibility)
        return 0

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                if self.fsync_policy != "never":
                    try:
                        self._os.fsync(self._fd)
                        self._m_fsyncs.inc()
                    except OSError:
                        pass
                try:
                    self._os.close(self._fd)
                except OSError:  # pragma: no cover - already gone
                    pass
                self._fd = None
            self._open = False

    def flush(self) -> None:
        """fsync the current segment (a no-op under ``"always"`` where
        every append already synced)."""
        with self._lock:
            if self._fd is not None and self.fsync_policy != "never":
                self._os.fsync(self._fd)
                self._m_fsyncs.inc()

    # -- appends -------------------------------------------------------
    def append_accepted(
        self,
        *,
        key: str = "",
        target: str = "spec",
        spec: object = None,
        fid: Optional[int] = None,
        iid: Optional[int] = None,
        priority: int = 0,
        deadline: Optional[float] = None,
        repeats: int = 1,
        tenant: str = "",
    ) -> int:
        """Journal one accepted submission; returns its durable jid.

        The record is on disk (and fsync'd, policy permitting) before
        this returns — the gateway calls it before the client sees the
        submission handle, so a crash can never lose accepted work."""
        with self._lock:
            self._check_writable()
            if key and key in self.by_key:
                raise JournalError(
                    f"idempotency key {key!r} already journaled as "
                    f"jid {self.by_key[key]} (dedupe before appending)"
                )
            jid = self._next_jid
            rec = {
                "kind": "accepted",
                "jid": jid,
                "key": key,
                "target": target,
                "spec": spec,
                "fid": fid,
                "iid": iid,
                "priority": priority,
                "deadline": deadline,
                "repeats": repeats,
                "tenant": tenant,
            }
            self._append(rec)
            self._next_jid = jid + 1
            entry = JournalEntry.from_record(rec)
            self.entries[jid] = entry
            if key:
                self.by_key[key] = jid
            return jid

    def append_settled(
        self,
        jid: int,
        *,
        outcome: str,
        passes: int = 0,
        error: str = "",
        reason: str = "",
        wall_s: float = 0.0,
        replans: int = 0,
        wid: int = -1,
    ) -> None:
        """Journal the terminal outcome of *jid* — exactly once.

        On disk before the gateway resolves the client's Result, so a
        settlement the client observed is never re-run after a crash."""
        with self._lock:
            self._check_writable()
            entry = self.entries.get(jid)
            if entry is None:
                raise JournalError(f"cannot settle unknown jid {jid}")
            if entry.is_settled:
                raise JournalError(
                    f"jid {jid} already settled "
                    f"({entry.settled.get('outcome')!r}); settlements are "
                    f"exactly-once"
                )
            fields = {
                "outcome": outcome,
                "passes": passes,
                "error": error,
                "reason": reason,
                "wall_s": wall_s,
                "replans": replans,
                "wid": wid,
            }
            self._append({"kind": "settled", "jid": jid, **fields})
            self._settle(entry, fields)
        try:
            self._maybe_compact()
        except JournalWriteError:
            # the settled record is already durable; the failed pass
            # was rolled back onto the old generation and counted in
            # journal.errors, and the next settle retries it
            pass

    def append_frozen(self, fid: int, spec: object) -> None:
        """Journal one frozen topology so recovery can re-ship it."""
        with self._lock:
            self._check_writable()
            if fid in self.frozen_specs:
                raise JournalError(f"fid {fid} already journaled")
            self._append({"kind": "frozen", "fid": fid, "spec": spec})
            self.frozen_specs[fid] = spec

    def _check_writable(self) -> None:
        if not self._open or self._fd is None:
            raise JournalError("journal is not open")

    def _append(self, record: dict) -> None:
        """Frame, write, and (policy permitting) fsync one record; the
        caller holds the lock.  A failed write rolls the segment back
        to its pre-append offset and raises a structured error."""
        record = dict(record)
        record["seq"] = self._next_seq
        frame = encode_record(record)
        if (
            not self._compacting  # a compact segment holds ALL live state
            and self._seg_size + len(frame) > self.segment_max_bytes
            and self._seg_size > 0
        ):
            self._rotate_locked()
            # the new segment's header consumed a seq: re-stamp
            record["seq"] = self._next_seq
            frame = encode_record(record)
        seg = segment_name(self._seg_index)
        offset = self._seg_size
        try:
            n = self._os.write(self._fd, frame)
        except OSError as exc:
            self._rollback(offset)
            self._m_errors.inc()
            import errno as _errno

            reason = "enospc" if exc.errno == _errno.ENOSPC else "write"
            raise JournalWriteError(
                reason, segment=seg, errno_code=exc.errno or 0
            ) from exc
        if n != len(frame):
            self._rollback(offset)
            self._m_errors.inc()
            raise JournalWriteError("short_write", segment=seg)
        if self.fsync_policy == "always":
            try:
                self._sync("fsync")
            except JournalWriteError:
                # the bytes may or may not be durable: roll back so the
                # record is *definitely not* committed rather than maybe
                self._rollback(offset)
                raise
        self._seg_size += len(frame)
        self._next_seq += 1
        self._m_appends.inc()
        self._m_bytes.inc(len(frame))

    def _rollback(self, offset: int) -> None:
        """Best-effort truncate back to *offset* after a failed append;
        if even that fails, the torn bytes are cleaned by the torn-tail
        scan on the next open."""
        try:
            self._os.ftruncate(self._fd, offset)
            os.lseek(self._fd, offset, os.SEEK_SET)
        except OSError:  # pragma: no cover - doubly-faulty device
            pass

    # -- rotation / compaction ----------------------------------------
    def rotate(self) -> None:
        """Seal the current segment and open a fresh one."""
        with self._lock:
            self._check_writable()
            self._rotate_locked()

    def _rotate_locked(self) -> None:
        self._sync("rotate")
        self._os.close(self._fd)
        self._fd = None
        self._new_segment(self._seg_index + 1, compact=False)
        self._m_rotations.inc()

    def _new_segment(self, index: int, *, compact: bool) -> None:
        spath = os.path.join(self.path, segment_name(index))
        self._fd = self._os.open(
            spath, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644
        )
        self._seg_index = index
        self._seg_size = 0
        self._append(
            {"kind": "segment_header", "index": index, "compact": compact}
        )
        try:
            self._os.fsync_dir(self.path)
        except OSError:  # pragma: no cover - exotic filesystems
            pass

    def _droppable(self, entry: JournalEntry) -> bool:
        """Would compaction discard *entry*?  Settled and either
        unkeyed or keyed-retention disabled."""
        return entry.is_settled and (
            not entry.key or not self.compact_retain_keyed
        )

    def _settle(self, entry: JournalEntry, fields: dict) -> None:
        """Record *entry*'s settlement in memory and in the counts."""
        entry.settled = fields
        self._n_settled += 1
        if self._droppable(entry):
            self._n_droppable += 1

    def _sync(self, reason: str) -> None:
        """fsync the open segment (policy permitting); a failure is
        counted and raised as a structured :class:`JournalWriteError`."""
        if self.fsync_policy == "never":
            return
        try:
            self._os.fsync(self._fd)
        except OSError as exc:
            self._m_errors.inc()
            raise JournalWriteError(
                reason,
                segment=segment_name(self._seg_index),
                errno_code=exc.errno or 0,
            ) from exc
        self._m_fsyncs.inc()

    def _maybe_compact(self) -> None:
        if not self.auto_compact:
            return
        with self._lock:
            if not self._open or self._n_droppable < self.compact_min_settled:
                return
        self.compact()

    def compact(self) -> int:
        """Rewrite the live records — frozen specs, unsettled entries,
        and (with ``compact_retain_keyed``, the default) keyed settled
        entries whose results must stay replayable for dedupe — into a
        fresh compact segment and drop everything older.  Returns the
        number of settled entries dropped.

        Crash-safe: the compact segment is written under a temporary
        name and renamed into place — atomically — only after every
        live record is on disk and fsync'd.  Until that rename the old
        generation is the only one open() can see, so a crash at any
        point mid-compaction loses nothing; open() removes the stale
        ``*.tmp`` file.  Any device fault during the pass — a failed
        write, fsync, create or rename — rolls the whole compaction
        back (the temporary file is unlinked, appends resume on the old
        generation, which stays open and untouched) and raises a
        structured :class:`~repro.errors.JournalWriteError`."""
        with self._lock:
            self._check_writable()
            old = [
                n
                for n in sorted(os.listdir(self.path))
                if segment_index(n) is not None
            ]
            # seal the old generation; on failure it is still the
            # open, untouched write head, so there is nothing to undo
            self._sync("fsync")
            prev_fd, prev_index, prev_size = self._fd, self._seg_index, self._seg_size
            dropped = self._n_droppable
            keep: List[JournalEntry] = []
            drop: List[JournalEntry] = []
            for entry in self.entries.values():  # jid order
                (drop if self._droppable(entry) else keep).append(entry)
            index = prev_index + 1
            final_path = os.path.join(self.path, segment_name(index))
            tmp_path = final_path + TMP_SUFFIX
            self._fd = None
            try:
                self._compacting = True
                try:
                    self._fd = self._os.open(
                        tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644
                    )
                except OSError as exc:
                    self._m_errors.inc()
                    raise JournalWriteError(
                        "write", segment=segment_name(index),
                        errno_code=exc.errno or 0,
                    ) from exc
                self._seg_index = index
                self._seg_size = 0
                self._append(
                    {"kind": "segment_header", "index": index, "compact": True}
                )
                for fid in sorted(self.frozen_specs):
                    self._append(
                        {"kind": "frozen", "fid": fid,
                         "spec": self.frozen_specs[fid]}
                    )
                for entry in keep:
                    self._append(entry.accepted_record())
                for entry in keep:
                    if entry.is_settled:
                        self._append(entry.settled_record())
                self._sync("fsync")
                # the commit point: the complete, fsync'd compact
                # segment becomes visible atomically
                try:
                    self._os.rename(tmp_path, final_path)
                except OSError as exc:
                    self._m_errors.inc()
                    raise JournalWriteError(
                        "rename", segment=segment_name(index),
                        errno_code=exc.errno or 0,
                    ) from exc
            except JournalWriteError:
                # roll the whole compaction back: remove the temporary
                # segment and resume appends on the old generation
                if self._fd is not None:
                    try:
                        self._os.close(self._fd)
                    except OSError:  # pragma: no cover - already gone
                        pass
                try:
                    self._os.unlink(tmp_path)
                except OSError:  # pragma: no cover - never created
                    pass
                self._fd = prev_fd
                self._seg_index, self._seg_size = prev_index, prev_size
                raise
            finally:
                self._compacting = False
            try:
                self._os.close(prev_fd)
            except OSError:  # pragma: no cover - already gone
                pass
            try:
                self._os.fsync_dir(self.path)
            except OSError:  # pragma: no cover - exotic filesystems
                pass
            # the compact generation is durable: drop the discarded
            # settled entries from memory and the old segments from disk
            for entry in drop:
                del self.entries[entry.jid]
                if entry.key:
                    self.by_key.pop(entry.key, None)
            self._n_settled -= dropped
            self._n_droppable = 0
            for name in old:
                self._os.unlink(os.path.join(self.path, name))
            try:
                self._os.fsync_dir(self.path)
            except OSError:  # pragma: no cover - exotic filesystems
                pass
            self._m_compactions.inc()
            return dropped


__all__ = [
    "Journal",
    "JournalEntry",
    "OpenReport",
    "MARKER",
    "FRAME_OVERHEAD",
    "RECORD_KINDS",
    "SAFE_GLOBALS",
    "TMP_SUFFIX",
    "encode_record",
    "decode_payload",
    "scan_bytes",
    "segment_name",
    "segment_index",
    "is_tmp_segment",
]
