"""Shared pieces of the benchmark: statistics, checks, spans, probes.

Nothing here imports :mod:`repro` at module level, so the spawned
floor-probe child and the gateway's spawned workers (which re-import
``run.py`` as ``__mp_main__``) stay cheap to start.
"""

from __future__ import annotations

import gc
import itertools
import json
import multiprocessing
import os
import pickle
import platform
import time
from typing import Dict, List, Optional, Sequence

CLK_TCK = os.sysconf("SC_CLK_TCK")


# -- statistics ----------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def p90(values: Sequence[float]) -> float:
    return quantile(values, 0.9)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pick(values: Sequence, keep: Optional[Sequence[int]] = None) -> list:
    """*values* (one per block) restricted to the blocks in *keep*."""
    return list(values) if keep is None else [values[i] for i in keep if i < len(values)]


def iqm(values: Sequence[float]) -> float:
    """Interquartile mean: the mean of the middle half of *values* (a
    quarter of them trimmed from each end); 0.0 for an empty sample."""
    s = sorted(values)
    k = len(s) // 4
    mid = s[k:len(s) - k]
    return sum(mid) / len(mid) if mid else 0.0


def block_iqm(blocks: Sequence[Sequence[float]], stat=median,
              keep: Optional[Sequence[int]] = None) -> float:
    """Interquartile mean over blocks of a per-block statistic (empty
    blocks skipped).

    A burst of interference on the shared machine spoils a block or two;
    trimming the outer quarters ignores them where a pooled statistic
    would not.  Averaging the middle half rather than taking its median
    uses eight blocks instead of one, which matters where a metric drifts
    through the run (journal latency grows with the journal).
    *keep* restricts it to the given block indices."""
    return iqm([stat(b) for b in pick(blocks, keep) if b])


class StealMeter:
    """Share of CPU time the hypervisor took from this VM, per block.

    Read from the ``steal`` column of ``/proc/stat``.  A block during
    which the host descheduled our vCPUs measured the neighbours, not the
    code, so :meth:`quiet` names the blocks the end-to-end figures use.
    The choice looks at the machine, never at a metric, so it cannot
    favour one version of the code."""

    #: steal share up to which a block counts as undisturbed
    QUIET = 0.02

    def __init__(self) -> None:
        self.shares: List[float] = []
        self._start = self._read()

    @staticmethod
    def _read() -> tuple:
        try:
            with open("/proc/stat") as fh:
                ticks = [int(x) for x in fh.readline().split()[1:9]]
        except (OSError, ValueError):
            return (0, 0)
        return (ticks[7], sum(ticks))

    def start(self) -> None:
        self._start = self._read()

    def stop(self) -> None:
        end = self._read()
        self.shares.append(ratio(end[0] - self._start[0], end[1] - self._start[1]))

    def quiet(self) -> List[int]:
        """Blocks with at most 2% steal, or, when most blocks were
        disturbed, the less disturbed half.  A calm run keeps every block,
        so a metric that drifts through the run (the journal grows) is
        sampled evenly unless the machine forces a choice."""
        cut = max(self.QUIET, median(self.shares))
        return [i for i, share in enumerate(self.shares) if share <= cut]


# -- correctness ---------------------------------------------------------
class Checks:
    """Operation and check tally behind the result line.

    ``op`` counts one attempted operation (a graph run, a request); a
    failed operation or a failed ``check`` adds one to ``failed``, so a
    single wrong count or wrong replayed Result fails the whole run.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def op(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 50:
                self.problems.append(f"operation failed: {what}")

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        if not ok:
            self.failed += 1
            self.problems.append(f"check {name} failed: {detail}")

    def equal(self, name: str, got, want) -> None:
        self.check(name, got == want, f"got {got!r}, want {want!r}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def check_replays(checks: Checks, originals: Dict[str, object], replays: Dict[str, object]) -> None:
    """Every deduplicated replay must return exactly its original Result."""
    checks.equal("dedupe.sample_size", len(replays), len(originals))
    for key, replayed in replays.items():
        checks.equal(f"dedupe.result[{key}]", replayed, originals.get(key))


# -- spans ---------------------------------------------------------------
class Tracer:
    """In-memory spans: name, start, end, parent span and request id.

    With ``enabled=False`` every call is a no-op returning 0, so the
    untraced path pays one attribute test per span site.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[dict] = []
        # next() on a count is atomic, and executor slices record spans
        # from a helper thread while the event loop records its own
        self._ids = itertools.count(1)
        #: span id a journal accept write is parented to (set by the
        #: load generator around its synchronous ``submit()`` call)
        self.current = 0
        self.current_rid = ""
        #: journal id -> (request id, root span id), for settle writes
        self.by_jid: Dict[int, tuple] = {}

    def new_id(self) -> int:
        return next(self._ids)

    def span(self, name: str, start: float, end: float, *, parent: int = 0,
             rid: str = "", sid: int = 0, **args) -> int:
        if not self.enabled:
            return 0
        sid = sid or self.new_id()
        rec = {"id": sid, "name": name, "start": start, "end": max(end, start),
               "parent": parent, "rid": rid}
        if args:
            rec["args"] = args
        self.spans.append(rec)
        return sid

    def self_times(self) -> Dict[str, dict]:
        """Per span name: count, total and self time (seconds).

        Self time is a span's duration minus the part of it covered by
        its children (union of child intervals clipped to the span)."""
        children: Dict[int, List[tuple]] = {}
        for s in self.spans:
            if s["parent"]:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out: Dict[str, dict] = {}
        for s in self.spans:
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted(children.get(s["id"], ())):
                lo, hi = max(lo, s["start"]), min(hi, s["end"])
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            dur = s["end"] - s["start"]
            row = out.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += dur
            row["self_s"] += max(0.0, dur - covered)
        return out

    def write_chrome(self, path: str) -> None:
        """Chrome trace (``chrome://tracing`` / Perfetto) of every span."""
        lanes: Dict[str, int] = {}
        events = []
        t0 = min((s["start"] for s in self.spans), default=0.0)
        for s in self.spans:
            lane = lanes.setdefault(s["name"].split(".")[0], len(lanes) + 1)
            args = {"id": s["id"], "parent": s["parent"], "rid": s["rid"]}
            args.update(s.get("args", {}))
            events.append({
                "name": s["name"], "ph": "X", "pid": 1, "tid": lane,
                "ts": (s["start"] - t0) * 1e6, "dur": (s["end"] - s["start"]) * 1e6,
                "args": args,
            })
        for name, tid in lanes.items():
            events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                           "args": {"name": name}})
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def self_time_table(tracer: Tracer, requests: int) -> str:
    rows = sorted(tracer.self_times().items(), key=lambda kv: -kv[1]["self_s"])
    lines = [f"{'span':<22}{'count':>9}{'total ms':>12}{'self ms':>12}{'self us/req':>13}"]
    for name, r in rows:
        lines.append(
            f"{name:<22}{r['count']:>9}{r['total_s'] * 1e3:>12.2f}"
            f"{r['self_s'] * 1e3:>12.2f}{ratio(r['self_s'] * 1e6, requests):>13.1f}"
        )
    return "\n".join(lines)


def settle_heap() -> None:
    """Collect, then hide every survivor from the cyclic collector.

    Called between blocks, outside every timed slice, so that a full
    collection inside a slice costs what that slice allocated rather than
    the size of the benchmark's inputs and accumulated records; without
    it, gen-2 pauses grow with run length and stall the event loop."""
    gc.collect()
    gc.freeze()


# -- CPU time ------------------------------------------------------------
def proc_cpu_s(pid: int) -> float:
    """utime + stime of *pid* from ``/proc`` (0.0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def children_cpu_s() -> float:
    return sum(proc_cpu_s(p.pid) for p in multiprocessing.active_children())


def reap_children() -> int:
    """Kill and join every live child process; returns how many there were."""
    kids = multiprocessing.active_children()
    for p in kids:
        p.kill()
    for p in kids:
        p.join(5.0)
    return len(kids)


def stop_resource_tracker(timeout: float = 5.0) -> bool:
    """Stop multiprocessing's resource tracker and wait until it has exited.

    Starting a spawn-context child also starts a tracker process that is
    not a child in ``active_children()``; left alone it exits only some
    time after this process does, so the run would end with it still
    alive.  Closing its pipe tells it to exit; it is killed if it has not
    within *timeout*.  Returns True if it exited by itself (or never ran).
    Call it after every child is gone: a live child keeps the pipe open."""
    from multiprocessing import resource_tracker

    rt = resource_tracker._resource_tracker
    fd, pid = getattr(rt, "_fd", None), getattr(rt, "_pid", None)
    if fd is None or pid is None:
        return True
    rt._fd = rt._pid = None
    try:
        os.close(fd)
    except OSError:
        pass
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if os.waitpid(pid, os.WNOHANG)[0]:
                return True
        except ChildProcessError:
            return True
        time.sleep(0.01)
    try:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
    except (ProcessLookupError, ChildProcessError):
        pass
    return False


# -- environment ---------------------------------------------------------
def _git_sha(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def fs_type(path: str) -> str:
    """Filesystem type of the mount holding *path* (longest prefix)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mnt = parts[1]
                inside = path == mnt or path.startswith(mnt.rstrip("/") + "/")
                if inside and len(mnt) > len(best):
                    best, kind = mnt, parts[2]
    except OSError:
        pass
    return kind


def environment(root: str, data_dir: str) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(root),
        "loadavg_start": list(os.getloadavg()),
        "data_fs": fs_type(data_dir),
    }


# -- floors --------------------------------------------------------------
def _echo(conn) -> None:
    while True:
        msg = conn.recv()
        if msg is None:
            return
        conn.send(msg)


def pipe_rtt_us(rounds: int = 2000) -> float:
    """Median round trip of a small message over a spawn-context pipe."""
    ctx = multiprocessing.get_context("spawn")
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=_echo, args=(child,), daemon=True)
    proc.start()
    try:
        parent.send(b"x")
        parent.recv()
        samples = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            parent.send(b"x")
            parent.recv()
            samples.append(time.perf_counter() - t0)
    finally:
        parent.send(None)
        proc.join(5.0)
        if proc.is_alive():
            proc.kill()
            proc.join(5.0)
    return median(samples) * 1e6


def pickle_rtt_us(msg, rounds: int = 2000) -> float:
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        pickle.loads(pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL))
        samples.append(time.perf_counter() - t0)
    return median(samples) * 1e6


class LoopSlice:
    """Completions and CPU of one closed-loop slice.

    ``cpu`` returns a tuple of CPU seconds, one entry per process group.
    Capacity and CPU per request are medians over a run's slices."""

    def __init__(self, cpu) -> None:
        self.cpu = cpu
        self.t0 = time.perf_counter()
        self.cpu0 = cpu()
        self.done = 0
        self.elapsed = 0.0
        self.cpu_s: tuple = ()

    def finish(self, done: int) -> None:
        self.elapsed = time.perf_counter() - self.t0
        self.done = done
        self.cpu_s = tuple(b - a for a, b in zip(self.cpu0, self.cpu()))

    @property
    def rate(self) -> float:
        return ratio(self.done, self.elapsed)

    def cpu_per_done(self, part: Optional[int] = None) -> float:
        """CPU seconds per completion (one part, or all summed)."""
        return ratio(sum(self.cpu_s) if part is None else self.cpu_s[part], self.done)


def poisson_schedule(rng, rate: float, duration: float) -> List[float]:
    """Arrival offsets (seconds) of a Poisson process over *duration*."""
    out, t = [], 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= duration:
            return out
        out.append(t)


def timing_os(tracer: Tracer):
    """A journal ``OsFacade`` that times every write and fsync.

    Built lazily so importing this module never imports :mod:`repro`.
    Accept records are parented to the load generator's current submit
    span; settle records get a ``gateway.settle`` span (write start to
    fsync end) under the request's root span, found by journal id.
    """
    from repro.durability import OsFacade, scan_bytes

    class TimingOs(OsFacade):
        def __init__(self) -> None:
            self.write_s: List[float] = []
            self.fsync_s: List[float] = []
            self._last: Optional[tuple] = None

        def write(self, fd: int, data: bytes) -> int:
            t0 = time.perf_counter()
            n = super().write(fd, data)
            t1 = time.perf_counter()
            self.write_s.append(t1 - t0)
            if tracer.enabled:
                records, _end, _bad = scan_bytes(data)
                rec = records[0][1] if records else {}
                self._last = (rec.get("kind", ""), rec.get("jid", 0), t0, t1)
            return n

        def fsync(self, fd: int) -> None:
            t0 = time.perf_counter()
            super().fsync(fd)
            t1 = time.perf_counter()
            self.fsync_s.append(t1 - t0)
            if tracer.enabled and self._last is not None:
                kind, jid, w0, w1 = self._last
                self._last = None
                if kind == "accepted":
                    parent, rid = tracer.current, tracer.current_rid
                elif kind == "settled" and jid in tracer.by_jid:
                    rid, root = tracer.by_jid[jid]
                    parent = tracer.span("gateway.settle", w0, t1, parent=root, rid=rid)
                else:
                    return
                tracer.span("journal.write", w0, w1, parent=parent, rid=rid)
                tracer.span("journal.fsync", t0, t1, parent=parent, rid=rid)

    return TimingOs()
