"""The gateway control-plane protocol (pickle-framed pipe messages).

One duplex :class:`multiprocessing.connection.Connection` pair per
worker carries every control-plane exchange; messages are plain
frozen dataclasses, framed and pickled by the connection itself.  The
full reference, including the state machine each message participates
in, is docs/gateway.md ("Message protocol").

Gateway → worker (requests):

==================  ==================================================
:class:`Submit`     run a spec / instance / frozen graph; ``rid``-keyed
:class:`Freeze`     materialize + ``freeze()`` a spec, cache by ``fid``
:class:`Cancel`     cooperative cancel of an outstanding ``rid``
:class:`Drain`      stop admission, settle everything, reply `Drained`
:class:`Ping`       heartbeat probe, echoed as :class:`Pong`
:class:`MetricsPull` request a full executor metrics snapshot
:class:`Verify`     run a generated instance's oracle check
:class:`ChaosInject` wedge the recv loop (gray-failure injection)
:class:`Shutdown`   tear the executor down and exit the process
==================  ==================================================

Worker → gateway (replies and streams):

==================  ==================================================
:class:`Ready`      the worker's executor is up (pid, config echo)
:class:`Accepted`   a submission passed worker-side admission
:class:`Settled`    terminal outcome of one submission (exactly once)
:class:`Frozen`     a :class:`Freeze` completed (or failed)
:class:`Drained`    a :class:`Drain` finished (ok = within timeout)
:class:`Pong`       heartbeat echo with in-flight count
:class:`MetricsReply` the executor + worker metric snapshot
:class:`Verified`   oracle violations for a :class:`Verify`
:class:`EventMsg`   structured event stream (degraded, replanned, …)
==================  ==================================================

Every request that expects a reply carries the gateway-chosen id the
reply echoes; the worker never invents ids.  Replies may interleave
arbitrarily with :class:`Accepted`/:class:`Settled` traffic — the
stream is FIFO per worker but unordered across workers.

The gateway reads its end of each pipe on the event loop rather than
through ``Connection.recv``; :func:`split_frames` decodes the
connection's length-prefixed framing from the raw bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.gateway.spec import WorkSpec

#: protocol schema tag, checked at Ready-time; bump on layout changes
#: (2: added :class:`ChaosInject` for deterministic gray-failure soaks;
#: 3: :class:`Submit` carries the durable journal id ``jid`` so worker
#: logs/events can be correlated with journal entries)
PROTOCOL_VERSION = 3

#: terminal outcomes a Settled message may carry — the same classes the
#: in-process soak reconciles, plus the gateway-level ``worker_lost``
OUTCOMES = (
    "completed",
    "rejected",
    "shed",
    "deadline_exceeded",
    "cancelled",
    "failed",
    "worker_lost",
)


# ---------------------------------------------------------------------------
# gateway -> worker
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Submit:
    """Run a workload.  Exactly one of *spec*/*fid* names the graph:
    *spec* (+ optional *iid*) materializes (or reuses) a worker-local
    instance; *fid* replays a previously shipped frozen topology."""

    rid: int
    spec: Optional[WorkSpec] = None
    iid: Optional[int] = None
    fid: Optional[int] = None
    repeats: int = 1
    priority: int = 0
    deadline: Optional[float] = None
    tenant: str = ""
    #: durable journal id (0 = unjournaled); pass-through for worker
    #: logs and events — the worker never interprets it
    jid: int = 0


@dataclass(frozen=True)
class Freeze:
    """Materialize *spec* and ``freeze()`` it under *fid* (ships once;
    every later :class:`Submit` replays by id — the PR 6 fast path
    survives the process boundary)."""

    rid: int
    fid: int
    spec: WorkSpec


@dataclass(frozen=True)
class Cancel:
    rid: int


@dataclass(frozen=True)
class Drain:
    rid: int
    timeout: Optional[float] = None


@dataclass(frozen=True)
class Ping:
    seq: int


@dataclass(frozen=True)
class MetricsPull:
    rid: int


@dataclass(frozen=True)
class Verify:
    """Oracle-check generated instance *iid* against *passes* completed
    passes (docs/gateway.md, "Verification")."""

    rid: int
    iid: int
    passes: int


@dataclass(frozen=True)
class ChaosInject:
    """Deterministically wedge the worker's recv loop: sleep *stall_s*
    (a gray stall — heartbeats stop being answered while the process
    stays alive) and/or busy-spin *spin_s* (a starved control loop).
    Used by the gray soak and ``Gateway.inject_chaos``; no reply."""

    stall_s: float = 0.0
    spin_s: float = 0.0


@dataclass(frozen=True)
class Shutdown:
    pass


# ---------------------------------------------------------------------------
# worker -> gateway
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Ready:
    wid: int
    pid: int
    protocol: int = PROTOCOL_VERSION


@dataclass(frozen=True)
class Accepted:
    """The submission passed worker-side admission and entered the
    executor; a :class:`Settled` will follow exactly once."""

    rid: int
    wid: int


@dataclass(frozen=True)
class Settled:
    """Terminal outcome of one submission."""

    rid: int
    outcome: str
    passes: int = 0
    error: str = ""
    reason: str = ""
    wall_s: float = 0.0


@dataclass(frozen=True)
class Frozen:
    rid: int
    fid: int
    ok: bool
    error: str = ""


@dataclass(frozen=True)
class Drained:
    rid: int
    ok: bool


@dataclass(frozen=True)
class Pong:
    seq: int
    wid: int
    inflight: int


@dataclass(frozen=True)
class MetricsReply:
    rid: int
    wid: int
    snapshot: Dict = field(default_factory=dict)


@dataclass(frozen=True)
class Verified:
    rid: int
    iid: int
    violations: Tuple[str, ...] = ()


@dataclass(frozen=True)
class EventMsg:
    """One structured event: worker lifecycle (``worker_ready``,
    ``worker_draining``) or per-submission progress forwarded into the
    gateway's streaming event queues."""

    rid: Optional[int]
    kind: str
    fields: Dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------
#: ``multiprocessing.Connection`` frame header: a signed payload length,
#: or -1 followed by an unsigned 64-bit length for very large frames
_LEN = struct.Struct("!i")
_LEN_LARGE = struct.Struct("!Q")


def split_frames(buf: bytearray) -> List[bytes]:
    """Remove every complete ``Connection`` frame from the head of
    *buf* and return their payloads in order; a trailing partial frame
    stays in *buf* for the next read.  Raises :class:`ValueError` on a
    length prefix no ``Connection`` writes."""
    frames: List[bytes] = []
    off, n = 0, len(buf)
    while n - off >= _LEN.size:
        (size,) = _LEN.unpack_from(buf, off)
        start = off + _LEN.size
        if size == -1:
            if n - start < _LEN_LARGE.size:
                break
            (size,) = _LEN_LARGE.unpack_from(buf, start)
            start += _LEN_LARGE.size
        elif size < 0:
            raise ValueError(f"corrupt frame length {size}")
        if n - start < size:
            break
        frames.append(bytes(buf[start : start + size]))
        off = start + size
    del buf[:off]
    return frames


__all__ = [
    "PROTOCOL_VERSION",
    "OUTCOMES",
    "split_frames",
    "Submit",
    "Freeze",
    "Cancel",
    "Drain",
    "Ping",
    "MetricsPull",
    "Verify",
    "ChaosInject",
    "Shutdown",
    "Ready",
    "Accepted",
    "Settled",
    "Frozen",
    "Drained",
    "Pong",
    "MetricsReply",
    "Verified",
    "EventMsg",
]
