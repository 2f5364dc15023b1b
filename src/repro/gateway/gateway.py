"""Asyncio multiprocess gateway: submission front-end + worker pool.

The tier above the single-process service layer (docs/gateway.md).  A
:class:`Gateway` owns N **spawned worker processes** — each hosting a
full :class:`repro.core.Executor` with its own simulated device group,
admission controller, and metrics registry — and multiplexes an
asyncio submission API over a pickle-framed pipe per worker:

- :meth:`Gateway.submit` routes a :class:`~repro.gateway.spec.WorkSpec`
  (or a pinned instance / frozen handle) to a worker and returns an
  awaitable :class:`Submission` whose ``async for`` side streams
  structured progress events;
- :meth:`Gateway.freeze` ships a spec to every worker once; later
  submissions replay by ``fid``, so the PR 6 compiled-plan fast path
  survives the process boundary;
- a **monitor task** heartbeats every worker, detects dead or
  heartbeat-silent processes, respawns a replacement into the same
  slot, and resolves the casualties' in-flight submissions through the
  replan path (resubmit once to the replacement; a second loss settles
  with a structured ``worker_lost`` outcome);
- :meth:`Gateway.drain` / :meth:`Gateway.shutdown` compose the PR 5
  per-executor guarantees across the pool, so every awaitable settles.

Gray failures get their own machinery (docs/gateway.md, "Gray
failures"), because a worker that is *alive but sick* must not be
killed — its in-flight work may still settle:

- every slot carries a :class:`~repro.gateway.health.WorkerHealth`
  estimator (heartbeat round-trip EWMA + settle-latency quantiles) and
  a per-worker :class:`~repro.resilience.CircuitBreaker`.  A worker
  that stops answering heartbeats past the **stall window**
  (``stall_misses`` intervals — well under the death budget) is marked
  *stalled*; consecutive stalled ticks trip its breaker open, which
  removes it from routing and reroutes its reroutable in-flight legs
  to healthy workers.  Heartbeats keep flowing — they double as
  half-open probes, and enough pongs close the breaker and re-admit
  the worker;
- a gateway-wide :class:`~repro.resilience.RetryBudget` token bucket
  caps all retry-shaped amplification (death replays + breaker
  reroutes); over-budget work settles immediately with a structured
  ``worker_lost`` / ``reason="retry_budget"`` result instead of
  feeding a retry storm.  Completed settlements refill the bucket;
- :meth:`Gateway.submit` accepts ``hedge_after=`` for **frozen**
  targets: if the primary has not settled by the delay (a float, or
  ``"p95"`` to quote the primary worker's settle-latency quantile),
  a duplicate leg launches on the healthiest other worker.  The first
  Settled wins, every other leg is cancelled, and the caller observes
  exactly one Result.

The gateway process itself stops being a single point of failure once
a **durable journal** is attached (``journal=`` / ``repro serve
--journal``; docs/durability.md): every acceptance is journaled before
the client sees the Submission, every settlement before the Result
resolves, and a client-supplied ``idempotency_key=`` dedupes
resubmission after a crash — a replayed key returns the journaled
settlement instead of re-running.  :meth:`Gateway.recover` replays the
log on restart: frozen fids are re-shipped, unsettled spec/frozen work
is resubmitted to the fresh pool, and pinned-instance entries settle
``worker_lost`` / ``reason="not_replayable"`` (the PR 8 taint
semantics, applied across a process boundary), so every journaled
submission reaches **exactly one** settlement.

The architecture follows vLLM's ``MultiprocessingGPUExecutor`` /
``DistributedGPUExecutor`` split and StarPU's driver-per-device worker
model: an asyncio front-end that fans control-plane messages out to
per-device worker processes, with a worker monitor task on the event
loop.  Completions come back without a thread hop: every worker pipe
is registered with ``loop.add_reader``, and each readiness callback
does one non-blocking read, splits out the complete frames and
dispatches them inline, in pipe (FIFO) order.

Everything is observable through the ``gateway.*`` metrics cataloged
in docs/observability.md: the PR 8 counters plus
``gateway.health.*``, ``gateway.breaker.*``, ``gateway.hedge.*``, and
``gateway.retry_budget.*``.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import os
import pickle
import time
import zlib
from dataclasses import dataclass, field, replace
from typing import AsyncIterator, Dict, Iterable, List, Optional, Union

from repro.durability.journal import Journal, JournalEntry
from repro.errors import GatewayError, JournalError, WorkerDiedError
from repro.gateway import messages as m
from repro.gateway.health import HealthConfig, WorkerHealth
from repro.gateway.spec import WorkSpec
from repro.gateway.worker import WorkerConfig, worker_main
from repro.metrics.registry import MetricsRegistry
from repro.resilience import CircuitBreaker, RetryBudget

#: how long Gateway.start waits for every worker's Ready
_READY_TIMEOUT = 60.0
#: default grace period after drain for straggler Settled messages
_DRAIN_GRACE = 5.0
#: default missed-heartbeat budget before a silent worker is declared
#: dead (the *death* budget; the stall window is much smaller)
_HEARTBEAT_MISSES = 20
#: default missed-heartbeat budget before a worker is considered
#: *stalled* (alive but wedged) — must be < the death budget
_STALL_MISSES = 4
#: bytes taken from a worker pipe per readiness callback
_READ_CHUNK = 1 << 16


@dataclass(frozen=True)
class Result:
    """Terminal outcome of one gateway submission.

    Every submission settles with exactly one Result — the gateway
    never strands an awaitable.  ``outcome`` is one of
    :data:`repro.gateway.messages.OUTCOMES`; ``ok`` is sugar for
    ``outcome == "completed"``.
    """

    outcome: str
    passes: int = 0
    error: str = ""
    reason: str = ""
    wall_s: float = 0.0
    wid: int = -1
    replans: int = 0

    @property
    def ok(self) -> bool:
        return self.outcome == "completed"


class Submission:
    """Awaitable handle for one gateway submission.

    ``await sub`` yields the :class:`Result`; ``async for ev in
    sub.events()`` streams structured progress dicts (``submitted``,
    ``accepted``, ``replanned``, ``rerouted``, ``hedged``,
    ``settled``) and terminates once the submission settles.

    One submission may fan out into several worker-side **legs**
    (reroutes off a breaker-opened worker, hedges): each leg has its
    own rid, all map back here, and exactly one leg's Settled becomes
    the Result — the rest are cancelled and their settles dropped.
    """

    def __init__(
        self, rid: int, wid: int, tenant: str, request: Optional[m.Submit], loop
    ) -> None:
        self.rid = rid
        self.wid = wid
        self.tenant = tenant
        self.request = request
        self.replans = 0
        self.cancel_requested = False
        self.accepted = False
        #: durable journal id (0 = unjournaled) and the client's key
        self.jid = 0
        self.idempotency_key = ""
        #: set once the settlement has been journaled (exactly once)
        self.journal_settled = False
        self.t0 = time.monotonic()
        self.future: asyncio.Future = loop.create_future()
        self._events: asyncio.Queue = asyncio.Queue()
        #: active leg rids (primary + reroutes + hedges)
        self.rids: set = {rid}
        #: leg rid -> wid it was sent to
        self.legs: Dict[int, int] = {rid: wid}
        #: legs rerouted *away* — their "cancelled" settle is dropped
        self.suppressed: set = set()
        #: legs launched as hedges (for win/loss accounting)
        self.hedge_rids: set = set()

    def __await__(self):
        return self.future.__await__()

    def done(self) -> bool:
        return self.future.done()

    async def events(self) -> AsyncIterator[dict]:
        """Async iterator over this submission's progress events."""
        while True:
            ev = await self._events.get()
            if ev is None:
                return
            yield ev

    def _push(self, kind: str, **fields) -> None:
        ev = {"kind": kind, "rid": self.rid}
        ev.update(fields)
        self._events.put_nowait(ev)

    def _close_events(self) -> None:
        self._events.put_nowait(None)


@dataclass
class GraphHandle:
    """A spec pinned to one worker slot: repeated submissions reuse the
    worker-local graph instance (join counters and spans live there).
    A worker death re-materializes the instance on the replacement and
    marks the handle *tainted* — oracle verification across the death
    would be meaningless."""

    iid: int
    spec: WorkSpec
    wid: int
    tainted: bool = False


@dataclass(frozen=True)
class FrozenHandle:
    """A spec frozen on every worker under one gateway-wide ``fid``."""

    fid: int
    spec: WorkSpec


@dataclass
class RecoveryReport:
    """What :meth:`Gateway.recover` replayed out of the journal.

    ``submissions`` holds the live handles for the resubmitted entries
    (awaitable like any other Submission); ``not_replayable`` counts
    pinned-instance entries settled ``worker_lost`` /
    ``reason="not_replayable"`` — their worker-local graph state died
    with the old process, so re-running them would be a lie."""

    frozen_reshipped: int = 0
    resubmitted: int = 0
    not_replayable: int = 0
    jids: List[int] = field(default_factory=list)
    submissions: List[Submission] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "frozen_reshipped": self.frozen_reshipped,
            "resubmitted": self.resubmitted,
            "not_replayable": self.not_replayable,
            "jids": list(self.jids),
        }


class _WorkerHandle:
    """Gateway-side state for one worker slot occupant."""

    __slots__ = (
        "wid",
        "proc",
        "conn",
        "fd",
        "buf",
        "ready",
        "ready_event",
        "dead",
        "last_pong",
        "inflight",
        "pings",
    )

    def __init__(self, wid: int, proc, conn, loop) -> None:
        self.wid = wid
        self.proc = proc
        self.conn = conn
        #: pipe fd registered with the loop's reader (-1 once removed)
        self.fd = conn.fileno()
        #: bytes read but not yet a complete frame
        self.buf = bytearray()
        self.ready = False
        self.ready_event = asyncio.Event()
        self.dead = False
        self.last_pong = time.monotonic()
        self.inflight: set = set()
        #: ping seq -> send timestamp (round-trip measurement)
        self.pings: Dict[int, float] = {}


class Gateway:
    """Asyncio front-end over a pool of executor worker processes."""

    def __init__(
        self,
        num_workers: int = 2,
        *,
        worker: Optional[WorkerConfig] = None,
        heartbeat_interval: float = 0.25,
        max_replans: int = 1,
        heartbeat_misses: int = _HEARTBEAT_MISSES,
        stall_misses: int = _STALL_MISSES,
        drain_grace: float = _DRAIN_GRACE,
        health: Optional[HealthConfig] = None,
        retry_budget: Optional[RetryBudget] = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 1.0,
        breaker_probe_successes: int = 2,
        journal: Optional[Union[str, Journal]] = None,
        seed: int = 0,
        name: str = "gateway",
    ) -> None:
        if num_workers < 1:
            raise GatewayError("gateway needs at least one worker")
        if heartbeat_misses < 1:
            raise GatewayError("gateway needs heartbeat_misses >= 1")
        if not 0 < stall_misses < heartbeat_misses:
            raise GatewayError(
                "gateway needs 0 < stall_misses < heartbeat_misses "
                "(a stall must be detectable before death)"
            )
        if drain_grace < 0:
            raise GatewayError("gateway needs drain_grace >= 0")
        self.name = name
        self.num_workers = num_workers
        self.worker_config = worker or WorkerConfig()
        self.heartbeat_interval = heartbeat_interval
        self.max_replans = max_replans
        self.heartbeat_misses = heartbeat_misses
        self.stall_misses = stall_misses
        self.drain_grace = drain_grace
        self.seed = seed
        self._health_config = health or HealthConfig()
        self._stall_after_s = stall_misses * heartbeat_interval
        self._retry_budget = retry_budget or RetryBudget()
        self._ctx = multiprocessing.get_context("spawn")
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._workers: List[Optional[_WorkerHandle]] = [None] * num_workers
        self._health: List[WorkerHealth] = [
            self._new_health(wid) for wid in range(num_workers)
        ]
        # breakers persist across respawns (reset(), not replaced):
        # the *slot* carries the trip history, not the process
        self._breakers: List[CircuitBreaker] = [
            CircuitBreaker(
                failure_threshold=breaker_threshold,
                cooldown=breaker_cooldown,
                probe_successes=breaker_probe_successes,
                seed=seed,
                name=f"{name}-w{wid}",
            )
            for wid in range(num_workers)
        ]
        self._subs: Dict[int, Submission] = {}
        self._pending: Dict[int, asyncio.Future] = {}
        self._frozen: Dict[int, WorkSpec] = {}
        self._instances: Dict[int, GraphHandle] = {}
        #: durable journal (opened in start()); jid -> live Submission
        self._journal_src = journal
        self.journal: Optional[Journal] = None
        self._jid_subs: Dict[int, Submission] = {}
        self._rids = itertools.count(1)
        self._fids = itertools.count(1)
        self._iids = itertools.count(1)
        self._rr = itertools.count()
        self._ping_seq = itertools.count(1)
        self._draining = False
        self._closing = False
        self._started = False
        self._monitor_task: Optional[asyncio.Task] = None

        # gateway.* metrics (docs/observability.md, "Gateway counters")
        self.metrics = MetricsRegistry()
        self._m_submits = self.metrics.counter("gateway.submits")
        self._m_cancels = self.metrics.counter("gateway.cancels")
        self._m_settled = self.metrics.counter("gateway.settled")
        self._m_deaths = self.metrics.counter("gateway.worker_deaths")
        self._m_respawns = self.metrics.counter("gateway.respawns")
        self._m_replans = self.metrics.counter("gateway.replans")
        self._m_rt = self.metrics.histogram("gateway.round_trip_seconds")
        self._m_stalls = self.metrics.counter("gateway.health.stalls")
        self._m_health_score = self.metrics.histogram("gateway.health.score")
        self._m_breaker_opened = self.metrics.counter("gateway.breaker.opened")
        self._m_breaker_closed = self.metrics.counter("gateway.breaker.closed")
        self._m_rerouted = self.metrics.counter("gateway.breaker.rerouted")
        self._m_hedge_launched = self.metrics.counter("gateway.hedge.launched")
        self._m_hedge_wins = self.metrics.counter("gateway.hedge.wins")
        self._m_hedge_losses = self.metrics.counter("gateway.hedge.losses")
        self._m_hedge_dropped = self.metrics.counter("gateway.hedge.dropped")
        self._m_hedge_no_target = self.metrics.counter("gateway.hedge.no_target")
        self._m_budget_spent = self.metrics.counter("gateway.retry_budget.spent")
        self._m_budget_exhausted = self.metrics.counter(
            "gateway.retry_budget.exhausted"
        )
        self._m_dedup = self.metrics.counter("journal.dedup_hits")
        self._m_recover_frozen = self.metrics.counter(
            "gateway.recover.frozen_reshipped"
        )
        self._m_recover_resubmitted = self.metrics.counter(
            "gateway.recover.resubmitted"
        )
        self._m_recover_not_replayable = self.metrics.counter(
            "gateway.recover.not_replayable"
        )
        self.metrics.register_callback(
            "gateway.workers_alive", self._workers_alive
        )
        self.metrics.register_callback(
            "gateway.inflight",
            lambda: len({id(s) for s in self._subs.values()}),
        )
        self.metrics.register_callback(
            "gateway.health.stalled",
            lambda: sum(1 for h in self._health if h.state == "stalled"),
        )
        self.metrics.register_callback(
            "gateway.breaker.open",
            lambda: sum(1 for b in self._breakers if not b.routable),
        )
        self.metrics.register_callback(
            "gateway.retry_budget.tokens", lambda: self._retry_budget.tokens
        )

    def _new_health(self, wid: int) -> WorkerHealth:
        return WorkerHealth(
            wid,
            config=self._health_config,
            stall_after_s=self.stall_misses * self.heartbeat_interval,
        )

    # -- lifecycle -----------------------------------------------------
    async def __aenter__(self) -> "Gateway":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.shutdown()

    async def start(self) -> None:
        """Spawn the worker pool and wait for every Ready."""
        if self._started:
            raise GatewayError("gateway already started")
        self._started = True
        self._loop = asyncio.get_running_loop()
        # open the journal before any worker spawns: a corrupt or
        # unwritable log must fail the start, not strand a half-pool
        if self._journal_src is not None and self.journal is None:
            if isinstance(self._journal_src, Journal):
                self.journal = self._journal_src
            else:
                self.journal = Journal(
                    str(self._journal_src), metrics=self.metrics
                )
            self.journal.open()
            # journaled fids survive the restart; new freezes must not
            # collide with them
            self._fids = itertools.count(self.journal.next_fid)
        for wid in range(self.num_workers):
            self._workers[wid] = self._spawn(wid)
        await self._wait_ready()
        self._monitor_task = asyncio.create_task(
            self._monitor(), name=f"{self.name}-monitor"
        )

    def _spawn(self, wid: int) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=worker_main,
            args=(wid, child_conn, self.worker_config),
            name=f"{self.name}-worker{wid}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        handle = _WorkerHandle(wid, proc, parent_conn, self._loop)
        self._loop.add_reader(handle.fd, self._on_readable, handle)
        return handle

    async def _wait_ready(self) -> None:
        waits = [
            h.ready_event.wait() for h in self._workers if h is not None
        ]
        try:
            await asyncio.wait_for(asyncio.gather(*waits), _READY_TIMEOUT)
        except asyncio.TimeoutError:
            raise GatewayError(
                "gateway workers did not come up within "
                f"{_READY_TIMEOUT:.0f}s"
            ) from None

    def _workers_alive(self) -> int:
        return sum(
            1
            for h in self._workers
            if h is not None and not h.dead and h.proc.is_alive()
        )

    # -- pipe plumbing -------------------------------------------------
    def _on_readable(self, handle: _WorkerHandle) -> None:
        """Loop reader callback: one read of the worker's pipe (it is
        readable, so the read cannot block), then dispatch every
        complete frame inline; a partial frame waits in the buffer."""
        try:
            data = os.read(handle.fd, _READ_CHUNK)
        except OSError:
            data = b""
        if not data:  # EOF: the worker end is gone
            self._unwatch(handle)
            self._on_pipe_closed(handle)
            return
        handle.buf += data
        try:
            frames = m.split_frames(handle.buf)
        except ValueError:
            self._worker_died(handle, "protocol")
            return
        for payload in frames:
            if handle.dead:
                return
            try:
                msg = pickle.loads(payload)
            except Exception:
                self._worker_died(handle, "protocol")
                return
            try:
                self._on_message(handle, msg)
            except Exception as exc:
                # one bad message must not swallow the rest of the read
                self._loop.call_exception_handler({
                    "message": f"{self.name}: error dispatching {msg!r}",
                    "exception": exc,
                })

    def _unwatch(self, handle: _WorkerHandle) -> None:
        """Stop reading *handle*'s pipe; must precede ``conn.close()``
        (a closed fd number can be reused by a replacement's pipe)."""
        if handle.fd >= 0:
            self._loop.remove_reader(handle.fd)
            handle.fd = -1

    def _send(self, handle: _WorkerHandle, msg) -> None:
        try:
            handle.conn.send(msg)
        except (OSError, ValueError, BrokenPipeError):
            self._worker_died(handle, "pipe")

    def _on_pipe_closed(self, handle: _WorkerHandle) -> None:
        if not self._closing:
            self._worker_died(handle, "pipe")

    def _on_message(self, handle: _WorkerHandle, msg) -> None:
        if isinstance(msg, m.Settled):
            self._on_settled(handle, msg)
        elif isinstance(msg, m.Accepted):
            sub = self._subs.get(msg.rid)
            if sub is not None:
                sub.accepted = True
                sub._push("accepted", wid=msg.wid)
        elif isinstance(msg, m.Pong):
            self._on_pong(handle, msg)
        elif isinstance(msg, m.Ready):
            if msg.protocol != m.PROTOCOL_VERSION:  # pragma: no cover
                self._worker_died(handle, "protocol")
                return
            handle.ready = True
            handle.ready_event.set()
        elif isinstance(msg, (m.Frozen, m.Drained, m.MetricsReply, m.Verified)):
            fut = self._pending.pop(msg.rid, None)
            if fut is not None and not fut.done():
                fut.set_result(msg)
        elif isinstance(msg, m.EventMsg):
            if msg.rid is not None:
                sub = self._subs.get(msg.rid)
                if sub is not None:
                    sub._push(msg.kind, **msg.fields)

    def _on_pong(self, handle: _WorkerHandle, msg: m.Pong) -> None:
        now = time.monotonic()
        handle.last_pong = now
        sent = handle.pings.pop(msg.seq, None)
        # earlier pings were either answered already or dropped by
        # chaos; the pipe is FIFO, so nothing older can still arrive
        for seq in [s for s in handle.pings if s < msg.seq]:
            handle.pings.pop(seq, None)
        health = self._health[handle.wid]
        if sent is not None:
            health.on_pong(now - sent, now)
        else:  # dropped-ping echo raced a respawn; freshness only
            health.last_pong = now
        # a pong clears the stall flag; the breaker gates re-admission
        health.mark_stalled(False)
        self._breaker_success(handle, now)

    # -- breaker transitions -------------------------------------------
    def _breaker_success(self, handle: _WorkerHandle, now: float) -> None:
        b = self._breakers[handle.wid]
        closed_before = b.closed_total
        b.record_success(now)
        if b.closed_total != closed_before:
            # half-open probes passed: the slot is routable again
            self._m_breaker_closed.inc()

    def _breaker_failure(self, handle: _WorkerHandle, now: float) -> None:
        b = self._breakers[handle.wid]
        opened_before = b.opened_total
        b.record_failure(now)
        if b.opened_total != opened_before:
            self._on_breaker_open(handle)

    def _on_breaker_open(self, handle: _WorkerHandle) -> None:
        """The slot's breaker tripped: it leaves the routing set (the
        worker stays alive — its in-flight work may still settle) and
        its reroutable legs move to healthy workers, budget allowing."""
        self._m_breaker_opened.inc()
        if self._closing or self._draining:
            return
        for rid in sorted(handle.inflight):
            sub = self._subs.get(rid)
            if (
                sub is None
                or sub.future.done()
                or sub.cancel_requested
                or len(sub.rids) > 1  # already redundant (hedge/reroute)
                or sub.request.iid is not None  # pinned to this worker
            ):
                continue
            self._reroute_leg(sub, rid, handle)

    def _reroute_leg(
        self, sub: Submission, old_rid: int, old_handle: _WorkerHandle
    ) -> bool:
        """Duplicate one leg onto the healthiest other worker and
        suppress the old leg's eventual cancel-settle.  The old leg is
        *not* force-settled: if the sick worker finishes first anyway,
        first-settle-wins still yields exactly one Result."""
        target = self._healthiest(exclude={old_handle.wid})
        if target is None:
            return False
        if not self._retry_budget.try_spend():
            self._m_budget_exhausted.inc()
            return False
        self._m_budget_spent.inc()
        new_rid = next(self._rids)
        request = replace(sub.request, rid=new_rid)
        sub.rids.add(new_rid)
        sub.legs[new_rid] = target.wid
        sub.suppressed.add(old_rid)
        self._subs[new_rid] = sub
        target.inflight.add(new_rid)
        self._m_rerouted.inc()
        sub._push("rerouted", from_wid=old_handle.wid, to_wid=target.wid)
        self._send(target, request)
        self._send(old_handle, m.Cancel(rid=old_rid))
        return True

    # -- settlement ----------------------------------------------------
    def _drop_legs(self, sub: Submission, winner_rid: Optional[int]) -> None:
        """Remove every leg of *sub* from the routing tables; cancel
        the losers on their (live) workers and account hedge losses."""
        for rid in list(sub.rids):
            self._subs.pop(rid, None)
            wid = sub.legs.pop(rid, sub.wid)
            h = self._workers[wid] if 0 <= wid < self.num_workers else None
            if h is not None:
                h.inflight.discard(rid)
            if rid == winner_rid:
                continue
            if h is not None and not h.dead and not self._closing:
                self._send(h, m.Cancel(rid=rid))
            if rid in sub.hedge_rids:
                self._m_hedge_losses.inc()
        sub.rids.clear()
        sub.suppressed.clear()

    def _on_settled(self, handle: _WorkerHandle, msg: m.Settled) -> None:
        handle.inflight.discard(msg.rid)
        sub = self._subs.get(msg.rid)
        if sub is None:
            return
        if sub.future.done():  # stale leg of an already-settled sub
            self._subs.pop(msg.rid, None)
            sub.rids.discard(msg.rid)
            sub.legs.pop(msg.rid, None)
            return
        self._health[handle.wid].on_settle(msg.wall_s)
        if (
            msg.rid in sub.suppressed
            and msg.outcome == "cancelled"
            and not sub.cancel_requested
            and len(sub.rids) > 1
        ):
            # a rerouted-away leg acknowledging its gateway-issued
            # Cancel: drop it silently — the live leg will settle
            self._subs.pop(msg.rid, None)
            sub.rids.discard(msg.rid)
            sub.legs.pop(msg.rid, None)
            sub.suppressed.discard(msg.rid)
            return
        # first Settled wins; every other leg is cancelled and its
        # settle dropped — the caller observes exactly one Result
        hedge_won = msg.rid in sub.hedge_rids
        self._drop_legs(sub, winner_rid=msg.rid)
        if hedge_won:
            self._m_hedge_wins.inc()
        self._m_settled.inc()
        self._m_rt.observe(time.monotonic() - sub.t0)
        if msg.outcome == "completed":
            self._retry_budget.record_success()
        result = Result(
            outcome=msg.outcome,
            passes=msg.passes,
            error=msg.error,
            reason=msg.reason,
            wall_s=msg.wall_s,
            wid=handle.wid,
            replans=sub.replans,
        )
        # settlement is journaled *before* the client's Result resolves:
        # an outcome the client observed is never re-run after a crash
        self._journal_settle(sub, result)
        sub._push("settled", outcome=msg.outcome, wid=handle.wid)
        sub._close_events()
        sub.future.set_result(result)

    def _journal_settle(self, sub: Submission, result: Result) -> None:
        """Journal *sub*'s terminal outcome exactly once.

        A journal write failure here is counted (``journal.errors``)
        and swallowed: the settlement already happened worker-side, so
        blocking the client would strand a completed awaitable.  The
        degradation is honest — a crash before the next successful
        append replays the entry at-least-once (docs/durability.md,
        "Exactly-once matrix")."""
        if self.journal is None or not sub.jid or sub.journal_settled:
            return
        sub.journal_settled = True
        self._jid_subs.pop(sub.jid, None)
        try:
            self.journal.append_settled(
                sub.jid,
                outcome=result.outcome,
                passes=result.passes,
                error=result.error,
                reason=result.reason,
                wall_s=result.wall_s,
                replans=result.replans,
                wid=result.wid,
            )
        except JournalError:
            pass

    def _force_settle(self, sub: Submission, outcome: str, error: str, reason: str = "") -> None:
        """Settle a submission gateway-side (worker loss, shutdown)."""
        self._drop_legs(sub, winner_rid=None)
        if sub.future.done():
            return
        self._m_settled.inc()
        self._m_rt.observe(time.monotonic() - sub.t0)
        result = Result(
            outcome=outcome,
            error=error,
            reason=reason,
            wall_s=time.monotonic() - sub.t0,
            wid=sub.wid,
            replans=sub.replans,
        )
        self._journal_settle(sub, result)
        sub._push("settled", outcome=outcome, wid=sub.wid)
        sub._close_events()
        sub.future.set_result(result)

    # -- worker failure handling (docs/gateway.md) ---------------------
    def _worker_died(self, handle: _WorkerHandle, reason: str) -> None:
        """Reap one dead/silent worker: respawn a replacement into the
        slot, replay its in-flight submissions once (budget allowing),
        settle the rest with structured ``worker_lost`` results."""
        if handle.dead:
            return
        handle.dead = True
        self._m_deaths.inc()
        self._health[handle.wid].mark_dead()
        self._unwatch(handle)
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover
            pass
        if handle.proc.is_alive():
            handle.proc.terminate()
        casualties = sorted(handle.inflight)
        handle.inflight.clear()

        replacement: Optional[_WorkerHandle] = None
        if not self._closing:
            replacement = self._spawn(handle.wid)
            self._workers[handle.wid] = replacement
            self._m_respawns.inc()
            # a fresh process gets a clean health history and a
            # force-closed breaker — the slot's sickness died with it
            self._health[handle.wid] = self._new_health(handle.wid)
            self._breakers[handle.wid].reset()
            # frozen topologies ship to the replacement before any
            # replayed submission (pipe FIFO preserves the order)
            for fid, spec in self._frozen.items():
                self._send(
                    replacement, m.Freeze(rid=next(self._rids), fid=fid, spec=spec)
                )
            # worker-local graph instances died with the process: the
            # replacement rebuilds them on first use, but their oracle
            # state is gone — taint them for verification purposes
            for gh in self._instances.values():
                if gh.wid == handle.wid:
                    gh.tainted = True

        for rid in casualties:
            sub = self._subs.get(rid)
            if sub is None:
                continue
            if sub.future.done():
                self._subs.pop(rid, None)
                sub.rids.discard(rid)
                sub.legs.pop(rid, None)
                continue
            # a redundant leg (hedge or reroute twin) died with the
            # worker while a sibling is still live: drop just the leg
            others_live = any(
                r != rid
                and sub.legs.get(r) != handle.wid
                and self._leg_alive(sub.legs.get(r))
                for r in sub.rids
            )
            if others_live:
                self._subs.pop(rid, None)
                sub.rids.discard(rid)
                sub.legs.pop(rid, None)
                sub.suppressed.discard(rid)
                if rid in sub.hedge_rids:
                    sub.hedge_rids.discard(rid)
                    self._m_hedge_dropped.inc()
                continue
            exc = WorkerDiedError(handle.wid, reason)
            if (
                replacement is None
                or sub.cancel_requested
                or sub.replans >= self.max_replans
            ):
                self._force_settle(
                    sub,
                    outcome="cancelled" if sub.cancel_requested else "worker_lost",
                    error=repr(exc),
                    reason=reason,
                )
                continue
            if not self._retry_budget.try_spend():
                # over budget: fail fast with a structured reason
                # instead of amplifying a correlated failure
                self._m_budget_exhausted.inc()
                self._force_settle(
                    sub,
                    outcome="worker_lost",
                    error=repr(exc),
                    reason="retry_budget",
                )
                continue
            self._m_budget_spent.inc()
            # the resilience replan path, one tier up: re-materialize
            # the idempotent spec on the replacement and resubmit
            sub.replans += 1
            self._m_replans.inc()
            sub._push("replanned", wid=handle.wid, reason=reason)
            replacement.inflight.add(rid)
            sub.legs[rid] = replacement.wid
            self._send(replacement, replace(sub.request, rid=rid))

    def _leg_alive(self, wid: Optional[int]) -> bool:
        if wid is None or not 0 <= wid < self.num_workers:
            return False
        h = self._workers[wid]
        return h is not None and not h.dead

    async def _monitor(self) -> None:
        """Heartbeat every worker; reap the dead and the silent, mark
        the stalled, and feed the per-slot breakers."""
        while not self._closing:
            await asyncio.sleep(self.heartbeat_interval)
            now = time.monotonic()
            for handle in list(self._workers):
                if handle is None or handle.dead:
                    continue
                if not handle.proc.is_alive():
                    self._worker_died(handle, "exited")
                    continue
                # a draining worker legitimately blocks in drain();
                # only liveness (is_alive) applies then
                if not self._draining:
                    silence = now - handle.last_pong
                    if silence > self.heartbeat_misses * self.heartbeat_interval:
                        self._worker_died(handle, "heartbeat")
                        continue
                    health = self._health[handle.wid]
                    stalled = silence > self._stall_after_s
                    if health.mark_stalled(stalled) and stalled:
                        self._m_stalls.inc()
                    if stalled:
                        # each stalled tick is one breaker failure;
                        # threshold consecutive ticks trip it open
                        self._breaker_failure(handle, now)
                    self._m_health_score.observe(health.score(now))
                # pings flow unconditionally — against an open breaker
                # they are exactly the half-open probes that re-admit
                seq = next(self._ping_seq)
                handle.pings[seq] = now
                if len(handle.pings) > 4 * self.heartbeat_misses:
                    for s in sorted(handle.pings)[: -2 * self.heartbeat_misses]:
                        handle.pings.pop(s, None)
                self._send(handle, m.Ping(seq=seq))

    # -- routing -------------------------------------------------------
    def _slot(self, wid: int) -> _WorkerHandle:
        handle = self._workers[wid]
        if handle is None:  # pragma: no cover - slots filled at start
            raise GatewayError(f"worker slot {wid} is empty")
        return handle

    def _routable(self, wid: int) -> bool:
        h = self._workers[wid]
        return h is not None and not h.dead and self._breakers[wid].routable

    def _route(self, tenant: str) -> _WorkerHandle:
        if tenant:
            base = zlib.crc32(tenant.encode()) % self.num_workers
        else:
            base = next(self._rr) % self.num_workers
        # walk forward from the affinity slot past breaker-opened /
        # dead workers; if every slot is sick, keep the deterministic
        # affinity choice (routing must never fail outright)
        for k in range(self.num_workers):
            wid = (base + k) % self.num_workers
            if self._routable(wid):
                return self._slot(wid)
        return self._slot(base)

    def _healthiest(
        self, exclude: Iterable[int] = ()
    ) -> Optional[_WorkerHandle]:
        """The routable worker with the best health score, or None."""
        skip = set(exclude)
        now = time.monotonic()
        best: Optional[_WorkerHandle] = None
        best_score = -1.0
        for wid in range(self.num_workers):
            if wid in skip or not self._routable(wid):
                continue
            s = self._health[wid].score(now)
            if s > best_score:
                best, best_score = self._workers[wid], s
        return best

    # -- public API ----------------------------------------------------
    def instance(self, spec: WorkSpec, *, tenant: str = "") -> GraphHandle:
        """Pin *spec* to one worker: repeated submissions of the handle
        share the worker-local graph (the stacking/verification shape
        of the soak harness)."""
        self._check_open()
        handle = self._route(tenant)
        gh = GraphHandle(iid=next(self._iids), spec=spec, wid=handle.wid)
        self._instances[gh.iid] = gh
        return gh

    async def freeze(self, spec: WorkSpec) -> FrozenHandle:
        """Freeze *spec* on every worker; returns the replay handle."""
        self._check_open()
        fid = next(self._fids)
        acks = []
        for handle in self._workers:
            if handle is None or handle.dead:
                continue
            rid = next(self._rids)
            fut = self._loop.create_future()
            self._pending[rid] = fut
            self._send(handle, m.Freeze(rid=rid, fid=fid, spec=spec))
            acks.append(fut)
        replies = await asyncio.gather(*acks)
        bad = [r for r in replies if not r.ok]
        if bad:
            raise GatewayError(
                f"freeze failed on {len(bad)} worker(s): {bad[0].error}"
            )
        self._frozen[fid] = spec
        # journal the fid so a recovering gateway can re-ship it and
        # replay journaled fid-submissions against the same handle
        if self.journal is not None and fid not in self.journal.frozen_specs:
            self.journal.append_frozen(fid, spec)
        return FrozenHandle(fid=fid, spec=spec)

    def frozen_handles(self) -> Dict[int, FrozenHandle]:
        """Live :class:`FrozenHandle` for every shipped fid — after
        :meth:`recover` this is how clients re-acquire their handles."""
        return {
            fid: FrozenHandle(fid=fid, spec=spec)
            for fid, spec in self._frozen.items()
        }

    def submit(
        self,
        target: Union[WorkSpec, GraphHandle, FrozenHandle],
        *,
        tenant: str = "",
        priority: int = 0,
        deadline: Optional[float] = None,
        repeats: int = 1,
        hedge_after: Optional[Union[float, str]] = None,
        idempotency_key: str = "",
    ) -> Submission:
        """Submit one workload; returns the awaitable handle.

        *target* is a :class:`~repro.gateway.spec.WorkSpec` (one-shot,
        routed by *tenant* hash or round-robin), a
        :class:`GraphHandle` (pinned to its worker), or a
        :class:`FrozenHandle` (replayed by ``fid`` on any worker).
        *priority* and *deadline* pass through to the worker-side
        executor unchanged (docs/runtime.md, "Submission lifecycle").

        *hedge_after* (frozen targets only — they are the only shape
        every worker can replay) arms a tail-latency hedge: if the
        primary has not settled after that many seconds (or the
        primary worker's settle-latency quantile, for ``"p95"``), a
        duplicate leg launches on the healthiest other worker; the
        first Settled wins and the loser is cancelled.

        *idempotency_key* (requires an attached journal) makes the
        submission safe to replay across a gateway crash: a key the
        journal already settled returns the journaled Result without
        re-running; a key still in flight returns the live handle; a
        key journaled but orphaned by a crash (restart without
        :meth:`recover`) is resubmitted from the **journaled** entry
        under its original jid, the caller's payload ignored; a fresh
        key is journaled **before** this method returns, so the
        acceptance survives any later crash (docs/durability.md).
        """
        self._check_open()
        if hedge_after is not None and not isinstance(target, FrozenHandle):
            raise GatewayError(
                "hedge_after requires a FrozenHandle: only frozen "
                "topologies are replayable on every worker"
            )
        if idempotency_key and self.journal is None:
            raise GatewayError(
                "idempotency_key requires a journal "
                "(Gateway(journal=...) / repro serve --journal)"
            )
        jid: Optional[int] = None
        if idempotency_key:
            jid = self.journal.lookup(idempotency_key)
            if jid is not None:
                entry = self.journal.get(jid)
                if entry is not None and entry.is_settled:
                    # the journal already holds this key's outcome:
                    # return it without re-running anything
                    self._m_dedup.inc()
                    return self._replayed_submission(jid, entry)
                live = self._jid_subs.get(jid)
                if live is not None and not live.future.done():
                    self._m_dedup.inc()
                    return live
                if entry is not None:
                    # journaled but unsettled with no live handle
                    # (restart without recover()): resubmit from the
                    # *journaled* entry under the same jid.  The
                    # caller's payload is ignored — the same rule as
                    # the settled row of the dedupe matrix — so what
                    # re-runs (and what recovery would replay after
                    # another crash) is exactly what was journaled.
                    if entry.target == "instance":
                        # the pinned instance died with the journaling
                        # gateway: settle it not_replayable, mirroring
                        # recover()
                        exc = WorkerDiedError(-1, "not_replayable")
                        self.journal.append_settled(
                            entry.jid,
                            outcome="worker_lost",
                            error=repr(exc),
                            reason="not_replayable",
                        )
                        self._m_recover_not_replayable.inc()
                        return self._replayed_submission(jid, entry)
                    return self._resubmit_entry(entry)
        rid = next(self._rids)
        if isinstance(target, FrozenHandle):
            handle = self._route(tenant)
            jkind, jspec, jfid, jiid = "frozen", None, target.fid, None
            request = m.Submit(
                rid=rid,
                fid=target.fid,
                repeats=repeats,
                priority=priority,
                deadline=deadline,
                tenant=tenant,
            )
        elif isinstance(target, GraphHandle):
            handle = self._slot(target.wid)
            jkind, jspec, jfid, jiid = "instance", target.spec, None, target.iid
            request = m.Submit(
                rid=rid,
                spec=target.spec,
                iid=target.iid,
                repeats=repeats,
                priority=priority,
                deadline=deadline,
                tenant=tenant,
            )
        elif isinstance(target, WorkSpec):
            handle = self._route(tenant)
            jkind, jspec, jfid, jiid = "spec", target, None, None
            request = m.Submit(
                rid=rid,
                spec=target,
                repeats=repeats,
                priority=priority,
                deadline=deadline,
                tenant=tenant,
            )
        else:
            raise GatewayError(
                f"cannot submit {type(target).__name__}: expected a "
                "WorkSpec, GraphHandle, or FrozenHandle"
            )
        if self.journal is not None and jid is None:
            # journaled *before* any state mutates or bytes hit the
            # pipe: a JournalWriteError propagates to the caller with
            # nothing accepted — structured refusal, never silent loss
            jid = self.journal.append_accepted(
                key=idempotency_key,
                target=jkind,
                spec=jspec,
                fid=jfid,
                iid=jiid,
                priority=priority,
                deadline=deadline,
                repeats=repeats,
                tenant=tenant,
            )
        if jid is not None:
            request = replace(request, jid=jid)
        sub = Submission(rid, handle.wid, tenant, request, self._loop)
        if jid is not None:
            sub.jid = jid
            sub.idempotency_key = idempotency_key
            self._jid_subs[jid] = sub
        self._subs[rid] = sub
        handle.inflight.add(rid)
        self._m_submits.inc()
        sub._push("submitted", wid=handle.wid)
        self._send(handle, request)
        if hedge_after is not None:
            if isinstance(hedge_after, str):
                if hedge_after not in ("p95", "auto"):
                    raise GatewayError(
                        f"hedge_after={hedge_after!r}: expected a float "
                        "delay or 'p95'"
                    )
                delay = self._health[handle.wid].settle_quantile(0.95)
            else:
                delay = float(hedge_after)
            self._loop.call_later(max(0.0, delay), self._maybe_hedge, sub)
        return sub

    def _maybe_hedge(self, sub: Submission) -> None:
        """The hedge timer fired: if the primary is still out, launch
        a duplicate leg on the healthiest *other* routable worker."""
        if (
            sub.future.done()
            or sub.cancel_requested
            or self._draining
            or self._closing
            or len(sub.rids) > 1  # already hedged or rerouted
        ):
            return
        primary_wid = sub.legs.get(sub.rid, sub.wid)
        target = self._healthiest(exclude={primary_wid})
        if target is None:
            self._m_hedge_no_target.inc()
            return
        rid2 = next(self._rids)
        request = replace(sub.request, rid=rid2)
        sub.rids.add(rid2)
        sub.legs[rid2] = target.wid
        sub.hedge_rids.add(rid2)
        self._subs[rid2] = sub
        target.inflight.add(rid2)
        self._m_hedge_launched.inc()
        sub._push("hedged", wid=target.wid)
        self._send(target, request)

    def _replayed_submission(self, jid: int, entry: JournalEntry) -> Submission:
        """An already-resolved Submission carrying *entry*'s journaled
        settlement — what a deduped idempotency key returns."""
        s = entry.settled or {}
        sub = Submission(
            next(self._rids), s.get("wid", -1), entry.tenant, None, self._loop
        )
        sub.jid = jid
        sub.idempotency_key = entry.key
        sub.journal_settled = True
        sub.accepted = True
        result = Result(
            outcome=s.get("outcome", "failed"),
            passes=s.get("passes", 0),
            error=s.get("error", ""),
            reason=s.get("reason", ""),
            wall_s=s.get("wall_s", 0.0),
            wid=s.get("wid", -1),
            replans=s.get("replans", 0),
        )
        sub._push("settled", outcome=result.outcome, wid=result.wid, replayed=True)
        sub._close_events()
        sub.future.set_result(result)
        return sub

    async def recover(self) -> RecoveryReport:
        """Replay the journal after a crash: re-ship frozen fids,
        resubmit unsettled spec/frozen entries to the fresh pool, and
        settle pinned-instance entries ``worker_lost`` /
        ``reason="not_replayable"`` (their worker-local graph state
        died with the old process — the cross-process form of the PR 8
        taint rule).  After this returns, every journaled submission is
        either settled or live in flight: exactly one settlement each.

        Call it once, right after :meth:`start`, on a gateway whose
        ``journal=`` points at the crashed instance's log
        (``repro serve --journal PATH`` does both).
        """
        if self.journal is None:
            raise GatewayError(
                "recover() requires a journal (Gateway(journal=...))"
            )
        self._check_open()
        report = RecoveryReport()
        # 1. frozen topologies first: journaled fid-submissions replay
        #    against them, and pipe FIFO guarantees the Freeze lands
        #    before any resubmitted Submit
        for fid in sorted(self.journal.frozen_specs):
            if fid in self._frozen:
                continue
            spec = self.journal.frozen_specs[fid]
            acks = []
            for handle in self._workers:
                if handle is None or handle.dead:
                    continue
                rid = next(self._rids)
                fut = self._loop.create_future()
                self._pending[rid] = fut
                self._send(handle, m.Freeze(rid=rid, fid=fid, spec=spec))
                acks.append(fut)
            replies = await asyncio.gather(*acks)
            bad = [r for r in replies if not r.ok]
            if bad:
                raise GatewayError(
                    f"recover: re-freeze of fid {fid} failed on "
                    f"{len(bad)} worker(s): {bad[0].error}"
                )
            self._frozen[fid] = spec
            report.frozen_reshipped += 1
            self._m_recover_frozen.inc()
        # 2. unsettled entries: resubmit what is replayable, settle
        #    what is not — never leave a journaled acceptance dangling
        for entry in self.journal.unsettled():
            if entry.jid in self._jid_subs:
                continue  # already live (client raced us via its key)
            if entry.target == "instance":
                exc = WorkerDiedError(-1, "not_replayable")
                self.journal.append_settled(
                    entry.jid,
                    outcome="worker_lost",
                    error=repr(exc),
                    reason="not_replayable",
                )
                report.not_replayable += 1
                self._m_recover_not_replayable.inc()
                continue
            sub = self._resubmit_entry(entry)
            report.resubmitted += 1
            report.jids.append(entry.jid)
            report.submissions.append(sub)
            self._m_recover_resubmitted.inc()
        return report

    def _resubmit_entry(self, entry: JournalEntry) -> Submission:
        """Resubmit one journaled-but-unsettled entry under its
        original jid (a fresh rid, a fresh worker)."""
        rid = next(self._rids)
        handle = self._route(entry.tenant)
        request = m.Submit(
            rid=rid,
            spec=entry.spec if entry.target == "spec" else None,
            fid=entry.fid if entry.target == "frozen" else None,
            repeats=entry.repeats,
            priority=entry.priority,
            deadline=entry.deadline,
            tenant=entry.tenant,
            jid=entry.jid,
        )
        sub = Submission(rid, handle.wid, entry.tenant, request, self._loop)
        sub.jid = entry.jid
        sub.idempotency_key = entry.key
        self._subs[rid] = sub
        self._jid_subs[entry.jid] = sub
        handle.inflight.add(rid)
        self._m_submits.inc()
        sub._push("resubmitted", wid=handle.wid, jid=entry.jid)
        self._send(handle, request)
        return sub

    def cancel(self, sub: Submission) -> bool:
        """Request cooperative cancellation of *sub* (every leg);
        False when it is already settled (or unknown)."""
        if sub.future.done() or not any(r in self._subs for r in sub.rids):
            return False
        sub.cancel_requested = True
        self._m_cancels.inc()
        for rid in list(sub.rids):
            wid = sub.legs.get(rid, sub.wid)
            handle = self._workers[wid] if 0 <= wid < self.num_workers else None
            if handle is not None and not handle.dead:
                self._send(handle, m.Cancel(rid=rid))
        return True

    async def verify(self, gh: GraphHandle, passes: int):
        """Oracle-check a generated instance on its worker; returns the
        violation tuple (empty = clean).  A tainted handle (its worker
        died) verifies vacuously."""
        if gh.tainted:
            return ()
        handle = self._workers[gh.wid]
        if handle is None or handle.dead:
            return ()
        rid = next(self._rids)
        fut = self._loop.create_future()
        self._pending[rid] = fut
        self._send(handle, m.Verify(rid=rid, iid=gh.iid, passes=passes))
        reply = await fut
        return tuple(reply.violations)

    async def worker_metrics(self) -> Dict[int, dict]:
        """Pull a full metrics snapshot from every live worker."""
        acks = {}
        for handle in self._workers:
            if handle is None or handle.dead:
                continue
            rid = next(self._rids)
            fut = self._loop.create_future()
            self._pending[rid] = fut
            self._send(handle, m.MetricsPull(rid=rid))
            acks[handle.wid] = fut
        out: Dict[int, dict] = {}
        for wid, fut in acks.items():
            try:
                reply = await asyncio.wait_for(fut, 30.0)
            except asyncio.TimeoutError:  # pragma: no cover - wedged
                continue
            out[wid] = dict(reply.snapshot)
        return out

    def snapshot(self) -> dict:
        """The gateway's own ``gateway.*`` metric snapshot."""
        return self.metrics.snapshot()

    def health_snapshot(self) -> Dict[int, dict]:
        """Per-slot health + breaker view (operator surface, soak)."""
        now = time.monotonic()
        out: Dict[int, dict] = {}
        for wid in range(self.num_workers):
            b = self._breakers[wid]
            snap = self._health[wid].snapshot(now)
            snap["breaker"] = b.state
            snap["breaker_cooldown_s"] = round(b.remaining_cooldown(now), 4)
            snap["breaker_opened_total"] = b.opened_total
            snap["breaker_closed_total"] = b.closed_total
            out[wid] = snap
        return out

    def inject_chaos(self, wid: int, *, stall_s: float = 0.0, spin_s: float = 0.0) -> None:
        """Wedge worker *wid*'s recv loop (deterministic gray-failure
        injection — the soak's stall trigger; docs/gateway.md)."""
        handle = self._slot(wid)
        if handle.dead:
            raise GatewayError(f"worker {wid} is dead; nothing to wedge")
        self._send(handle, m.ChaosInject(stall_s=stall_s, spin_s=spin_s))

    @property
    def retry_budget(self) -> RetryBudget:
        """The gateway-wide retry token bucket (read-mostly surface)."""
        return self._retry_budget

    def _check_open(self) -> None:
        if not self._started or self._loop is None:
            raise GatewayError("gateway is not started")
        if self._draining or self._closing:
            raise GatewayError("gateway is draining; submission refused")

    # -- drain / shutdown ---------------------------------------------
    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admission and settle every outstanding awaitable.

        Each worker runs its own ``Executor.drain`` (the PR 5
        guarantee: every worker-side future settles), and the results
        stream back as ordinary Settled messages.  The whole call —
        worker acks *plus* straggler Settled traffic — shares one
        deadline of *timeout* + ``drain_grace``; anything unsettled at
        the deadline (a dead pipe, a wedged worker) is force-settled
        with a structured ``failed`` result.  Returns True when
        everything settled in time.
        """
        self._draining = True
        deadline = (
            None
            if timeout is None
            else time.monotonic() + timeout + self.drain_grace
        )

        def remaining() -> Optional[float]:
            if deadline is None:
                return None
            return max(0.0, deadline - time.monotonic())

        acks = []
        for handle in self._workers:
            if handle is None or handle.dead:
                continue
            rid = next(self._rids)
            fut = self._loop.create_future()
            self._pending[rid] = fut
            self._send(handle, m.Drain(rid=rid, timeout=timeout))
            acks.append(fut)
        ok = True
        if acks:
            done, pending = await asyncio.wait(acks, timeout=remaining())
            ok = not pending and all(f.result().ok for f in done)
        # worker drains settle worker-side futures; wait for the
        # corresponding Settled traffic to land — on the *same*
        # deadline, not a fresh grace on top of the ack wait
        waiters = {s.future for s in self._subs.values()}
        if waiters:
            _, unsettled = await asyncio.wait(waiters, timeout=remaining())
            if unsettled:
                ok = False
        for sub in list({id(s): s for s in self._subs.values()}.values()):
            self._force_settle(
                sub,
                outcome="failed",
                error="GatewayError('gateway drain timed out')",
                reason="drain_timeout",
            )
        return ok

    async def shutdown(self, drain_timeout: Optional[float] = 30.0) -> None:
        """Graceful teardown: drain, stop the monitor, stop workers.

        Idempotent; never strands an awaitable — anything unresolved
        after worker teardown settles with a ``worker_lost`` result.
        """
        if self._closing:
            return
        try:
            await self.drain(drain_timeout)
        finally:
            self._closing = True
            if self._monitor_task is not None:
                self._monitor_task.cancel()
            for handle in self._workers:
                if handle is None or handle.dead:
                    continue
                self._send(handle, m.Shutdown())
            procs = [
                h.proc
                for h in self._workers
                if h is not None and h.proc.is_alive()
            ]

            def _join_all() -> None:
                deadline = time.monotonic() + 10.0
                for p in procs:
                    p.join(max(0.1, deadline - time.monotonic()))
                for p in procs:
                    if p.is_alive():
                        p.kill()
                        p.join(5.0)

            await asyncio.to_thread(_join_all)
            for handle in self._workers:
                if handle is None:
                    continue
                handle.dead = True
                self._unwatch(handle)
                try:
                    handle.conn.close()
                except OSError:  # pragma: no cover
                    pass
            for sub in list({id(s): s for s in self._subs.values()}.values()):
                self._force_settle(
                    sub,
                    outcome="worker_lost",
                    error="GatewayError('gateway shut down')",
                    reason="shutdown",
                )
            for fut in self._pending.values():
                if not fut.done():
                    fut.cancel()
            self._pending.clear()
            if self.journal is not None:
                self.journal.close()


__all__ = [
    "Gateway",
    "GraphHandle",
    "FrozenHandle",
    "RecoveryReport",
    "Result",
    "Submission",
]
