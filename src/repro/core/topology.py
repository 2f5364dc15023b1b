"""Topologies: per-submission execution state.

"When a graph is submitted to an executor, a special data structure
called *topology* is created to marshal execution parameters and
runtime metadata.  Each heteroflow object has a list of topologies to
track individual execution status" (paper §III-C).

A topology owns one promise/future pair for caller signalling, the
repeat predicate implementing ``run``/``run_n``/``run_until``, the
placement result, and the pass-completion counter.

Since the resilience layer (docs/resilience.md) it also tracks:

- the normalized :class:`~repro.resilience.ResiliencePolicy` for the
  submission (per-task overrides live on the nodes);
- per-node attempt histories (:meth:`record_attempt`) feeding
  :class:`~repro.errors.TaskFailedError` and the retry loop;
- a *generation* counter plus an *active* in-flight counter enabling
  quiescence-based device-failure recovery: when a device dies, the
  executor requests recovery, workers drop stale-generation items, and
  the last in-flight task to leave triggers the re-placement/replay
  pass;
- structured failure events surfaced in the RunReport.

Since the overload-protection layer (docs/runtime.md, "Submission
lifecycle") it additionally carries the submission's *priority* (orders
the graph FIFO and the cross-graph overflow queue), its *deadline*
(armed on the executor's timer wheel; firing cancels the submission
with a structured ``deadline_exceeded`` event), and the admission
ledger bookkeeping (predicted footprint, exactly-once release).
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import Future, InvalidStateError
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from repro.core.node import TaskType
from repro.errors import CycleError, GraphError
from repro.resilience.policy import normalize_policy

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.heteroflow import Heteroflow
    from repro.core.node import Node
    from repro.core.placement import PlacementResult
    from repro.resilience.policy import ResiliencePolicy, RetryPolicy


class Topology:
    """Runtime state for one ``Executor.run*`` submission."""

    def __init__(
        self,
        graph: "Heteroflow",
        repeats: Optional[int] = 1,
        predicate: Optional[Callable[[], bool]] = None,
        policy: Optional[object] = None,
        priority: int = 0,
        deadline_s: Optional[float] = None,
    ) -> None:
        """*repeats*: fixed pass count (``run``/``run_n``), or ``None``
        with *predicate*: run passes until ``predicate()`` is True
        (``run_until``, checked after each pass — do/while semantics).
        *policy*: a :class:`~repro.resilience.RetryPolicy` or
        :class:`~repro.resilience.ResiliencePolicy` applied to every
        task of the submission (tasks override individually).
        """
        self.graph = graph
        self.repeats = repeats
        self.predicate = predicate
        self.future: Future = Future()
        self.placement: Optional["PlacementResult"] = None
        self.passes_done = 0
        self.pending = 0
        self.error: Optional[BaseException] = None
        self._lock = threading.Lock()
        # -- resilience state -------------------------------------------
        norm: "ResiliencePolicy" = normalize_policy(policy)
        self.retry_policy: Optional["RetryPolicy"] = norm.retry
        self.timeout_s: Optional[float] = norm.timeout
        #: True once the executor began (or promoted) this topology;
        #: queued topologies cancel immediately (Executor.cancel)
        self.started = False
        # -- service state (docs/runtime.md, submission lifecycle) ------
        #: higher runs first: orders the graph FIFO and the cross-graph
        #: overflow queue; the shed policy evicts lower priorities
        self.priority = priority
        #: seconds from submission until the deadline cancels the run
        self.deadline_s = deadline_s
        #: global submission order (executor-stamped); shed victim
        #: tie-break within a priority
        self.submit_seq = 0
        #: live timer-wheel entry for the armed deadline (nulled on fire)
        self.deadline_entry: Optional[list] = None
        #: predicted device-memory footprint charged to the admission
        #: ledger (hflint HF020 static model; 0 when unlimited)
        self.footprint_bytes = 0
        #: True while this topology holds admission capacity
        self.admitted = False
        self._admission_released = False
        #: True when running GPU tasks on host shadows (zero survivors)
        self.degraded = False
        #: scheduling generation; recovery bumps it so stale queue
        #: items are dropped by workers
        self.gen = 0
        #: tasks currently inside _invoke (in-flight)
        self.active = 0
        #: per-node attempt error history (this pass)
        self.attempts: Dict[int, List[BaseException]] = {}
        #: per-node structured attempt records: error class plus, for
        #: retried attempts, backoff delay / saturation (docs/resilience.md)
        self.attempt_log: Dict[int, List[dict]] = {}
        #: nids whose task committed (finished) this pass
        self.done_nodes: Set[int] = set()
        #: nids whose committed execution was invalidated by a device
        #: failure and will run again (trace record retracted)
        self.replayed: Set[int] = set()
        #: structured failure/recovery events (RunReport ``events``)
        self.events: List[dict] = []
        #: device ordinals whose failure awaits recovery
        self._recovery_devices: Set[int] = set()
        self._recovering = False
        # -- freeze-and-replay (docs/runtime.md, "Freeze and replay") --
        #: the FrozenTopology behind this submission (None = fresh run)
        self.frozen: Optional["FrozenTopology"] = None
        #: slot tables the slot engine runs (the FrozenTopology, or an
        #: ephemeral SlotPlan for a fresh submission); None = per-node
        self.plan: Optional[SlotPlan] = None
        #: True when the slot engine runs this submission
        self.fast = False
        #: per-submission host-callable overrides, nid-keyed (general
        #: path); None when no bindings were given
        self.bound: Optional[Dict[int, Callable]] = None
        #: submission timestamp for the replay latency histogram
        self.t_submit = 0.0
        #: attached :class:`repro.analysis.sanitize.SanitizerSession`
        #: for ``run(..., sanitize=True)`` submissions; None otherwise
        self.sanitizer: Optional[object] = None

    # -- failure handling ----------------------------------------------
    def fail(self, error: BaseException) -> None:
        """Record the first task error; later errors are dropped."""
        with self._lock:
            if self.error is None:
                self.error = error

    def cancel(self) -> None:
        """Request cancellation: remaining tasks are flushed unrun and
        the future resolves with :class:`concurrent.futures.CancelledError`."""
        from concurrent.futures import CancelledError

        self.fail(CancelledError())

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def cancelled(self) -> bool:
        from concurrent.futures import CancelledError

        return isinstance(self.error, CancelledError)

    @property
    def slot_eligible(self) -> bool:
        """No run-level retry/timeout: with a fast-capable plan, the
        submission may run on the slot engine."""
        return self.retry_policy is None and self.timeout_s is None

    def attach_plan(self, plan: "SlotPlan", callables: Optional[Tuple] = None) -> None:
        """Run this submission on the slot engine over *plan*: per-slot
        join counters (reset each pass), one lock covering successor
        release + pass accounting, and the per-slot callable table
        (*callables* overrides the plan's, e.g. for ``bindings=``)."""
        self.plan = plan
        self.callables: Tuple = plan.callables if callables is None else callables
        self.joins: List[int] = list(plan.join_init)
        self.replay_lock = threading.Lock()
        self.fast = True

    def reset_joins(self) -> None:
        self.joins[:] = self.plan.join_init

    # -- pass accounting -------------------------------------------------
    def begin_pass(self) -> None:
        with self._lock:
            # a fresh graph may have been mutated since its plan was
            # compiled; the plan is what this submission runs
            plan = self.plan
            self.pending = len(self.graph.nodes if plan is None else plan.nodes)
            self.attempts = {}
            self.attempt_log = {}
            self.done_nodes = set()
            self.replayed = set()

    def node_finished(self) -> bool:
        """Count one node done; True when the pass just completed."""
        with self._lock:
            self.pending -= 1
            return self.pending == 0

    def set_pending(self, n: int) -> None:
        """Reset the remaining-node count (recovery re-baselines it)."""
        with self._lock:
            self.pending = n

    def pass_completed(self) -> bool:
        """Record a finished pass; True when the topology should stop."""
        with self._lock:
            self.passes_done += 1
            if self.error is not None:
                return True
        if self.repeats is not None:
            return self.passes_done >= self.repeats
        assert self.predicate is not None
        return bool(self.predicate())

    def complete(self) -> None:
        """Resolve the future (exception if any task failed).

        Tolerates an already-resolved future: a drain timeout or a
        ``wait=False`` shutdown may have force-resolved it while the
        flush cascade was still finishing (docs/runtime.md).
        """
        try:
            if self.error is not None:
                self.future.set_exception(self.error)
            else:
                self.future.set_result(self.passes_done)
        except InvalidStateError:
            pass

    def take_admission_release(self) -> bool:
        """Claim the one-time admission-ledger release; True for the
        single caller that must return this topology's capacity."""
        with self._lock:
            if not self.admitted or self._admission_released:
                return False
            self._admission_released = True
            return True

    # -- resilience accounting (docs/resilience.md) --------------------
    def record_attempt(self, nid: int, error: BaseException) -> List[BaseException]:
        """Append one failed attempt for node *nid*; returns the full
        history (oldest first)."""
        with self._lock:
            history = self.attempts.setdefault(nid, [])
            history.append(error)
            log = self.attempt_log.setdefault(nid, [])
            log.append({"error": type(error).__name__})
            return list(history)

    def record_retry_delay(self, nid: int, info) -> None:
        """Attach the computed backoff (:class:`repro.resilience.RetryDelay`)
        to node *nid*'s most recent failed attempt, so the structured
        history in :class:`repro.errors.TaskFailedError` shows the
        delay slept and whether the exponential had saturated at the
        policy's ``max_delay`` cap."""
        with self._lock:
            log = self.attempt_log.get(nid)
            if log:
                log[-1].update(info.as_dict())

    def attempt_details(self, nid: int) -> List[dict]:
        """Structured per-attempt history for node *nid* (oldest
        first): error class plus retry-delay/saturation fields."""
        with self._lock:
            return [dict(e) for e in self.attempt_log.get(nid, ())]

    def mark_done(self, nid: int) -> None:
        with self._lock:
            self.done_nodes.add(nid)

    def event(self, kind: str, **fields: object) -> None:
        """Record a structured failure/recovery event (JSON-ready)."""
        ev = {"kind": kind}
        ev.update(fields)
        with self._lock:
            self.events.append(ev)

    # -- quiescence-based recovery -------------------------------------
    def enter(self) -> bool:
        """A worker is about to run a task; False means recovery is
        pending and the caller must drop the item (recovery will
        reschedule whatever still needs to run)."""
        with self._lock:
            if self._recovery_devices and not self._recovering:
                return False
            self.active += 1
            return True

    def leave(self) -> bool:
        """A task left the in-flight set; True when the caller must run
        the recovery pass (it observed quiescence with recovery
        pending)."""
        with self._lock:
            self.active -= 1
            return (
                self.active == 0
                and bool(self._recovery_devices)
                and not self._recovering
            )

    def request_recovery(self, ordinal: int) -> bool:
        """Note that device *ordinal* failed; True when the caller
        should run recovery right now (nothing is in flight)."""
        with self._lock:
            self.gen += 1  # invalidate queued items immediately
            self._recovery_devices.add(ordinal)
            return self.active == 0 and not self._recovering

    def take_recovery(self) -> Set[int]:
        """Claim the pending recovery set (called by the recovery pass)."""
        with self._lock:
            self._recovering = True
            devices, self._recovery_devices = self._recovery_devices, set()
            return devices

    def finish_recovery(self) -> bool:
        """Mark recovery done; True when new failures arrived meanwhile
        (the caller should run another pass)."""
        with self._lock:
            self._recovering = False
            return bool(self._recovery_devices) and self.active == 0

    @property
    def recovery_pending(self) -> bool:
        with self._lock:
            return bool(self._recovery_devices) or self._recovering


def _raise_first_unbound(nodes) -> None:
    """Raise for the first node (creation order) with no work bound —
    the messages ``Heteroflow.validate()`` has always raised."""
    for n in nodes:
        ty = n.type
        if ty is TaskType.PLACEHOLDER:
            raise GraphError(f"placeholder task {n.name!r} was never assigned work")
        if ty is TaskType.HOST and n.callable is None:
            raise GraphError(f"host task {n.name!r} has no callable")
        if ty is TaskType.PULL and n.span is None:
            raise GraphError(f"pull task {n.name!r} has no span")
        if ty is TaskType.PUSH and (n.source is None or n.span is None):
            raise GraphError(f"push task {n.name!r} is incompletely bound")
        if ty is TaskType.KERNEL and n.kernel_fn is None:
            raise GraphError(f"kernel task {n.name!r} has no kernel")


def _foreign_edge_error(nodes) -> Optional[GraphError]:
    """The error for the first edge (creation order) leaving *nodes*."""
    own = set(map(id, nodes))
    for n in nodes:
        for s in n.successors:
            if id(s) not in own:
                return GraphError(
                    f"task {n.name!r} precedes {s.name!r}, "
                    f"which belongs to a different graph"
                )
    return None


def kahn_slots(nodes: List["Node"]) -> Tuple[List["Node"], Dict[int, int]]:
    """The one topological sort: Kahn's algorithm over *nodes*.

    Returns the ready order and ``id(node) -> slot`` (the node's index
    in that order).  Slots are assigned at enqueue time; with a FIFO
    ready list that is also the pop order, and the source nodes take
    slots ``0..k-1`` in creation order.  Raises :class:`GraphError` for
    the first edge (creation order) escaping *nodes*, which takes
    precedence over a cycle, and otherwise :class:`CycleError` naming
    the stuck nodes.
    """
    indeg = {id(n): len(n.dependents) for n in nodes}
    order = [n for n in nodes if not n.dependents]
    slot_of = {id(n): s for s, n in enumerate(order)}
    try:
        # the ready list grows while it is walked: FIFO Kahn
        for n in order:
            for t in n.successors:
                k = id(t)
                d = indeg[k] - 1
                indeg[k] = d
                if d == 0:
                    slot_of[k] = len(order)
                    order.append(t)
    except KeyError:
        # a successor outside *nodes*: report the first such edge
        raise _foreign_edge_error(nodes) from None
    if len(order) != len(nodes):
        err = _foreign_edge_error(nodes)
        if err is not None:
            raise err
        raise CycleError([n.name for n in nodes if indeg[id(n)] > 0])
    return order, slot_of


class SlotPlan:
    """Slot tables for one graph, compiled in a single validating pass.

    The shared compile behind fresh submissions, :meth:`Heteroflow.freeze`
    and :meth:`Heteroflow.validate`: :func:`kahn_slots` orders the
    nodes, then one walk over that order emits each slot's successor
    slots, join counter, and host callable while checking every node
    has work bound.  Raises exactly what ``validate()`` always raised,
    with the same precedence: foreign edge, then cycle, then the first
    unbound node in creation order.

    A fresh host-only submission runs on an *ephemeral* plan — compiled
    per submission, never cached, the graph left mutable — through the
    executor's slot engine (docs/runtime.md, "Submission pipeline").
    :class:`FrozenTopology` is the persistent, immutable form.
    """

    def __init__(self, graph: "Heteroflow") -> None:
        nodes = graph.nodes
        order, slot_of = kahn_slots(nodes)
        slot = slot_of.__getitem__
        succ_slots: List[Tuple[int, ...]] = []
        emit = succ_slots.append
        no_succ: Tuple[int, ...] = ()
        has_gpu = unbound = resilient = False
        host, kernel = TaskType.HOST, TaskType.KERNEL
        pull, push = TaskType.PULL, TaskType.PUSH
        for n in order:
            succ = n.successors
            if not succ:
                emit(no_succ)
            elif len(succ) == 1:
                emit((slot(id(succ[0])),))
            else:
                emit(tuple([slot(id(t)) for t in succ]))
            ty = n.type
            if ty is host:
                if n.callable is None:
                    unbound = True
            else:
                has_gpu = True
                if ty is kernel:
                    if n.kernel_fn is None:
                        unbound = True
                elif ty is pull:
                    if n.span is None:
                        unbound = True
                elif ty is not push or n.source is None or n.span is None:
                    unbound = True  # a placeholder, or a half-bound push
            if n.retry_policy is not None or n.timeout_s is not None:
                resilient = True
        if unbound:
            _raise_first_unbound(nodes)
        self.graph = graph
        #: slot -> node, in topological (ready) order
        self.nodes: Tuple = tuple(order)
        #: slot -> successor slots (tuple of ints)
        self.succ_slots: Tuple[Tuple[int, ...], ...] = tuple(succ_slots)
        #: slot -> initial join counter (number of dependents)
        self.join_init: Tuple[int, ...] = tuple(
            [len(n.dependents) for n in order]
        )
        #: slots with no dependents (run-ready at pass start): Kahn
        #: enqueues every source first, so they lead the order
        self.source_slots: Tuple[int, ...] = tuple(
            range(self.join_init.count(0))
        )
        #: slot -> host callable (None for GPU slots)
        self.callables: Tuple = tuple([n.callable for n in order])
        self.has_gpu = has_gpu
        #: slot-engine eligible: host-only with no per-task resilience
        #: overrides (GPU slots and retry/timeout routing go through
        #: the per-node engine)
        self.fast_capable = not has_gpu and not resilient


_frozen_ids = itertools.count()


class FrozenTopology(SlotPlan):
    """Immutable compiled form of a :class:`Heteroflow` graph.

    Built by :meth:`Heteroflow.freeze`: the :class:`SlotPlan` compile
    validates the graph and lowers it to *slots* — a topological order
    where node *s*'s successor and join-counter state are plain tuple
    lookups, no per-node dict or lock traffic.  The executor keys its
    compiled-plan cache (placement grouping, device assignment,
    buddy-rounded footprint) on :attr:`fid`, so repeated
    ``run(frozen)`` submissions replay without re-running Algorithm-1
    placement or graph validation (docs/runtime.md, "Freeze and
    replay").

    The compiled state is shared by every replay and never mutated;
    per-submission state (join counters, callables patched by
    ``bindings=``) lives on the :class:`ReplayTopology`.
    """

    def __init__(self, graph: "Heteroflow") -> None:
        if graph.empty:
            raise GraphError(f"cannot freeze empty graph {graph.name!r}")
        super().__init__(graph)
        #: plan-cache key: unique per freeze, stable across submissions
        self.fid = next(_frozen_ids)
        # bindings lookup: host-task name -> slot; duplicate names are
        # poisoned (-1) and rejected at bind time
        host_slots: Dict[str, int] = {}
        for s, n in enumerate(self.nodes):
            if n.callable is not None:
                host_slots[n.name] = -1 if n.name in host_slots else s
        self._host_slots = host_slots
        self._footprint: Optional[int] = None
        self._lint_cache: Dict[tuple, object] = {}

    @property
    def name(self) -> str:
        return self.graph.name

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def predicted_footprint(self) -> int:
        """Buddy-rounded device-memory footprint, computed once.

        Same quantity as
        :func:`repro.service.admission.predicted_footprint_bytes` — the
        admission ledger charges replays from this cache instead of
        re-deriving the HF020 capacity model per submission.
        """
        fp = self._footprint
        if fp is None:
            from repro.service.admission import predicted_footprint_bytes

            fp = predicted_footprint_bytes(self.graph)
            self._footprint = fp
        return fp

    def lint(self, **kwargs):
        """Cached hflint report (the graph can no longer change).

        One analysis per distinct keyword set; repeat calls return the
        identical :class:`repro.analysis.LintReport` object.
        """
        try:
            key = tuple(sorted(kwargs.items()))
        except TypeError:
            key = None
        if key is not None:
            cached = self._lint_cache.get(key)
            if cached is not None:
                return cached
        from repro.analysis import lint as _lint

        report = _lint(self.graph, **kwargs)
        if key is not None:
            self._lint_cache[key] = report
        return report

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"FrozenTopology({self.graph.name!r}, slots={len(self.nodes)}, "
            f"fast={self.fast_capable})"
        )


class ReplayTopology(Topology):
    """Per-submission state for one replay of a :class:`FrozenTopology`.

    Inherits the whole submission lifecycle from :class:`Topology`
    (graph FIFO, futures, cancel/deadline, admission release, drain and
    shutdown stranding guarantees) and adds the frozen plan plus the
    (possibly ``bindings``-patched) per-slot callable table; fast-path
    eligible replays attach the frozen slots to the slot engine.
    """

    def __init__(
        self,
        frozen: FrozenTopology,
        repeats: Optional[int] = 1,
        predicate: Optional[Callable[[], bool]] = None,
        policy: Optional[object] = None,
        priority: int = 0,
        deadline_s: Optional[float] = None,
        bindings: Optional[Dict[str, Callable]] = None,
    ) -> None:
        super().__init__(
            frozen.graph,
            repeats=repeats,
            predicate=predicate,
            policy=policy,
            priority=priority,
            deadline_s=deadline_s,
        )
        self.frozen = frozen
        # share the frozen table unless bound: zero per-submission
        # allocation on the common path
        callables = frozen.callables
        if bindings:
            patched = list(callables)
            bound: Dict[int, Callable] = {}
            for name, fn in bindings.items():
                slot = frozen._host_slots.get(name)
                if slot is None:
                    raise GraphError(
                        f"bindings: frozen graph {frozen.graph.name!r} has "
                        f"no host task named {name!r}"
                    )
                if slot < 0:
                    raise GraphError(
                        f"bindings: host task name {name!r} is ambiguous "
                        f"in frozen graph {frozen.graph.name!r}"
                    )
                if not callable(fn):
                    raise GraphError(
                        f"bindings: value for {name!r} is not callable"
                    )
                patched[slot] = fn
                bound[frozen.nodes[slot].nid] = fn
            callables = tuple(patched)
            self.bound = bound
        if frozen.fast_capable and self.slot_eligible:
            self.attach_plan(frozen, callables)
