"""Differential replay harness: frozen-graph replays vs fresh runs.

The freeze-and-replay fast path (docs/runtime.md, "Freeze and replay")
re-implements dispatch for frozen graphs: a compiled slot table, a
cached placement plan, and (for host-only graphs) a chunked slot loop
that bypasses the per-node scheduling machinery entirely.  That is
exactly the kind of duplicated logic that drifts, so this harness runs
every stress-generator graph **both ways** and cross-checks them:

1. generate the same seeded graph twice (identical structure and
   arithmetic — everything derives from the seed);
2. run one copy fresh (``run_n(graph, N)``) and the other frozen
   (``freeze()`` + N serialized ``run(frozen)`` submissions), each
   under its own :class:`~repro.core.executor.Executor` with a
   :class:`~repro.core.observer.TraceObserver` attached;
3. feed **both** trace streams through
   :func:`~repro.check.validate.validate_schedule` (exact-once,
   happens-before, stream FIFO, placement consistency) — N serialized
   one-pass replays must validate exactly like one N-pass run;
4. check **both** result sets against the generator's host-replay
   oracle, then compare the two runs' final chain arrays and host-task
   counts against each other;
5. require the two validator verdicts to agree (both clean, or the
   fresh path already broken — a frozen-only violation is a replay
   bug by construction).

Scenario modes (``seed % 4``) also drive cancellation, submission
deadlines, and device fault injection *through the replay path*, plus
a clean follow-up replay proving the frozen graph survives a
cancelled/expired submission.  Exposed via
``python -m repro check --replay`` (``--replay-smoke`` in CI).

Fresh host-only submissions compile onto the same slot engine as the
replays, so on host-only configs the fresh side would compare the slot
engine with itself.  There the fresh side is the *per-node reference*
instead: every task gets a generous timeout (:data:`REFERENCE_TIMEOUT_S`),
which keeps the graph on the per-node engine.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import CancelledError
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.check.generator import GeneratedGraph, generate_graph
from repro.check.stress import STRESS_POOL_BYTES, _RESULT_TIMEOUT
from repro.check.validate import validate_schedule
from repro.core.executor import Executor
from repro.core.observer import TraceObserver
from repro.resilience import FaultProfile, RetryPolicy

#: default sweep: a host-only config (slot fast path) plus the stress
#: GPU configs (general frozen path, cached placement plan)
REPLAY_CONFIGS: Tuple[Tuple[int, int], ...] = ((2, 0), (1, 1), (2, 2), (4, 2))

#: scenario modes, chosen per seed; ``fault`` degrades to ``normal``
#: on host-only configs (nothing to inject)
_MODES = ("normal", "cancel", "deadline", "fault")

#: deadline armed for deadline-mode scenarios; the gate holds the graph
#: at the starting line well past this
_DEADLINE_S = 0.05

#: per-task timeout on the host-only reference side: far above any
#: task's runtime, it only routes the graph to the per-node engine
REFERENCE_TIMEOUT_S = 60.0


@dataclass
class ReplayOutcome:
    """One fresh-vs-frozen differential scenario."""

    workers: int
    gpus: int
    seed: int
    mode: str  # "normal" | "cancel" | "deadline" | "fault"
    passes: int
    num_nodes: int
    fast: bool  # frozen side used the slot fast path
    records_fresh: int = 0
    records_frozen: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class ReplayReport:
    """Aggregated differential-sweep outcome (``repro.replay-report/1``)."""

    schema: str = "repro.replay-report/1"
    outcomes: List[ReplayOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    @property
    def num_scenarios(self) -> int:
        return len(self.outcomes)

    @property
    def violations(self) -> List[str]:
        out: List[str] = []
        for o in self.outcomes:
            out.extend(
                f"[{o.workers}w x {o.gpus}g seed={o.seed} {o.mode}] {v}"
                for v in o.violations
            )
        return out

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "ok": self.ok,
            "num_scenarios": self.num_scenarios,
            "scenarios": [
                {
                    "workers": o.workers,
                    "gpus": o.gpus,
                    "seed": o.seed,
                    "mode": o.mode,
                    "passes": o.passes,
                    "num_nodes": o.num_nodes,
                    "fast": o.fast,
                    "records_fresh": o.records_fresh,
                    "records_frozen": o.records_frozen,
                    "violations": o.violations,
                }
                for o in self.outcomes
            ],
        }


def _make_executor(workers: int, gpus: int, seed: int) -> Executor:
    return Executor(
        num_workers=workers,
        num_gpus=gpus,
        gpu_memory_bytes=STRESS_POOL_BYTES,
        seed=seed,
    )


def _inject_faults(ex: Executor, gpus: int, seed: int) -> None:
    # one-shot kernel fault on every device: whichever GPU the cached
    # plan picks, the first launch there fails and the retry policy
    # must recover — through the frozen path on the replay side
    for ordinal in range(gpus):
        ex.gpu_runtime.device(ordinal).configure_faults(
            FaultProfile(kernel_fault_at=1), seed=seed
        )


def _cross_compare(
    fresh: GeneratedGraph, frozen: GeneratedGraph, outcome: ReplayOutcome
) -> None:
    """Compare the two runs' terminal state against each other."""
    fresh_counts = sorted(fresh.host_log)
    frozen_counts = sorted(frozen.host_log)
    if fresh_counts != frozen_counts:
        outcome.violations.append(
            f"host-task execution multiset differs: fresh ran "
            f"{len(fresh_counts)} tasks, frozen ran {len(frozen_counts)}"
        )
    for ca, cb in zip(fresh.chains, frozen.chains):
        if not np.allclose(ca.array, cb.array, rtol=1e-12, atol=1e-12):
            outcome.violations.append(
                f"chain {ca.index}: frozen replay result differs from "
                f"the fresh run"
            )


def _run_differential(
    workers: int, gpus: int, seed: int, mode: str, passes: int
) -> ReplayOutcome:
    gated = mode in ("cancel", "deadline")
    fresh = generate_graph(seed, num_gpus=gpus, gate=gated)
    if gpus == 0:
        # per-node reference side (see the module docstring)
        for task in fresh.graph.tasks():
            task.timeout(REFERENCE_TIMEOUT_S)
    frozen_gen = generate_graph(seed, num_gpus=gpus, gate=gated)
    frozen = frozen_gen.graph.freeze()
    outcome = ReplayOutcome(
        workers=workers,
        gpus=gpus,
        seed=seed,
        mode=mode,
        passes=passes,
        num_nodes=fresh.num_nodes,
        fast=frozen.fast_capable,
    )
    if len(fresh.graph) != len(frozen_gen.graph):
        outcome.violations.append(
            "generator is not seed-deterministic; differential is void"
        )
        return outcome

    policy = (
        RetryPolicy(max_attempts=3, base_delay=0.0) if mode == "fault" else None
    )

    def drive(
        gen: GeneratedGraph,
        ex: Executor,
        obs: TraceObserver,
        side: str,
        submit: Callable,
    ) -> None:
        """Run one side through the scenario mode."""
        if mode in ("normal", "fault"):
            if mode == "fault":
                _inject_faults(ex, gpus, seed)
            for fut in submit(passes, policy):
                try:
                    fut.result(timeout=_RESULT_TIMEOUT)
                except Exception as exc:  # noqa: BLE001 - harness boundary
                    outcome.violations.append(
                        f"{side}: unexpected failure: {exc!r}"
                    )
            report = validate_schedule(
                gen.graph,
                obs.records,
                passes=passes,
                num_gpus=gpus,
            )
            outcome.violations.extend(f"{side}: {v}" for v in report.violations)
            outcome.violations.extend(
                f"{side}: oracle: {p}" for p in gen.verify(passes)
            )
            _record(side, report.num_records)
            return
        # cancel/deadline: one gated submission is killed mid-flight,
        # then a clean follow-up run proves the graph still replays
        (fut,) = submit(1, None) if mode == "cancel" else submit(1, None, True)
        if mode == "cancel":
            ex.cancel(fut)
            gen.gate.set()
        else:
            # hold the graph at the gate until the deadline fires (the
            # ``service.deadline_exceeded`` counter ticks on the timer
            # thread), then release it so the flush can finish
            give_up = time.monotonic() + 10.0
            while (
                ex.metrics.snapshot().get("service.deadline_exceeded", 0) == 0
                and time.monotonic() < give_up
            ):
                time.sleep(0.005)
            gen.gate.set()
        try:
            fut.result(timeout=_RESULT_TIMEOUT)
            outcome.violations.append(f"{side}: {mode} run resolved cleanly")
        except CancelledError:
            pass
        except Exception as exc:  # noqa: BLE001 - harness boundary
            outcome.violations.append(f"{side}: unexpected failure: {exc!r}")
        partial = validate_schedule(
            gen.graph,
            obs.records,
            passes=1,
            num_gpus=gpus,
            allow_partial=True,
        )
        outcome.violations.extend(f"{side}: {v}" for v in partial.violations)
        # the gate stays set, so the follow-up runs unimpeded
        obs2 = TraceObserver()
        ex.remove_observer(obs)
        ex.add_observer(obs2)
        (fut2,) = submit(1, None)
        try:
            fut2.result(timeout=_RESULT_TIMEOUT)
        except Exception as exc:  # noqa: BLE001 - harness boundary
            outcome.violations.append(
                f"{side}: follow-up after {mode} failed: {exc!r}"
            )
        strict = validate_schedule(
            gen.graph, obs2.records, passes=1, num_gpus=gpus
        )
        outcome.violations.extend(f"{side}: {v}" for v in strict.violations)
        _record(side, partial.num_records + strict.num_records)

    def _record(side: str, n: int) -> None:
        if side == "fresh":
            outcome.records_fresh = n
        else:
            outcome.records_frozen = n

    # fresh side: classic run_n submission
    obs_a = TraceObserver()
    ex_a = _make_executor(workers, gpus, seed)
    ex_a.add_observer(obs_a)
    try:
        drive(
            fresh,
            ex_a,
            obs_a,
            "fresh",
            lambda n, pol, dl=False: [
                ex_a.run_n(
                    fresh.graph,
                    n,
                    policy=pol,
                    deadline=_DEADLINE_S if dl else None,
                )
            ],
        )
    finally:
        ex_a.shutdown()

    # frozen side: N serialized single-pass replays of the compiled
    # topology — the graph FIFO orders them, so the trace must
    # validate exactly like one N-pass run
    obs_b = TraceObserver()
    ex_b = _make_executor(workers, gpus, seed)
    ex_b.add_observer(obs_b)
    try:
        drive(
            frozen_gen,
            ex_b,
            obs_b,
            "frozen",
            lambda n, pol, dl=False: [
                ex_b.run(
                    frozen,
                    policy=pol,
                    deadline=_DEADLINE_S if dl else None,
                )
                for _ in range(n)
            ],
        )
    finally:
        ex_b.shutdown()

    if mode in ("normal", "fault"):
        _cross_compare(fresh, frozen_gen, outcome)
        if outcome.records_fresh != outcome.records_frozen:
            outcome.violations.append(
                f"trace length differs: fresh committed "
                f"{outcome.records_fresh} records, frozen "
                f"{outcome.records_frozen}"
            )
    return outcome


def run_replay_check(
    seeds: int = 13,
    configs: Optional[Sequence[Tuple[int, int]]] = None,
    *,
    log: Optional[Callable[[str], None]] = None,
) -> ReplayReport:
    """Sweep *seeds* differential scenarios over every config.

    Each (config, seed) pair runs one scenario whose mode derives from
    the seed (``seed % 4``): plain multi-pass replay, cancellation
    mid-replay, a firing submission deadline, or device fault injection
    with retries through the frozen path (GPU configs; host-only
    configs substitute a normal scenario).  The default sweep is
    ``13 seeds x 4 configs = 52`` scenarios.  Never raises on
    violations — the caller decides (CLI exits nonzero, tests assert).
    """
    configs = tuple(configs) if configs else REPLAY_CONFIGS
    report = ReplayReport()
    for workers, gpus in configs:
        for seed in range(seeds):
            mode = _MODES[seed % len(_MODES)]
            if mode == "fault" and gpus == 0:
                mode = "normal"
            rng = random.Random((seed << 8) ^ (workers * 37) ^ (gpus * 101))
            passes = rng.randint(2, 3) if mode in ("normal", "fault") else 1
            outcome = _run_differential(workers, gpus, seed, mode, passes)
            report.outcomes.append(outcome)
        if log is not None:
            runs = [
                o for o in report.outcomes
                if o.workers == workers and o.gpus == gpus
            ]
            bad = sum(len(o.violations) for o in runs)
            log(
                f"  {workers} worker(s) x {gpus} GPU(s): "
                f"{len(runs)} scenario(s), "
                f"{sum(o.records_frozen for o in runs)} replay records, "
                f"{bad} violation(s)"
            )
    return report
