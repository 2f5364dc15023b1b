"""Deliberately-buggy executors: proof that the validator has teeth.

A checker that never fires is indistinguishable from a checker that
cannot fire.  :class:`MutantExecutor` plants a classic scheduler bug —
a *premature dependency release* (equivalent to skipping one join-
counter decrement): any task with two or more predecessors is scheduled
as soon as its **first** predecessor finishes, instead of its last.
Each task still runs exactly once (the pass accounting stays intact),
so the bug is invisible to result-less smoke tests; only a
happens-before check over the trace can see it.  The bug is planted in
both execution engines: the per-node engine's successor release, and
the slot engine's compiled join counters (fresh host-only submissions
run there).

:func:`run_mutant_selftest` runs a graph engineered to expose the bug
deterministically — a diamond whose second predecessor sleeps, so the
join task provably begins while that predecessor is still running —
under both the mutant and the reference executor, once per engine, and
reports whether the validator caught the mutant (it must) while passing
the reference run (it must, too).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.executor import Executor
from repro.core.heteroflow import Heteroflow
from repro.core.node import Node
from repro.core.observer import TraceObserver
from repro.core.topology import SlotPlan, Topology
from repro.check.validate import ScheduleReport, validate_schedule


class MutantExecutor(Executor):
    """Executor with a seeded premature-release scheduling bug.

    Do not use outside the checker self-test.
    """

    def _finish_node(
        self, topology: Topology, node: Node, gen: Optional[int] = None
    ) -> None:
        for succ in node.successors:
            with succ._lock:
                succ.join_counter -= 1
                remaining = succ.join_counter
            # BUG (deliberate): multi-dependency successors are released
            # one decrement early — after their first finished
            # predecessor instead of their last
            threshold = 1 if len(succ.dependents) >= 2 else 0
            if remaining == threshold:
                self._schedule(topology, succ, gen)
        if topology.node_finished():
            if topology.pass_completed():
                self._finalize_topology(topology)
            else:
                self._dispatch_pass(topology)

    def _compile_plan(self, graph: Heteroflow) -> SlotPlan:
        plan = super()._compile_plan(graph)
        # BUG (deliberate): the same premature release on the slot
        # engine — join counters of multi-dependency slots start one
        # short, so the first finished predecessor releases them
        plan.join_init = tuple(j - 1 if j >= 2 else j for j in plan.join_init)
        return plan


#: the engines the self-test exercises
ENGINES = ("slot", "per-node")


def _diamond_graph(delay: float) -> Heteroflow:
    """fast + slow predecessors joining into one task, plus a tail."""
    hf = Heteroflow("mutant-selftest")
    fast = hf.host(lambda: None, name="fast")
    slow = hf.host(lambda: time.sleep(delay), name="slow")
    join = hf.host(lambda: None, name="join")
    tail = hf.host(lambda: None, name="tail")
    fast.precede(join)
    slow.precede(join)
    join.precede(tail)
    return hf


@dataclass
class SelftestResult:
    """Validator verdicts for the mutant and the reference executor,
    per engine (``engines[engine][label]``)."""

    engines: Dict[str, Dict[str, ScheduleReport]]

    @property
    def reports(self) -> Dict[str, ScheduleReport]:
        """The slot engine's verdicts (the engine fresh host-only
        submissions take), keyed ``mutant`` / ``reference``."""
        return self.engines["slot"]

    @property
    def caught(self) -> bool:
        """True iff, on every engine, the validator flagged the mutant
        and not the correct executor — the checker demonstrably has
        teeth."""
        return all(
            (not r["mutant"].ok) and r["reference"].ok
            for r in self.engines.values()
        )


def run_mutant_selftest(delay: float = 0.25) -> SelftestResult:
    """Run the seeded-bug graph under both executors and validate.

    *delay* is the slow predecessor's sleep; the mutant schedules the
    join task immediately after the fast predecessor, so the join's
    begin stamp lands well inside the slow task's interval and the
    happens-before check must fire.  The per-node run gives every task
    a generous timeout, which keeps the host-only diamond off the slot
    engine.
    """
    engines: Dict[str, Dict[str, ScheduleReport]] = {}
    for engine in ENGINES:
        reports: Dict[str, ScheduleReport] = {}
        for label, cls in (("mutant", MutantExecutor), ("reference", Executor)):
            hf = _diamond_graph(delay)
            if engine == "per-node":
                for task in hf.tasks():
                    task.timeout(60)
            obs = TraceObserver()
            with cls(num_workers=2, num_gpus=0, observers=[obs]) as ex:
                ex.run(hf).result(timeout=60)
            reports[label] = validate_schedule(
                hf, obs.records, passes=1, num_gpus=0
            )
        engines[engine] = reports
    return SelftestResult(engines=engines)
