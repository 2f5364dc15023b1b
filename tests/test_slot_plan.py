"""Tests for the one-pass slot compile and fresh runs on the slot engine.

:class:`repro.core.topology.SlotPlan` is the single compile behind
``Heteroflow.validate()``, ``freeze()`` and every fresh submission
(docs/runtime.md, "Submission pipeline").  These tests pin its tables,
its error precedence, and the fresh-submission contract: host-only
graphs with no retry/timeout policy run on the slot engine over an
ephemeral plan that is never cached and never freezes the graph.
"""

from __future__ import annotations

import random
import threading

import numpy as np
import pytest

from repro.core import Executor, Heteroflow, TraceObserver
from repro.core.node import TaskType
from repro.core.task import HostTask, KernelTask, PullTask, PushTask, Task
from repro.core.topology import SlotPlan
from repro.errors import CycleError, GraphError
from repro.resilience import RetryPolicy


def _random_dag(seed: int, n: int = 40) -> Heteroflow:
    rng = random.Random(seed)
    hf = Heteroflow(f"dag{seed}")
    tasks = [hf.host(lambda: None, name=f"t{i}") for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)  # creation order is not the topological order
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.08:
                tasks[order[i]].precede(tasks[order[j]])
    return hf


class TestSlotTables:
    @pytest.mark.parametrize("seed", range(8))
    def test_tables_match_the_graph(self, seed):
        hf = _random_dag(seed)
        plan = SlotPlan(hf)
        slot = {id(n): s for s, n in enumerate(plan.nodes)}
        assert sorted(map(id, plan.nodes)) == sorted(map(id, hf.nodes))
        for s, n in enumerate(plan.nodes):
            # topological: every successor sits at a later slot
            assert plan.succ_slots[s] == tuple(slot[id(t)] for t in n.successors)
            assert all(t > s for t in plan.succ_slots[s])
            assert plan.join_init[s] == len(n.dependents)
            assert plan.callables[s] is n.callable
        assert plan.source_slots == tuple(
            s for s, j in enumerate(plan.join_init) if j == 0
        )
        assert plan.fast_capable and not plan.has_gpu
        assert [n.nid for n in hf.topological_order()] == [
            n.nid for n in plan.nodes
        ]

    def test_parallel_edges_count_twice(self):
        hf = Heteroflow()
        a, b = hf.host(lambda: None), hf.host(lambda: None)
        a.precede(b)
        a.precede(b)
        plan = SlotPlan(hf)
        assert plan.succ_slots == ((1, 1), ())
        assert plan.join_init == (0, 2)

    def test_resilience_overrides_disable_the_slot_engine(self):
        hf = Heteroflow()
        hf.host(lambda: None).timeout(5)
        assert not SlotPlan(hf).fast_capable
        hf2 = Heteroflow()
        hf2.host(lambda: None).retry(max_attempts=2)
        assert not SlotPlan(hf2).fast_capable


class TestCompileErrors:
    """The compile raises exactly what validate() always raised, with
    the same precedence: foreign edge, cycle, first unbound node."""

    @pytest.mark.parametrize(
        "handle, kind, message",
        [
            (Task, None, "placeholder task 'x' was never assigned work"),
            (HostTask, None, "placeholder task 'x' was never assigned work"),
            (HostTask, TaskType.HOST, "host task 'x' has no callable"),
            (PullTask, TaskType.PULL, "pull task 'x' has no span"),
            (PushTask, TaskType.PUSH, "push task 'x' is incompletely bound"),
            (KernelTask, TaskType.KERNEL, "kernel task 'x' has no kernel"),
        ],
    )
    def test_unbound_messages(self, handle, kind, message):
        hf = Heteroflow()
        task = hf.placeholder(handle, name="x")
        if kind is not None:
            task.node.type = kind  # typed, but no work bound
        with pytest.raises(GraphError, match=message):
            SlotPlan(hf)

    def test_first_unbound_in_creation_order(self):
        hf = Heteroflow()
        late = hf.placeholder(name="late-in-topo-order")
        early = hf.placeholder(name="early-in-topo-order")
        early.precede(late)
        with pytest.raises(GraphError, match="late-in-topo-order"):
            hf.validate()

    def test_cycle_beats_unbound(self):
        hf = Heteroflow()
        hf.placeholder(name="unbound")
        a, b = hf.host(lambda: None, name="a"), hf.host(lambda: None, name="b")
        a.precede(b)
        b.precede(a)
        with pytest.raises(CycleError) as info:
            hf.validate()
        assert info.value.cycle == ["a", "b"]

    def test_foreign_edge_beats_cycle(self):
        g1, g2 = Heteroflow("g1"), Heteroflow("g2")
        a, b = g1.host(lambda: None, name="a"), g1.host(lambda: None, name="b")
        a.precede(b)
        b.precede(a)
        c = g1.host(lambda: None, name="c")
        c.precede(g2.host(lambda: None, name="other"))
        with pytest.raises(GraphError, match="'c' precedes 'other', which belongs"):
            g1.validate()

    def test_foreign_edge_on_a_single_node(self):
        g1, g2 = Heteroflow(), Heteroflow()
        a = g1.host(lambda: None, name="a")
        a.precede(g2.host(lambda: None, name="b"))
        with pytest.raises(GraphError, match="different graph"):
            g1.topological_order()

    def test_fresh_run_raises_synchronously(self):
        hf = Heteroflow()
        a, b = hf.host(lambda: None, name="a"), hf.host(lambda: None, name="b")
        a.precede(b)
        b.precede(a)
        with Executor(num_workers=1, num_gpus=0) as ex:
            with pytest.raises(CycleError):
                ex.run(hf)
            hf2 = Heteroflow()
            hf2.placeholder(name="ph")
            with pytest.raises(GraphError, match="never assigned work"):
                ex.run(hf2)
            # zero repeats never compile, exactly as before
            assert ex.run_n(hf, 0).result() == 0


class TestFreshSlotEngine:
    def test_host_only_runs_on_the_slot_engine(self):
        hf = _random_dag(3)
        with Executor(num_workers=2, num_gpus=0) as ex:
            for _ in range(3):
                assert ex.run(hf).result() == 1
            ex.run_n(hf, 2).result()
            snap = ex.metrics.snapshot()
            assert ex._plan_cache == {}  # ephemeral plans are never cached
        assert snap["executor.fresh_fast_path"] == 4
        assert sum(snap["executor.tasks_executed"]) == 5 * len(hf)
        assert snap["replay.fast_path"] == 0
        assert snap["replay.plan_reuses"] == 0
        assert not hf.frozen

    def test_mutation_between_runs_is_seen(self):
        log = []
        hf = Heteroflow()
        a = hf.host(lambda: log.append("a"), name="a")
        with Executor(num_workers=1, num_gpus=0) as ex:
            ex.run(hf).result()
            b = hf.host(lambda: log.append("b"), name="b")
            a.precede(b)
            ex.run(hf).result()
            b.host(lambda: log.append("b2"))
            ex.run(hf).result()
        assert log == ["a", "a", "b", "a", "b2"]

    def test_each_submission_runs_its_own_plan(self):
        """A submission queued behind a running one keeps the graph it
        was compiled from, even if the graph grows meanwhile."""
        gate = threading.Event()
        log = []
        hf = Heteroflow()
        hf.host(gate.wait, name="gate")
        with Executor(num_workers=2, num_gpus=0) as ex:
            f1 = ex.run(hf)
            f2 = ex.run(hf)  # queued in the graph FIFO
            hf.host(lambda: log.append("late"), name="late")
            gate.set()
            f1.result(timeout=10)
            f2.result(timeout=10)
            assert log == []
            ex.run(hf).result(timeout=10)
        assert log == ["late"]

    def test_policies_gpu_and_sanitize_stay_per_node(self):
        hf = _random_dag(1, n=6)
        with Executor(num_workers=2, num_gpus=1) as ex:
            ex.run(hf, policy=RetryPolicy(max_attempts=2)).result()
            ex.run(hf, sanitize=True).result()
            timed = _random_dag(2, n=6)
            timed.tasks()[0].timeout(30)
            ex.run(timed).result()
            data = np.ones(8)
            g = Heteroflow()
            pull = g.pull(data)
            push = g.push(pull, data)
            pull.precede(push)
            ex.run(g).result()
            snap = ex.metrics.snapshot()
        assert snap["executor.fresh_fast_path"] == 0

    def test_task_failure_raises_the_raw_exception(self):
        hf = Heteroflow()
        ok = hf.host(lambda: None, name="ok")

        def boom():
            raise ValueError("boom")

        bad = hf.host(boom, name="bad")
        ok.precede(bad)
        with Executor(num_workers=2, num_gpus=0) as ex:
            with pytest.raises(ValueError, match="boom"):
                ex.run(hf).result(timeout=10)
            assert ex.metrics.snapshot()["executor.fresh_fast_path"] == 1

    def test_observers_and_run_report(self):
        hf = _random_dag(5, n=12)
        obs = TraceObserver()
        with Executor(num_workers=2, num_gpus=0, observers=[obs]) as ex:
            fut = ex.run(hf, metrics=True)
            fut.result(timeout=10)
            report = fut.run_report
            assert ex.metrics.snapshot()["executor.fresh_fast_path"] == 1
        assert len(obs.records) == 12
        assert report is not None
        assert report.num_records == 12
        assert sum(lane.tasks for lane in report.lanes) == 12
