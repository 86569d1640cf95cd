"""The run's one waits-for relation (``repro.core.waits``).

Every scheduler hands its BLOCKs to the relation the engine keeps, so a
wait cycle is found the same way whichever scheduler — or commit gate —
parked the waits.  The scenarios below drive real engines through a
scripted interleaving; the oracle grid holds every registry scheduler to
the rule that no wait cycle outlives a decision.
"""

from __future__ import annotations

import inspect
import itertools
from types import SimpleNamespace

import pytest

from repro.core.waits import WaitsFor
from repro.objectbase import MethodDefinition, ObjectBase, ObjectDefinition
from repro.objectbase.adts import register_definition
from repro.scheduler import GATE_MODES, SCHEDULER_FACTORIES, make_scheduler
from repro.scheduler.base import ExecutionInfo, SchedulerResponse
from repro.simulation import TransactionSpec, make_workload
from repro.simulation.events import ABORTED, BLOCKED

from tests.oracles.engines import WaitsCheckedEngine


class ScriptedEngine(WaitsCheckedEngine):
    """Advances the frames a test names, one decision each, before the seeded loop."""

    def step(self, *execution_ids: str) -> None:
        self._admit_pending()
        for execution_id in execution_ids:
            frame = self._frames[execution_id]
            assert frame in self._ready, f"{execution_id} is not ready"
            self._tick += 1
            self.metrics.decisions += 1
            self._advance(frame)


def object_base(**transactions) -> ObjectBase:
    """Registers ``a`` and ``b``, a ``svc`` object whose methods run nested
    work, and the given top-level transactions."""
    base = ObjectBase()
    base.register(register_definition("a", 0))
    base.register(register_definition("b", 0))

    def pair(ctx, first, second):
        yield ctx.invoke(first, "write", 1)
        yield ctx.invoke(second, "write", 2)

    def both(ctx, name):
        yield ctx.parallel(ctx.call(name, "write", 1), ctx.call(name, "write", 2))

    methods = {"pair": MethodDefinition("pair", pair), "both": MethodDefinition("both", both)}
    base.register(ObjectDefinition("svc", methods=methods))
    for name, body in transactions.items():
        base.register_transaction(MethodDefinition(name, body))
    return base


def program(*calls):
    """A transaction body invoking ``(object, method, *args)`` in turn."""

    def body(ctx):
        for call in calls:
            yield ctx.invoke(*call)

    return body


def scripted(base, scheduler, *names, **scheduler_kwargs) -> ScriptedEngine:
    engine = ScriptedEngine(
        base, make_scheduler(scheduler, **scheduler_kwargs), seed=1, record_trace=True
    )
    for name in names:
        engine.submit(TransactionSpec(name, ()))
    return engine


def root(name: str) -> SimpleNamespace:
    """A live top-level frame, as the relation sees one."""
    return SimpleNamespace(info=ExecutionInfo(name, "environment", "m", None, (), name))


def aborts(result) -> list[tuple[str, str]]:
    return [(event.execution_id, event.detail) for event in result.trace.of_kind(ABORTED)]


class TestLongChains:
    """The search is iterative: the recursive graph this relation replaced
    raised ``RecursionError`` on a chain of 1,199 waits."""

    CHAIN = 5_000

    def chain(self) -> WaitsFor:
        waits = WaitsFor({f"T{index}": root(f"T{index}") for index in range(self.CHAIN + 1)})
        for index in range(self.CHAIN - 1):
            blocked = SchedulerResponse.block("lock", {f"T{index + 1}"})
            assert waits.block(f"T{index}", blocked) is blocked
        return waits

    def test_a_5000_transaction_chain_searches_clean(self):
        waits = self.chain()
        # T5000 waits on the chain's head: the search walks all 5,000 links.
        blocked = SchedulerResponse.block("lock", {"T0"})
        assert waits.block(f"T{self.CHAIN}", blocked) is blocked

    def test_one_closing_wait_aborts_the_requester(self):
        waits = self.chain()
        answer = waits.block(f"T{self.CHAIN - 1}", SchedulerResponse.block("lock", {"T0"}))
        assert answer.aborted
        cycle = answer.reason.removeprefix("deadlock: wait cycle ").split(" -> ")
        assert cycle == [f"T{self.CHAIN - 1}"] + [f"T{index}" for index in range(self.CHAIN)]
        # The requester's record is gone: the chain is open again.
        blocked = SchedulerResponse.block("lock", {"T0"})
        assert waits.block(f"T{self.CHAIN}", blocked) is blocked


class TestRecords:
    @staticmethod
    def relation(*names: str) -> WaitsFor:
        return WaitsFor({name: root(name) for name in names})

    def test_a_wait_on_no_live_blocker_records_nothing(self):
        waits = self.relation("T1")
        blocked = SchedulerResponse.block("lock", {"T9"})
        assert waits.block("T1", blocked) is blocked
        assert not waits._records and not waits._succ

    def test_a_new_block_replaces_the_record_and_clear_drops_it(self):
        waits = self.relation("T1", "T2", "T3")
        waits.block("T1", SchedulerResponse.block("lock", {"T2"}))
        waits.block("T1", SchedulerResponse.block("lock", {"T3"}))
        assert waits._succ == {"T1": {"T3": 1}}
        # T1's wait on T2 was replaced, so T2 may wait on T1.
        assert waits.block("T2", SchedulerResponse.block("lock", {"T1"})).blocked
        waits.clear("T1")
        assert waits._succ == {"T2": {"T1": 1}}

    def test_a_transaction_end_drops_it_as_waiter_and_as_target(self):
        waits = self.relation("T1", "T2", "T3")
        waits.block("T1", SchedulerResponse.block("lock", {"T2", "T3"}))
        waits.block("T3", SchedulerResponse.block("lock", {"T2"}))
        waits.end("T2")
        assert waits._succ == {"T1": {"T3": 1}}
        waits.end("T1")
        assert not waits._records and not waits._succ


class TestRelationInRuns:
    @pytest.mark.parametrize("scheduler", ["n2pl", "single-active", "modular"])
    def test_a_cross_transaction_lock_cycle_aborts_the_requester(self, scheduler):
        base = object_base(
            ab=program(("a", "write", 1), ("b", "write", 1)),
            ba=program(("b", "write", 2), ("a", "write", 2)),
        )
        engine = scripted(base, scheduler, "ab", "ba")
        engine.step("T1", "T1.1", "T1.1", "T2", "T2.1", "T2.1", "T1", "T2", "T1.2", "T2.2")
        result = engine.run()
        assert aborts(result)[0] == ("T2", "deadlock: wait cycle T2 -> T1 -> T2")
        assert result.scheduler_description["deadlocks_detected"] == 1
        assert result.metrics.committed == 2
        # The aborted wait was never parked: T2.2's request left no BLOCKED event.
        assert [event.execution_id for event in result.trace.of_kind(BLOCKED)][0] == "T1.2"

    def test_a_sibling_branch_cycle_aborts_the_transaction(self):
        base = object_base(
            siblings=lambda ctx: (
                yield ctx.parallel(
                    ctx.call("svc", "pair", "a", "b"), ctx.call("svc", "pair", "b", "a")
                )
            )
        )
        engine = scripted(base, "n2pl", "siblings")
        engine.step("T1", "T1.1", "T1.2", "T1.1.1", "T1.2.1", "T1.1.1", "T1.2.1")
        engine.step("T1.1", "T1.2", "T1.1.2", "T1.2.2")
        result = engine.run()
        assert aborts(result)[0] == ("T1", "deadlock: wait cycle T1.2 -> T1.1 -> T1.2")
        # A restart can meet the same deadlock again under the seeded loop.
        deadlocks = result.scheduler_description["deadlocks_detected"]
        assert deadlocks == result.metrics.aborts_by_reason["deadlock"] >= 1
        assert result.metrics.committed == 1

    def test_a_branch_wait_that_inheritance_ends_keeps_its_record_until_the_re_request(self):
        # T1.1.1 waits on its sibling T1.1.2's branch and T1.2 on T1.1:
        # T1.1.2 completes, hands its lock to T1.1 and lets T1.1.1 finish.
        base = object_base(
            nested=lambda ctx: (
                yield ctx.parallel(ctx.call("svc", "both", "a"), ctx.call("a", "write", 3))
            )
        )
        engine = scripted(base, "n2pl", "nested")
        waits = engine._waits
        engine.step("T1", "T1.1", "T1.1.2", "T1.1.1", "T1.2")
        assert waits._succ == {"T1.1.1": {"T1.1.2": 1}, "T1.2": {"T1.1": 1}}
        engine.step("T1.1.2")  # completes: rule 5 wakes both waiters
        assert set(waits._records) == {"T1.1.1", "T1.2"}
        engine.step("T1.1.1")  # the re-request is granted: its record goes
        assert set(waits._records) == {"T1.2"}
        engine.step("T1.2")  # blocks again, on the inheriting T1.1
        assert waits._succ == {"T1.2": {"T1.1": 1}}
        result = engine.run()
        assert not aborts(result)
        assert result.scheduler_description["deadlocks_detected"] == 0
        assert result.metrics.committed == 1
        assert not waits._records and not waits._succ

    def test_an_aca_dirty_read_cycle_aborts_the_requester(self):
        # Under NTO's timestamp order a dirty-read wait runs from the younger
        # transaction to the older, so the cycle needs the certifier.
        base = object_base(
            t1=program(("a", "write", 1), ("b", "read")),
            t2=program(("b", "write", 2), ("a", "read")),
        )
        engine = scripted(base, "certifier", "t1", "t2", gate_mode="aca")
        engine.step("T1", "T1.1", "T1.1", "T2", "T2.1", "T2.1", "T1", "T2", "T1.2", "T2.2")
        result = engine.run()
        assert aborts(result)[0] == ("T2", "deadlock: wait cycle T2 -> T1 -> T2")
        assert result.metrics.aborts_by_reason["deadlock"] == 1
        assert result.scheduler_description["blocked_reads"] >= 1
        assert result.metrics.committed == 2

    def test_a_pure_commit_dependency_cycle_is_a_validation_failure(self):
        base = object_base(
            t1=program(("a", "write", 1), ("b", "read")),
            t2=program(("a", "read"), ("b", "write", 2)),
        )
        engine = scripted(base, "certifier", "t1", "t2")
        engine.step("T1", "T1.1", "T1.1", "T2", "T2.1", "T2.1", "T2", "T2.2", "T2.2")
        engine.step("T1", "T1.2", "T1.2", "T1", "T2")
        result = engine.run()
        assert aborts(result)[0] == (
            "T2", "validation failed: commit dependency cycle T2 -> T1 -> T2"
        )
        assert result.metrics.aborts_by_reason["validation"] >= 1
        assert "deadlock" not in result.metrics.aborts_by_reason
        assert result.metrics.committed == 2

    def test_a_commit_wait_closing_a_lock_wait_cycle_is_a_deadlock(self):
        # "a" runs timestamp ordering (T1 reads T2's uncommitted write), "b"
        # locking (T2 waits for T1's lock); T1's commit wait closes the cycle.
        base = object_base(
            t1=program(("b", "write", 1), ("a", "read")),
            t2=program(("a", "write", 2), ("b", "write", 2)),
        )
        engine = scripted(base, "modular", "t1", "t2", per_object_strategy={"a": "timestamp"})
        engine.step("T1", "T1.1", "T1.1", "T2", "T2.1", "T2.1", "T1", "T1.2", "T1.2")
        engine.step("T2", "T2.2", "T1")
        result = engine.run()
        assert aborts(result)[0] == ("T1", "deadlock: wait cycle T1 -> T2 -> T1")
        assert result.scheduler_description["deadlocks_detected"] == 1
        assert result.metrics.aborts_by_reason["deadlock"] == 1
        assert result.metrics.committed == 2


def configurations():
    for name, factory in SCHEDULER_FACTORIES.items():
        if "gate_mode" in inspect.signature(factory).parameters:
            for mode in GATE_MODES:
                yield name, {"gate_mode": mode}
        else:
            yield name, {}


WORKLOADS = {
    "random-ops": {
        "transactions": 8, "registers": 4, "write_fraction": 0.7,
        "nesting_depth": 2, "parallel_fanout": 2,
    },
    "hotspot": {"transactions": 12, "hot_objects": 2, "cold_objects": 4, "hot_probability": 0.8},
}


class TestNoWaitCycleOutlivesADecision:
    @pytest.mark.parametrize(
        "scheduler,kwargs,workload",
        [
            (name, kwargs, workload)
            for (name, kwargs), workload in itertools.product(configurations(), WORKLOADS)
        ],
    )
    def test_parked_waits_stay_acyclic(self, scheduler, kwargs, workload):
        for seed in range(4):
            base, specs = make_workload(workload, seed=seed, **WORKLOADS[workload]).build()
            engine = WaitsCheckedEngine(
                base, make_scheduler(scheduler, restart_policy="backoff", **kwargs), seed=seed
            )
            engine.submit_all(specs)
            metrics = engine.run().metrics
            assert metrics.committed + metrics.gave_up == metrics.submitted
