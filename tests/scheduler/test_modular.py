"""Unit tests for the modular (intra- + inter-object) scheduler."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import certify_run
from repro.objectbase.adts.counter import AddToCounter
from repro.objectbase.adts.register import ReadRegister, WriteRegister
from repro.scheduler import ModularScheduler, make_scheduler
from repro.scheduler.base import Decision
from repro.scheduler.modular import (
    IntraObjectLocking,
    IntraObjectTimestampOrdering,
    disjoint_ancestors,
)

from repro.simulation import SimulationEngine
from repro.simulation.workloads.random_ops import RandomOperationsWorkload

from tests.oracles.modular import disjoint_ancestors_by_chains
from tests.scheduler.conftest import child_of, info, request


def attach(base, **kwargs):
    scheduler = ModularScheduler(**kwargs)
    scheduler.attach(base)
    return scheduler


def run_step(scheduler, issuer, object_name, operation, value):
    operation_request = request(issuer, object_name, operation, value)
    response = scheduler.on_operation(operation_request)
    if response.granted:
        scheduler.on_operation_executed(operation_request)
    return response


class TestDisjointAncestors:
    def test_top_level_pair(self):
        first, second = info("T1"), info("T2")
        assert disjoint_ancestors(first, second) == ("T1", "T2")

    def test_children_of_different_transactions(self):
        first = child_of(info("T1"), "T1.1", "A")
        second = child_of(info("T2"), "T2.1", "B")
        assert disjoint_ancestors(first, second) == ("T1", "T2")

    def test_siblings_under_common_parent(self):
        parent = info("T1")
        first = child_of(parent, "T1.1", "A")
        second = child_of(parent, "T1.2", "B")
        assert disjoint_ancestors(first, second) == ("T1.1", "T1.2")

    def test_comparable_executions_return_none(self):
        parent = info("T1")
        child = child_of(parent, "T1.1", "A")
        grandchild = child_of(child, "T1.1.1", "B")
        assert disjoint_ancestors(parent, child) is None
        assert disjoint_ancestors(grandchild, parent) is None

    def test_nephew_versus_uncle(self):
        parent = info("T1")
        uncle = child_of(parent, "T1.1", "A")
        sibling = child_of(parent, "T1.2", "B")
        nephew = child_of(sibling, "T1.2.1", "C")
        assert disjoint_ancestors(nephew, uncle) == ("T1.2", "T1.1")

    @settings(max_examples=200, deadline=None)
    @given(
        parents=st.lists(st.integers(-1, 10), min_size=1, max_size=12),
        picks=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), min_size=1, max_size=8),
    )
    def test_equals_the_chain_walk(self, parents, picks):
        # A forest: execution i is a top level when its drawn parent is
        # negative or not an earlier execution, else a child of that one.
        executions = []
        for index, parent in enumerate(parents):
            if 0 <= parent < index:
                parent_info = executions[parent]
                executions.append(child_of(parent_info, f"{parent_info.execution_id}.{index}", "A"))
            else:
                executions.append(info(f"T{index}"))
        for first, second in picks:
            pair = (executions[first % len(executions)], executions[second % len(executions)])
            assert disjoint_ancestors(*pair) == disjoint_ancestors_by_chains(*pair)


class TestIntraObjectSynchronisers:
    def test_locking_blocks_conflicting_transactions(self, small_object_base):
        registry = small_object_base.conflicts("step")
        synchroniser = IntraObjectLocking("cell", registry["cell"])
        first = request(info("T1"), "cell", WriteRegister(1), 1)
        second = request(info("T2"), "cell", WriteRegister(2), 2)
        assert synchroniser.on_operation(first).granted
        blocked = synchroniser.on_operation(second)
        assert blocked.blocked and blocked.blockers == {"T1"}
        synchroniser.on_transaction_finished("T1", committed=True)
        assert synchroniser.on_operation(second).granted

    def test_locking_ignores_commuting_operations(self, small_object_base):
        registry = small_object_base.conflicts("step")
        synchroniser = IntraObjectLocking("hits", registry["hits"])
        assert synchroniser.on_operation(request(info("T1"), "hits", AddToCounter(1))).granted
        assert synchroniser.on_operation(request(info("T2"), "hits", AddToCounter(1))).granted

    def test_timestamp_ordering_aborts_latecomers(self, small_object_base):
        registry = small_object_base.conflicts("step")
        synchroniser = IntraObjectTimestampOrdering("cell", registry["cell"])
        # T1 arrives at the object first (smaller local timestamp) with a
        # read, T2 then writes; when T1 comes back with a conflicting write
        # it is "too late" with respect to T2's recorded write and aborts.
        first_read = request(info("T1"), "cell", ReadRegister(), 0)
        assert synchroniser.on_operation(first_read).granted
        synchroniser.on_operation_executed(first_read)
        second_write = request(info("T2"), "cell", WriteRegister(2), 2)
        assert synchroniser.on_operation(second_write).granted
        synchroniser.on_operation_executed(second_write)
        response = synchroniser.on_operation(request(info("T1"), "cell", WriteRegister(1), 1))
        assert response.aborted


class TestModularScheduler:
    def test_strategy_selection_per_object(self, small_object_base):
        scheduler = attach(
            small_object_base,
            default_strategy="locking",
            per_object_strategy={"hits": "timestamp"},
        )
        strategies = scheduler.describe()["strategies"]
        assert strategies["hits"] == "timestamp"
        assert strategies["cell"] == "locking"

    def test_object_definition_hint_is_used(self):
        from repro.objectbase import ObjectBase
        from repro.objectbase.adts import btree_definition

        base = ObjectBase()
        base.register(btree_definition("idx"))
        scheduler = attach(base)
        assert scheduler.describe()["strategies"]["idx"] == "btree-key-locking"

    def test_inter_object_coordinator_aborts_incompatible_orders(self, small_object_base):
        scheduler = attach(small_object_base, default_strategy="timestamp")
        first, second = info("T1"), info("T2")
        scheduler.on_transaction_begin(first)
        scheduler.on_transaction_begin(second)
        # Object "cell" serialises T1 before T2; object "other-cell" would
        # serialise T2 before T1 -> the coordinator must abort someone.
        assert run_step(scheduler, first, "cell", WriteRegister(1), 1).granted
        assert run_step(scheduler, second, "cell", WriteRegister(2), 2).granted
        assert run_step(scheduler, second, "other-cell", WriteRegister(2), 2).granted
        response = run_step(scheduler, first, "other-cell", WriteRegister(1), 1)
        assert response.decision is Decision.ABORT
        assert "inter-object" in response.reason

    def test_intra_only_admits_incompatible_orders(self, small_object_base):
        scheduler = attach(
            small_object_base, default_strategy="timestamp", inter_object_checks=False
        )
        first, second = info("T1"), info("T2")
        scheduler.on_transaction_begin(first)
        scheduler.on_transaction_begin(second)
        assert run_step(scheduler, first, "cell", WriteRegister(1), 1).granted
        assert run_step(scheduler, second, "cell", WriteRegister(2), 2).granted
        assert run_step(scheduler, second, "other-cell", WriteRegister(2), 2).granted
        # Without inter-object checks the incompatible order goes unnoticed
        # (each object on its own is still serialisable).
        assert run_step(scheduler, first, "other-cell", WriteRegister(1), 1).granted
        # No coordinator is built: nothing records steps no check reads.
        assert scheduler._coordinator is None

    def test_abort_removes_coordinator_state(self, small_object_base):
        scheduler = attach(small_object_base, default_strategy="timestamp")
        first, second = info("T1"), info("T2")
        scheduler.on_transaction_begin(first)
        scheduler.on_transaction_begin(second)
        assert run_step(scheduler, first, "cell", WriteRegister(1), 1).granted
        assert run_step(scheduler, second, "cell", WriteRegister(2), 2).granted
        scheduler.on_transaction_abort(first, ("T1",))
        # T1's recorded step is gone, so a fresh transaction doing the
        # reverse order is no longer constrained by it.
        third = info("T3")
        scheduler.on_transaction_begin(third)
        assert run_step(scheduler, third, "other-cell", WriteRegister(9), 9).granted
        assert run_step(scheduler, third, "cell", WriteRegister(9), 9).granted

    def test_coordinator_indexes_hold_only_retained_steps(self, small_object_base):
        scheduler = attach(small_object_base, default_strategy="timestamp")
        coordinator = scheduler._coordinator
        first, second = info("T1"), info("T2")
        scheduler.on_transaction_begin(first)
        scheduler.on_transaction_begin(second)
        steps = coordinator._steps

        def objects_of():
            return {t: [name for name, _ in entries] for t, entries in steps._of.items()}

        # A check is a read: asking about an object nobody has stepped on
        # leaves no empty entry behind.
        assert scheduler.on_operation(request(first, "cell", ReadRegister(), 0)).granted
        assert steps._on == {} and steps._of == {} and len(steps) == 0
        assert run_step(scheduler, first, "cell", WriteRegister(1), 1).granted
        assert run_step(scheduler, second, "other-cell", WriteRegister(2), 2).granted
        assert objects_of() == {"T1": ["cell"], "T2": ["other-cell"]}
        assert [owner for owner, _ in steps.on("cell")] == ["T1"]
        # An abort touches only the aborted transaction's objects, and an
        # emptied entry is dropped, not kept.
        untouched = steps._on["other-cell"]
        scheduler.on_transaction_abort(first, ("T1",))
        assert set(steps._on) == {"other-cell"} and steps._on["other-cell"] is untouched
        assert objects_of() == {"T2": ["other-cell"]} and len(steps) == 1
        # Once resolved and unreachable from anything live, GC drops the rest.
        scheduler.on_transaction_commit(second)
        scheduler.collect_garbage()
        assert steps._on == {} and steps._of == {} and len(steps) == 0
        assert coordinator.live_state_size() == 0

    def test_only_synchronisers_that_saw_the_transaction_are_notified(self, small_object_base):
        class Recording(IntraObjectLocking):
            def __init__(self, *args):
                super().__init__(*args)
                self.events = []

            def on_transaction_finished(self, transaction_id, committed):
                super().on_transaction_finished(transaction_id, committed)
                self.events.append((transaction_id, committed))

        scheduler = attach(small_object_base, default_strategy="locking")
        for object_name in ("cell", "other-cell"):
            scheduler._synchronisers[object_name] = Recording(
                object_name, scheduler.conflicts_for(scheduler.level)[object_name]
            )
        first, second = info("T1"), info("T2")
        scheduler.on_transaction_begin(first)
        scheduler.on_transaction_begin(second)
        assert run_step(scheduler, first, "cell", WriteRegister(1), 1).granted
        assert run_step(scheduler, second, "other-cell", WriteRegister(2), 2).granted
        # A blocked request was still seen: the synchroniser may hold state.
        assert run_step(scheduler, second, "cell", WriteRegister(3), 3).blocked
        scheduler.on_transaction_commit(first)
        scheduler.on_transaction_abort(second, ("T2",))
        # Each hears each transaction's end once, with its outcome.
        assert scheduler.synchroniser_for("cell").events == [("T1", True), ("T2", False)]
        assert scheduler.synchroniser_for("other-cell").events == [("T2", False)]
        assert scheduler._objects_of == {}
        assert all(s.live_state_size() == 0 for s in scheduler._synchronisers.values())

    def test_describe_surfaces_the_kernel_counters(self, small_object_base):
        detached = ModularScheduler().describe()
        assert (detached["ordering_aborts"], detached["edge_inserts"]) == (0, 0)
        scheduler = attach(small_object_base, default_strategy="timestamp")
        first, second = info("T1"), info("T2")
        scheduler.on_transaction_begin(first)
        scheduler.on_transaction_begin(second)
        assert run_step(scheduler, first, "cell", WriteRegister(1), 1).granted
        assert run_step(scheduler, second, "cell", WriteRegister(2), 2).granted
        assert run_step(scheduler, second, "other-cell", WriteRegister(2), 2).granted
        assert run_step(scheduler, first, "other-cell", WriteRegister(1), 1).decision is Decision.ABORT
        description = scheduler.describe()
        assert description["ordering_aborts"] == description["rollbacks"] == 1
        assert description["edge_inserts"] == 1
        assert description["dfs_visits"] >= 1

    def test_commit_releases_intra_object_locks(self, small_object_base):
        scheduler = attach(small_object_base, default_strategy="locking")
        first, second = info("T1"), info("T2")
        scheduler.on_transaction_begin(first)
        scheduler.on_transaction_begin(second)
        assert run_step(scheduler, first, "cell", WriteRegister(1), 1).granted
        assert run_step(scheduler, second, "cell", WriteRegister(2), 2).blocked
        scheduler.on_transaction_commit(first)
        assert run_step(scheduler, second, "cell", WriteRegister(2), 2).granted

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            ModularScheduler(level="bogus")


class TestCoordinatorGcKeepsSiblingOrders:
    """ROADMAP 4(a): the frontier GC roots at every node a live transaction owns."""

    @pytest.mark.parametrize("collect", [False, True], ids=["no-gc", "gc-in-the-gap"])
    def test_gc_between_two_sibling_pairs_does_not_forget_the_first_order(
        self, small_object_base, collect
    ):
        # T1 is live with parallel children T1.1 and T1.2.  Both write
        # ``cell`` — T1.1 first — so the coordinator orders T1.1 -> T1.2.
        # Then T1.2 writes ``other-cell`` and T1.1 wants to: that needs
        # T1.2 -> T1.1 and must abort, with or without a GC pass in between.
        # Until PR 22 the pass rooted at live *top-level* ids only, dropped
        # both sibling nodes (returned 2) and the last write was GRANTed.
        scheduler = attach(small_object_base, default_strategy="certifier")
        root = info("T1")
        first, second = child_of(root, "T1.1", "cell"), child_of(root, "T1.2", "cell")
        scheduler.on_transaction_begin(root)
        assert run_step(scheduler, first, "cell", WriteRegister(1), 1).granted
        assert run_step(scheduler, second, "cell", WriteRegister(2), 2).granted
        if collect:
            assert scheduler._coordinator.collect_garbage() == 0
        assert run_step(scheduler, second, "other-cell", WriteRegister(3), 3).granted
        response = run_step(scheduler, first, "other-cell", WriteRegister(4), 4)
        assert response.decision is Decision.ABORT
        assert "inter-object ordering violation" in response.reason

    def test_a_finished_transactions_sibling_nodes_are_collected(self, small_object_base):
        # Rooting at sibling-level nodes must not pin them past resolution.
        scheduler = attach(small_object_base, default_strategy="certifier")
        root = info("T1")
        first, second = child_of(root, "T1.1", "cell"), child_of(root, "T1.2", "cell")
        scheduler.on_transaction_begin(root)
        assert run_step(scheduler, first, "cell", WriteRegister(1), 1).granted
        assert run_step(scheduler, second, "cell", WriteRegister(2), 2).granted
        assert scheduler._coordinator._live == {"T1": {"T1", "T1.1", "T1.2"}}
        scheduler.on_transaction_commit(root)
        scheduler.collect_garbage()
        assert scheduler._coordinator._live == {}
        assert scheduler._coordinator.live_state_size() == 0

    @staticmethod
    def run(scheduler_name, scheduler_kwargs, workload_seed, gc_interval):
        # Few registers, mostly writes, two parallel children per transaction:
        # siblings conflict with each other on several objects while other
        # transactions finish (and trigger GC passes) around them.
        base, specs = RandomOperationsWorkload(
            registers=3,
            transactions=8,
            operations_per_transaction=4,
            write_fraction=0.8,
            nesting_depth=2,
            parallel_fanout=2,
            seed=workload_seed,
        ).build()
        scheduler = make_scheduler(scheduler_name, restart_policy="backoff", **scheduler_kwargs)
        engine = SimulationEngine(base, scheduler, seed=workload_seed, gc_interval=gc_interval)
        engine.submit_all(specs)
        return engine.run()

    @settings(max_examples=30, deadline=None)
    @given(
        configuration=st.sampled_from(
            [("modular", {"default_strategy": "certifier"}), ("adaptive", {})]
        ),
        workload_seed=st.integers(0, 200),
        gc_interval=st.sampled_from([1, 4, 64]),
    )
    def test_decisions_equal_the_no_gc_run_and_the_history_certifies(
        self, configuration, workload_seed, gc_interval
    ):
        # At the parent of the fix, 68 of this grid's 240 cells with seeds
        # 0-39 diverged from the GC-off run, some committing a
        # non-serialisable history.
        scheduler_name, scheduler_kwargs = configuration
        collected = self.run(scheduler_name, scheduler_kwargs, workload_seed, gc_interval)
        reference = self.run(scheduler_name, scheduler_kwargs, workload_seed, 10**9)

        def decisions(result):
            metrics = {
                key: value
                for key, value in result.metrics.as_dict().items()
                if not key.startswith("live_state")
            }
            description = result.scheduler_description
            return (
                metrics,
                result.committed_transaction_ids,
                result.aborted_execution_ids,
                description["ordering_aborts"],
            )

        assert decisions(collected) == decisions(reference)
        report = certify_run(collected, check_legality=True)
        assert report.legal and report.serialisable and report.theorem5_holds


class TestFactory:
    def test_every_registered_name_instantiates(self, small_object_base):
        from repro.scheduler import scheduler_names

        for name in scheduler_names():
            scheduler = make_scheduler(name)
            scheduler.attach(small_object_base)
            assert scheduler.describe()["name"]

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            make_scheduler("definitely-not-a-scheduler")

    def test_level_argument_is_forwarded(self):
        scheduler = make_scheduler("n2pl", level="step")
        assert scheduler.level == "step"
        step_variant = make_scheduler("nto-step")
        assert step_variant.level == "step"

    def test_modular_intra_only_disables_checks(self):
        scheduler = make_scheduler("modular-intra-only")
        assert scheduler.inter_object_checks is False
