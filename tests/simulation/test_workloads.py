"""Tests for the workload generators."""

import pytest

from repro.core.errors import WorkloadError
from repro.scheduler import make_scheduler
from repro.simulation import (
    BankingWorkload,
    BTreeWorkload,
    HotspotWorkload,
    MixedWorkload,
    QueueWorkload,
    RandomOperationsWorkload,
    SimulationEngine,
)


def run_workload(workload, scheduler_name="n2pl", seed=0, **scheduler_kwargs):
    base, specs = workload.build()
    engine = SimulationEngine(base, make_scheduler(scheduler_name, **scheduler_kwargs), seed=seed)
    engine.submit_all(specs)
    return engine.run()


class TestBankingWorkload:
    def test_builds_expected_objects(self):
        workload = BankingWorkload(accounts=6, branches=2, transactions=10, seed=1)
        base, specs = workload.build()
        names = base.object_names()
        assert sum(1 for name in names if name.startswith("account-")) == 6
        assert sum(1 for name in names if name.startswith("teller-")) == 2
        assert len(specs) == 10

    def test_deterministic_for_fixed_seed(self):
        first = list(BankingWorkload(transactions=12, seed=9).iter_transactions())
        second = list(BankingWorkload(transactions=12, seed=9).iter_transactions())
        assert [(spec.method_name, spec.arguments) for spec in first] == [
            (spec.method_name, spec.arguments) for spec in second
        ]

    def test_transfers_preserve_total_balance(self):
        workload = BankingWorkload(
            accounts=6, transactions=15, transfer_fraction=0.8, payroll_fraction=0.0, seed=4
        )
        result = run_workload(workload)
        assert result.metrics.gave_up == 0
        finals = result.final_states()
        total = sum(
            finals[name]["balance"] for name in finals if name.startswith("account-")
        )
        assert total == pytest.approx(workload.expected_total_balance())

    def test_invalid_parameters_rejected(self):
        with pytest.raises(WorkloadError):
            BankingWorkload(accounts=1)
        with pytest.raises(WorkloadError):
            BankingWorkload(transfer_fraction=0.9, payroll_fraction=0.9)

    def test_hot_fraction_concentrates_accesses(self):
        workload = BankingWorkload(accounts=10, transactions=40, hot_fraction=1.0, seed=2)
        specs = workload.iter_transactions()
        transfer_sources = [
            spec.arguments[0] for spec in specs if spec.method_name == "transfer"
        ]
        assert transfer_sources and all(source == "account-000" for source in transfer_sources)


class TestQueueWorkload:
    def test_builds_queues_and_mix(self):
        workload = QueueWorkload(queues=3, producers=5, consumers=4, seed=3)
        base, specs = workload.build()
        assert len([name for name in base.object_names() if name.startswith("queue-")]) == 3
        assert len(specs) == 9
        assert workload.total_items_produced() == 15

    def test_produced_items_are_unique(self):
        workload = QueueWorkload(producers=6, consumers=0, items_per_transaction=4, seed=1)
        specs = workload.iter_transactions()
        items = [item for spec in specs for item in spec.arguments[1]]
        assert len(items) == len(set(items))

    def test_conservation_of_items(self):
        workload = QueueWorkload(queues=2, producers=6, consumers=6, initial_depth=5, seed=8)
        result = run_workload(workload, "n2pl-step")
        assert result.metrics.gave_up == 0
        finals = result.final_states()
        remaining = sum(len(finals[name]["items"]) for name in finals if name.startswith("queue-"))
        # items remaining = initial + enqueued - dequeued; dequeues never
        # exceed initial + enqueued, so remaining is bounded accordingly.
        initial = workload.queues * workload.initial_depth
        assert 0 <= remaining <= initial + workload.total_items_produced()

    def test_requires_at_least_one_queue(self):
        with pytest.raises(WorkloadError):
            QueueWorkload(queues=0)


class TestHotspotWorkload:
    def test_contention_knob_validated(self):
        with pytest.raises(WorkloadError):
            HotspotWorkload(hot_probability=1.5)
        with pytest.raises(WorkloadError):
            HotspotWorkload(hot_objects=0)

    def test_high_contention_touches_hot_objects_only(self):
        workload = HotspotWorkload(transactions=10, hot_probability=1.0, hot_objects=2, seed=5)
        specs = workload.iter_transactions()
        registers = {name for spec in specs for name in spec.arguments[0]}
        assert registers <= {"hot-0", "hot-1"}

    def test_near_certain_contention_terminates(self):
        # hot_probability just below 1 leaves the cold pool reachable on
        # paper only; generation must settle for the two hot registers
        # instead of spinning for a third distinct name.
        workload = HotspotWorkload(
            transactions=3,
            hot_probability=0.9999999999999999,
            hot_objects=2,
            operations_per_transaction=3,
            seed=5,
        )
        specs = workload.iter_transactions()
        assert all(set(spec.arguments[0]) == {"hot-0", "hot-1"} for spec in specs)

    def test_zero_contention_touches_cold_objects_only(self):
        workload = HotspotWorkload(transactions=10, hot_probability=0.0, seed=5)
        specs = workload.iter_transactions()
        registers = {name for spec in specs for name in spec.arguments[0]}
        assert all(name.startswith("cold-") for name in registers)

    def test_runs_under_nto(self):
        workload = HotspotWorkload(transactions=8, hot_probability=0.3, seed=6)
        result = run_workload(workload, "nto")
        assert result.metrics.committed + result.metrics.gave_up == 8


class TestBTreeWorkload:
    def test_builds_index_with_initial_keys(self):
        workload = BTreeWorkload(indexes=2, initial_keys=20, key_space=50, seed=7)
        base, _ = workload.build()
        assert len([name for name in base.object_names() if name.startswith("index-")]) == 2

    def test_parameter_validation(self):
        with pytest.raises(WorkloadError):
            BTreeWorkload(read_fraction=0.9, scan_fraction=0.5)
        with pytest.raises(WorkloadError):
            BTreeWorkload(initial_keys=100, key_space=10)

    def test_runs_and_commits_under_n2pl(self):
        workload = BTreeWorkload(transactions=10, seed=2)
        result = run_workload(workload)
        assert result.metrics.committed == 10


class TestMixedWorkload:
    def test_builds_heterogeneous_objects(self):
        workload = MixedWorkload(customers=4, transactions=8, seed=3)
        base, specs = workload.build()
        names = base.object_names()
        assert "catalogue" in names and "shipping-queue" in names and "audit-log" in names
        assert len(specs) == 8

    def test_strategy_map_covers_all_stateful_objects(self):
        workload = MixedWorkload(customers=3, seed=1)
        strategies = workload.modular_strategy_map()
        assert strategies["catalogue"] == "btree-key-locking"
        assert all(
            strategies[f"customer-{index:03d}"] == "locking" for index in range(3)
        )

    def test_runs_under_modular_scheduler(self):
        workload = MixedWorkload(customers=4, transactions=10, seed=5)
        result = run_workload(
            workload, "modular", per_object_strategy=workload.modular_strategy_map()
        )
        assert result.metrics.committed + result.metrics.gave_up == 10

    def test_mix_fraction_validation(self):
        with pytest.raises(WorkloadError):
            MixedWorkload(order_fraction=0.8, restock_fraction=0.5)


class TestRandomOperationsWorkload:
    def test_parameter_validation(self):
        with pytest.raises(WorkloadError):
            RandomOperationsWorkload(nesting_depth=0)
        with pytest.raises(WorkloadError):
            RandomOperationsWorkload(parallel_fanout=0)
        with pytest.raises(WorkloadError):
            RandomOperationsWorkload(write_fraction=2.0)

    def test_nesting_depth_materialises_in_history(self):
        workload = RandomOperationsWorkload(transactions=3, nesting_depth=3, seed=4)
        result = run_workload(workload)
        depths = [
            result.history.level(execution_id) for execution_id in result.history.execution_ids()
        ]
        assert max(depths) == 3

    def test_parallel_fanout_creates_unordered_siblings(self):
        workload = RandomOperationsWorkload(
            transactions=2, parallel_fanout=2, operations_per_transaction=4, seed=4
        )
        result = run_workload(workload)
        history = result.history
        has_parallel_pair = False
        for top in history.top_level_executions():
            messages = history.execution(top).message_steps()
            if len(messages) >= 2 and not history.execution(top).program_precedes(
                messages[0], messages[1]
            ):
                has_parallel_pair = True
        assert has_parallel_pair

    def test_deterministic_for_fixed_seed(self):
        first = list(RandomOperationsWorkload(transactions=5, seed=11).iter_transactions())
        second = list(RandomOperationsWorkload(transactions=5, seed=11).iter_transactions())
        assert [spec.arguments for spec in first] == [spec.arguments for spec in second]
