"""Unit tests for nested two-phase locking (Moss' algorithm)."""

import itertools

from repro.core.operations import ReadVariable
from repro.objectbase.adts.bank_account import Deposit, Withdraw
from repro.objectbase.adts.fifo_queue import Dequeue, Enqueue
from repro.objectbase.adts.register import ReadRegister, WriteRegister
from repro.scheduler import NestedTwoPhaseLocking, STEP_LEVEL
from repro.scheduler import make_scheduler as make_registry_scheduler
from repro.simulation import SimulationEngine, make_workload

from tests.scheduler.conftest import child_of, info, request


def make_scheduler(base, level="operation"):
    scheduler = NestedTwoPhaseLocking(level=level)
    scheduler.attach(base)
    return scheduler


class TestRuleTwo:
    def test_compatible_requests_granted(self, small_object_base):
        scheduler = make_scheduler(small_object_base)
        first, second = info("T1"), info("T2")
        scheduler.on_transaction_begin(first)
        scheduler.on_transaction_begin(second)
        assert scheduler.on_operation(request(first, "cell", ReadRegister())).granted
        assert scheduler.on_operation(request(second, "cell", ReadRegister())).granted

    def test_conflicting_request_blocks(self, small_object_base):
        scheduler = make_scheduler(small_object_base)
        first, second = info("T1"), info("T2")
        scheduler.on_transaction_begin(first)
        scheduler.on_transaction_begin(second)
        assert scheduler.on_operation(request(first, "cell", WriteRegister(1))).granted
        response = scheduler.on_operation(request(second, "cell", ReadRegister()))
        assert response.blocked
        assert "T1" in response.blockers
        assert scheduler.blocked_requests == 1

    def test_ancestor_holding_conflicting_lock_does_not_block(self, small_object_base):
        scheduler = make_scheduler(small_object_base)
        parent = info("T1")
        scheduler.on_transaction_begin(parent)
        child = child_of(parent, "T1.1", "cell")
        scheduler.on_invoke(parent, child)
        assert scheduler.on_operation(request(parent, "cell", WriteRegister(1))).granted
        assert scheduler.on_operation(request(child, "cell", WriteRegister(2))).granted


class TestLockInheritance:
    def test_sibling_blocked_until_child_completes(self, small_object_base):
        scheduler = make_scheduler(small_object_base)
        parent = info("T1")
        scheduler.on_transaction_begin(parent)
        first_child = child_of(parent, "T1.1", "cell")
        second_child = child_of(parent, "T1.2", "cell")
        scheduler.on_invoke(parent, first_child)
        scheduler.on_invoke(parent, second_child)
        assert scheduler.on_operation(request(first_child, "cell", WriteRegister(1))).granted
        assert scheduler.on_operation(request(second_child, "cell", WriteRegister(2))).blocked
        # Rule 5: when the first child completes its locks move to the parent,
        # which is an ancestor of the second child, so the retry succeeds.
        scheduler.on_execution_complete(first_child)
        assert scheduler.on_operation(request(second_child, "cell", WriteRegister(2))).granted

    def test_commit_releases_all_locks(self, small_object_base):
        scheduler = make_scheduler(small_object_base)
        first, second = info("T1"), info("T2")
        scheduler.on_transaction_begin(first)
        scheduler.on_transaction_begin(second)
        assert scheduler.on_operation(request(first, "cell", WriteRegister(1))).granted
        assert scheduler.on_operation(request(second, "cell", WriteRegister(2))).blocked
        scheduler.on_transaction_commit(first)
        assert scheduler.on_operation(request(second, "cell", WriteRegister(2))).granted

    def test_abort_releases_subtree_locks(self, small_object_base):
        scheduler = make_scheduler(small_object_base)
        parent = info("T1")
        scheduler.on_transaction_begin(parent)
        child = child_of(parent, "T1.1", "cell")
        scheduler.on_invoke(parent, child)
        assert scheduler.on_operation(request(child, "cell", WriteRegister(1))).granted
        other = info("T2")
        scheduler.on_transaction_begin(other)
        assert scheduler.on_operation(request(other, "cell", WriteRegister(5))).blocked
        scheduler.on_transaction_abort(parent, ("T1", "T1.1"))
        assert scheduler.on_operation(request(other, "cell", WriteRegister(5))).granted


def run_random_ops(scheduler, *, seed, transactions=8, record_trace=False, **params):
    base, specs = make_workload(
        "random-ops", transactions=transactions, registers=4, seed=seed, **params
    ).build()
    engine = SimulationEngine(
        base,
        make_registry_scheduler(scheduler, restart_policy="backoff"),
        seed=seed,
        record_trace=record_trace,
    )
    engine.submit_all(specs)
    return engine.run()


class TestSiblingDeadlocksInRuns:
    def test_two_branches_of_t3_deadlock_and_t3_aborts(self):
        # At tick 156 T3.1.1.2 is parked on T3.2.1 (holding register-000)
        # and T3.2.1.2 on T3.1.1 (holding register-003), while T2 waits on
        # both: neither branch of T3 can ever finish.
        result = run_random_ops(
            "n2pl",
            seed=7,
            transactions=6,
            record_trace=True,
            write_fraction=0.7,
            nesting_depth=3,
            parallel_fanout=2,
        )
        sibling_aborts = [
            event
            for event in result.trace.of_kind("aborted")
            if event.execution_id == "T3" and event.detail.startswith("deadlock: wait cycle T3.")
        ]
        assert sibling_aborts and sibling_aborts[0].tick <= 160
        assert result.metrics.forced_wakes == 0
        assert result.metrics.committed == 6
        assert result.metrics.total_ticks == 223

    def test_nested_parallel_grid_never_wedges(self):
        # 160 runs, 16 of which meet a deadlock between parallel branches.
        for cell in itertools.product(("n2pl", "n2pl-step"), (2, 3), (2, 3), range(20)):
            scheduler, depth, fanout, seed = cell
            metrics = run_random_ops(
                scheduler, seed=seed, write_fraction=0.7, nesting_depth=depth, parallel_fanout=fanout
            ).metrics
            assert metrics.committed == 8, cell
            assert set(metrics.aborts_by_reason) <= {"deadlock"}, cell
            assert metrics.forced_wakes == 0, cell


class TestStepLevelLocking:
    def test_queue_enqueue_does_not_block_unrelated_dequeue(self, small_object_base):
        scheduler = make_scheduler(small_object_base, level=STEP_LEVEL)
        producer, consumer = info("T1"), info("T2")
        scheduler.on_transaction_begin(producer)
        scheduler.on_transaction_begin(consumer)
        enqueue = request(producer, "queue", Enqueue("fresh"), provisional_value=None)
        dequeue = request(consumer, "queue", Dequeue(), provisional_value="seed")
        assert scheduler.on_operation(enqueue).granted
        assert scheduler.on_operation(dequeue).granted

    def test_operation_level_blocks_the_same_pair(self, small_object_base):
        scheduler = make_scheduler(small_object_base, level="operation")
        producer, consumer = info("T1"), info("T2")
        scheduler.on_transaction_begin(producer)
        scheduler.on_transaction_begin(consumer)
        assert scheduler.on_operation(request(producer, "queue", Enqueue("fresh"))).granted
        assert scheduler.on_operation(
            request(consumer, "queue", Dequeue(), provisional_value="seed")
        ).blocked

    def test_bank_account_withdraw_then_deposit_coexist(self, small_object_base):
        scheduler = make_scheduler(small_object_base, level=STEP_LEVEL)
        first, second = info("T1"), info("T2")
        scheduler.on_transaction_begin(first)
        scheduler.on_transaction_begin(second)
        withdraw = request(first, "acct", Withdraw(10), provisional_value=True)
        deposit = request(second, "acct", Deposit(5), provisional_value=None)
        assert scheduler.on_operation(withdraw).granted
        assert scheduler.on_operation(deposit).granted


class TestDescribe:
    def test_describe_reports_configuration(self, small_object_base):
        scheduler = make_scheduler(small_object_base, level=STEP_LEVEL)
        description = scheduler.describe()
        assert description["name"] == "n2pl"
        assert description["level"] == STEP_LEVEL
        assert description["deadlocks_detected"] == 0

    def test_invalid_level_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            NestedTwoPhaseLocking(level="bogus")

    def test_environment_operations_use_conservative_spec(self, small_object_base):
        scheduler = make_scheduler(small_object_base)
        first, second = info("T1"), info("T2")
        scheduler.on_transaction_begin(first)
        scheduler.on_transaction_begin(second)
        assert scheduler.on_operation(request(first, "environment", ReadVariable("x"))).granted
        assert scheduler.on_operation(request(second, "environment", ReadVariable("x"))).blocked
