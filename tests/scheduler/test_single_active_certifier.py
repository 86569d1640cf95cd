"""Unit tests for the single-active-object baseline and the optimistic certifier."""

from repro.analysis import certify_run
from repro.objectbase.adts.register import ReadRegister, WriteRegister
from repro.scheduler import OptimisticCertifier, SingleActiveObjectScheduler
from repro.scheduler.base import Decision
from repro.simulation import SimulationEngine, make_workload

from tests.scheduler.conftest import child_of, info, request


def make_single_active(base):
    scheduler = SingleActiveObjectScheduler()
    scheduler.attach(base)
    return scheduler


def make_certifier(base, level="step"):
    scheduler = OptimisticCertifier(level=level)
    scheduler.attach(base)
    return scheduler


class TestSingleActiveObject:
    def test_writers_of_same_object_exclude_each_other(self, small_object_base):
        scheduler = make_single_active(small_object_base)
        first, second = info("T1"), info("T2")
        assert scheduler.on_operation(request(first, "cell", WriteRegister(1))).granted
        response = scheduler.on_operation(request(second, "cell", WriteRegister(2)))
        assert response.blocked
        assert response.blockers == {"T1"}

    def test_readers_share_the_object(self, small_object_base):
        scheduler = make_single_active(small_object_base)
        first, second = info("T1"), info("T2")
        assert scheduler.on_operation(request(first, "cell", ReadRegister())).granted
        assert scheduler.on_operation(request(second, "cell", ReadRegister())).granted

    def test_reader_blocks_writer_and_vice_versa(self, small_object_base):
        scheduler = make_single_active(small_object_base)
        reader, writer = info("T1"), info("T2")
        assert scheduler.on_operation(request(reader, "cell", ReadRegister())).granted
        assert scheduler.on_operation(request(writer, "cell", WriteRegister(1))).blocked

    def test_even_commuting_operations_are_serialised(self, small_object_base):
        # The whole point of the baseline: it cannot see inside the object,
        # so operations that commute semantically still exclude each other.
        from repro.objectbase.adts.counter import AddToCounter

        scheduler = make_single_active(small_object_base)
        first, second = info("T1"), info("T2")
        assert scheduler.on_operation(request(first, "hits", AddToCounter(1))).granted
        assert scheduler.on_operation(request(second, "hits", AddToCounter(1))).blocked

    def test_nested_executions_of_same_transaction_share_the_lock(self, small_object_base):
        scheduler = make_single_active(small_object_base)
        parent = info("T1")
        child = child_of(parent, "T1.1", "cell")
        assert scheduler.on_operation(request(parent, "cell", WriteRegister(1))).granted
        assert scheduler.on_operation(request(child, "cell", WriteRegister(2))).granted

    def test_commit_releases_object_locks(self, small_object_base):
        scheduler = make_single_active(small_object_base)
        first, second = info("T1"), info("T2")
        assert scheduler.on_operation(request(first, "cell", WriteRegister(1))).granted
        assert scheduler.on_operation(request(second, "cell", WriteRegister(2))).blocked
        scheduler.on_transaction_commit(first)
        assert scheduler.on_operation(request(second, "cell", WriteRegister(2))).granted

    def test_lock_upgrade_from_shared_to_exclusive(self, small_object_base):
        scheduler = make_single_active(small_object_base)
        transaction = info("T1")
        assert scheduler.on_operation(request(transaction, "cell", ReadRegister())).granted
        assert scheduler.on_operation(request(transaction, "cell", WriteRegister(1))).granted
        other = info("T2")
        assert scheduler.on_operation(request(other, "cell", ReadRegister())).blocked

    def test_parallel_siblings_that_cross_their_orders_abort(self):
        # Two parallel halves of one transaction over two registers: object
        # locks cannot order them, so the sibling-order guard must abort the
        # step that would close a cycle among them, and what commits stays
        # serialisable and legal.
        base, specs = make_workload(
            "random-ops",
            registers=2,
            transactions=12,
            operations_per_transaction=6,
            parallel_fanout=2,
            seed=0,
        ).build()
        engine = SimulationEngine(base, SingleActiveObjectScheduler(), seed=0)
        engine.submit_all(specs)
        result = engine.run()
        assert result.scheduler_description["ordering_aborts"] > 0
        assert result.metrics.committed > 0
        report = certify_run(result, check_legality=True)
        assert report.serialisable and report.legal

class TestOptimisticCertifier:
    def run_step(self, scheduler, issuer, object_name, operation, value):
        operation_request = request(issuer, object_name, operation, value)
        assert scheduler.on_operation(operation_request).granted
        scheduler.on_operation_executed(operation_request)

    def test_everything_granted_during_execution(self, small_object_base):
        scheduler = make_certifier(small_object_base)
        first, second = info("T1"), info("T2")
        self.run_step(scheduler, first, "cell", WriteRegister(1), 1)
        self.run_step(scheduler, second, "cell", WriteRegister(2), 2)

    def test_compatible_transactions_both_commit(self, small_object_base):
        scheduler = make_certifier(small_object_base)
        first, second = info("T1"), info("T2")
        self.run_step(scheduler, first, "cell", WriteRegister(1), 1)
        self.run_step(scheduler, second, "other-cell", WriteRegister(2), 2)
        assert scheduler.on_commit_request(first).granted
        scheduler.on_transaction_commit(first)
        assert scheduler.on_commit_request(second).granted

    def test_cyclic_conflicts_abort_at_validation(self, small_object_base):
        scheduler = make_certifier(small_object_base)
        first, second = info("T1"), info("T2")
        # T1 and T2 conflict on both registers in opposite orders.
        self.run_step(scheduler, first, "cell", WriteRegister(1), 1)
        self.run_step(scheduler, second, "cell", WriteRegister(2), 2)
        self.run_step(scheduler, second, "other-cell", WriteRegister(2), 2)
        self.run_step(scheduler, first, "other-cell", WriteRegister(1), 1)
        assert scheduler.on_commit_request(first).granted
        scheduler.on_transaction_commit(first)
        response = scheduler.on_commit_request(second)
        assert response.decision is Decision.ABORT
        assert scheduler.validation_aborts == 1

    def test_aborted_transaction_steps_are_forgotten(self, small_object_base):
        scheduler = make_certifier(small_object_base)
        first, second = info("T1"), info("T2")
        self.run_step(scheduler, first, "cell", WriteRegister(1), 1)
        self.run_step(scheduler, second, "cell", WriteRegister(2), 2)
        self.run_step(scheduler, second, "other-cell", WriteRegister(2), 2)
        self.run_step(scheduler, first, "other-cell", WriteRegister(1), 1)
        scheduler.on_transaction_abort(second, ("T2",))
        # With T2's steps discarded, T1 validates cleanly.
        assert scheduler.on_commit_request(first).granted

    def test_describe_reports_validation_aborts(self, small_object_base):
        scheduler = make_certifier(small_object_base)
        description = scheduler.describe()
        assert description["name"] == "certifier"
        assert description["validation_aborts"] == 0

    def test_invalid_level_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            OptimisticCertifier(level="bogus")
