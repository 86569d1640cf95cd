"""Unit tests for nested timestamp ordering (Reed's algorithm)."""

import pytest

from repro.objectbase.adts.fifo_queue import Dequeue, Enqueue
from repro.objectbase.adts.register import ReadRegister, WriteRegister
from repro.scheduler import NestedTimestampOrdering, STEP_LEVEL
from repro.scheduler.base import Decision

from tests.scheduler.conftest import child_of, info, request


def make_scheduler(base, level="operation"):
    scheduler = NestedTimestampOrdering(level=level)
    scheduler.attach(base)
    return scheduler


def granted_and_recorded(scheduler, operation_request):
    response = scheduler.on_operation(operation_request)
    assert response.granted
    scheduler.on_operation_executed(operation_request)
    return response


class TestTimestampRuleOne:
    def test_operations_in_timestamp_order_are_granted(self, small_object_base):
        scheduler = make_scheduler(small_object_base)
        first, second = info("T1"), info("T2")
        scheduler.on_transaction_begin(first)
        scheduler.on_transaction_begin(second)
        granted_and_recorded(scheduler, request(first, "cell", WriteRegister(1), 1))
        granted_and_recorded(scheduler, request(second, "cell", WriteRegister(2), 2))

    def test_late_conflicting_operation_aborts(self, small_object_base):
        scheduler = make_scheduler(small_object_base)
        first, second = info("T1"), info("T2")
        scheduler.on_transaction_begin(first)
        scheduler.on_transaction_begin(second)
        # The younger transaction writes first; the older one then arrives
        # "too late" and must abort.
        granted_and_recorded(scheduler, request(second, "cell", WriteRegister(2), 2))
        response = scheduler.on_operation(request(first, "cell", WriteRegister(1)))
        assert response.decision is Decision.ABORT
        assert "timestamp" in response.reason
        assert scheduler.timestamp_aborts == 1

    def test_non_conflicting_late_operation_is_granted(self, small_object_base):
        scheduler = make_scheduler(small_object_base)
        first, second = info("T1"), info("T2")
        scheduler.on_transaction_begin(first)
        scheduler.on_transaction_begin(second)
        granted_and_recorded(scheduler, request(second, "cell", ReadRegister(), 0))
        # Reads do not conflict with reads, so the older reader proceeds.
        assert scheduler.on_operation(request(first, "cell", ReadRegister())).granted

    def test_comparable_executions_never_abort_each_other(self, small_object_base):
        scheduler = make_scheduler(small_object_base)
        parent = info("T1")
        scheduler.on_transaction_begin(parent)
        child = child_of(parent, "T1.1", "cell")
        scheduler.on_invoke(parent, child)
        granted_and_recorded(scheduler, request(child, "cell", WriteRegister(1), 1))
        # The parent's timestamp is a prefix of the child's; although the
        # child's record is "later", the parent must not abort (they are
        # comparable executions).
        assert scheduler.on_operation(request(parent, "cell", ReadRegister())).granted


class TestTimestampRuleTwo:
    def test_sequential_children_get_increasing_timestamps(self, small_object_base):
        scheduler = make_scheduler(small_object_base)
        parent = info("T1")
        scheduler.on_transaction_begin(parent)
        first_child = child_of(parent, "T1.1", "cell")
        second_child = child_of(parent, "T1.2", "cell")
        scheduler.on_invoke(parent, first_child)
        scheduler.on_invoke(parent, second_child)
        assert scheduler.authority.timestamp_of("T1.1") < scheduler.authority.timestamp_of("T1.2")

    def test_restarted_transaction_gets_fresh_later_timestamp(self, small_object_base):
        scheduler = make_scheduler(small_object_base)
        first = info("T1")
        scheduler.on_transaction_begin(first)
        retry = info("T3")
        scheduler.on_transaction_begin(retry)
        assert scheduler.authority.timestamp_of("T1") < scheduler.authority.timestamp_of("T3")


class TestStepLevelVariant:
    def test_enqueue_then_unrelated_dequeue_is_granted(self, small_object_base):
        scheduler = make_scheduler(small_object_base, level=STEP_LEVEL)
        younger, older = info("T2"), info("T1")
        scheduler.on_transaction_begin(older)
        scheduler.on_transaction_begin(younger)
        enqueue = request(younger, "queue", Enqueue("fresh"), provisional_value=None)
        granted_and_recorded(scheduler, enqueue)
        # The older consumer dequeues the seed item, which does not conflict
        # with the younger producer's enqueue at the step level, so no abort.
        dequeue = request(older, "queue", Dequeue(), provisional_value="seed")
        assert scheduler.on_operation(dequeue).granted

    def test_operation_level_aborts_the_same_pair(self, small_object_base):
        scheduler = make_scheduler(small_object_base, level="operation")
        younger, older = info("T2"), info("T1")
        scheduler.on_transaction_begin(older)
        scheduler.on_transaction_begin(younger)
        granted_and_recorded(scheduler, request(younger, "queue", Enqueue("fresh")))
        response = scheduler.on_operation(
            request(older, "queue", Dequeue(), provisional_value="seed")
        )
        assert response.decision is Decision.ABORT


class TestLifecycle:
    def test_abort_forgets_child_timestamps_but_keeps_records(self, small_object_base):
        scheduler = make_scheduler(small_object_base)
        parent = info("T1")
        scheduler.on_transaction_begin(parent)
        child = child_of(parent, "T1.1", "cell")
        scheduler.on_invoke(parent, child)
        granted_and_recorded(scheduler, request(child, "cell", WriteRegister(1), 1))
        scheduler.on_transaction_abort(parent, ("T1", "T1.1"))
        assert not scheduler.authority.knows("T1.1")
        assert scheduler.describe()["recorded_steps"] == 1

    def test_describe_and_invalid_level(self, small_object_base):
        scheduler = make_scheduler(small_object_base, level=STEP_LEVEL)
        assert scheduler.describe()["name"] == "nto"
        assert scheduler.describe()["level"] == STEP_LEVEL
        with pytest.raises(ValueError):
            NestedTimestampOrdering(level="bogus")

    def test_never_blocks(self, small_object_base):
        scheduler = make_scheduler(small_object_base)
        first, second = info("T1"), info("T2")
        scheduler.on_transaction_begin(first)
        scheduler.on_transaction_begin(second)
        granted_and_recorded(scheduler, request(first, "cell", WriteRegister(1), 1))
        response = scheduler.on_operation(request(second, "cell", WriteRegister(2)))
        # NTO either grants or aborts; it never blocks (deadlock freedom).
        assert response.decision in (Decision.GRANT, Decision.ABORT)
        assert not response.blocked
