"""Unit tests for the lock manager (rules 2 and 5 of N2PL)."""

from repro.core import PerObjectConflicts, ReadWriteConflictSpec
from repro.core.operations import LocalStep, ReadVariable, WriteVariable
from repro.objectbase.adts.fifo_queue import Dequeue, Enqueue, FifoQueueStepConflicts
from repro.scheduler.locks import LockManager

from tests.scheduler.conftest import child_of, info


def read_write_manager(step_level=False):
    return LockManager(PerObjectConflicts(default=ReadWriteConflictSpec()), step_level=step_level)


class TestLockAcquisition:
    def test_compatible_locks_granted_to_different_transactions(self):
        manager = read_write_manager()
        first = manager.request("A", ReadVariable("x"), info("T1"))
        second = manager.request("A", ReadVariable("x"), info("T2"))
        assert first.granted and second.granted
        assert manager.lock_count() == 2

    def test_conflicting_lock_blocked_and_nothing_recorded(self):
        manager = read_write_manager()
        assert manager.request("A", WriteVariable("x", 1), info("T1")).granted
        outcome = manager.request("A", ReadVariable("x"), info("T2"))
        assert not outcome.granted
        assert outcome.blockers == {"T1"}
        # T2's refused lock is not in the table: T1's is the only one, and
        # a third writer waits for T1 alone.
        assert manager.lock_count() == 1
        assert manager.request("A", WriteVariable("x", 3), info("T3")).blockers == {"T1"}

    def test_conflicting_lock_of_ancestor_does_not_block(self):
        manager = read_write_manager()
        parent = info("T1")
        child = child_of(parent, "T1.1", "A")
        assert manager.request("A", WriteVariable("x", 1), parent).granted
        # Rule 2: the only conflicting holder is an ancestor of the child.
        assert manager.request("A", WriteVariable("x", 2), child).granted

    def test_conflicting_lock_of_sibling_blocks(self):
        manager = read_write_manager()
        parent = info("T1")
        first_child = child_of(parent, "T1.1", "A")
        second_child = child_of(parent, "T1.2", "A")
        assert manager.request("A", WriteVariable("x", 1), first_child).granted
        outcome = manager.request("A", WriteVariable("x", 2), second_child)
        assert not outcome.granted
        assert outcome.blockers == {"T1.1"}

    def test_locks_on_different_objects_do_not_interact(self):
        manager = read_write_manager()
        assert manager.request("A", WriteVariable("x", 1), info("T1")).granted
        assert manager.request("B", WriteVariable("x", 1), info("T2")).granted

    def test_own_lock_is_never_a_blocker(self):
        manager = read_write_manager()
        requester = info("T1")
        assert manager.request("A", WriteVariable("x", 1), requester).granted
        assert manager.request("A", WriteVariable("x", 2), requester).granted


class TestStepLevelLocks:
    def queue_manager(self):
        registry = PerObjectConflicts({"queue": FifoQueueStepConflicts()})
        return LockManager(registry, step_level=True)

    def test_enqueue_and_nonmatching_dequeue_do_not_block(self):
        manager = self.queue_manager()
        enqueue_step = LocalStep("T1", "queue", Enqueue("new-item"), None)
        dequeue_step = LocalStep("T2", "queue", Dequeue(), "old-item")
        assert manager.request("queue", enqueue_step, info("T1")).granted
        assert manager.request("queue", dequeue_step, info("T2")).granted

    def test_enqueue_blocks_dequeue_of_same_item(self):
        manager = self.queue_manager()
        enqueue_step = LocalStep("T1", "queue", Enqueue("new-item"), None)
        dequeue_step = LocalStep("T2", "queue", Dequeue(), "new-item")
        assert manager.request("queue", enqueue_step, info("T1")).granted
        outcome = manager.request("queue", dequeue_step, info("T2"))
        assert not outcome.granted


class TestReleaseAndInheritance:
    def test_release_all_frees_blockers(self):
        manager = read_write_manager()
        assert manager.request("A", WriteVariable("x", 1), info("T1")).granted
        assert not manager.request("A", WriteVariable("x", 2), info("T2")).granted
        freed = manager.release_all("T1")
        assert freed == frozenset({"T1"})
        assert manager.lock_count() == 0
        assert manager.request("A", WriteVariable("x", 2), info("T2")).granted

    def test_release_all_without_locks_frees_nothing(self):
        manager = read_write_manager()
        # No wake-up key must be produced for an owner that held nothing:
        # waking waiters on a no-op release would reintroduce busy polling.
        assert manager.release_all("T1") == frozenset()
        assert manager.transfer("T1.1", "T1") == frozenset()

    def test_transfer_moves_ownership_to_parent(self):
        manager = read_write_manager()
        parent = info("T1")
        child = child_of(parent, "T1.1", "A")
        assert manager.request("A", WriteVariable("x", 1), child).granted
        freed = manager.transfer(child.execution_id, parent.execution_id)
        assert freed == frozenset({"T1.1"})
        # The one lock is the parent's now: an unrelated writer waits for T1.
        assert manager.lock_count() == 1
        assert manager.request("A", WriteVariable("x", 3), info("T2")).blockers == {"T1"}
        # After inheritance the parent's other child can acquire the lock
        # because the only conflicting holder is now its ancestor.
        other_child = child_of(parent, "T1.2", "A")
        assert manager.request("A", WriteVariable("x", 2), other_child).granted

    def test_release_all_of_multiple_owners(self):
        manager = read_write_manager()
        assert manager.request("A", WriteVariable("x", 1), info("T1.1", top_level="T1")).granted
        assert manager.request("B", WriteVariable("x", 1), info("T1.2", top_level="T1")).granted
        assert manager.release_all_of(["T1.1", "T1.2"]) == frozenset({"T1.1", "T1.2"})
        assert manager.lock_count() == 0

    def test_owners_listing(self):
        manager = read_write_manager()
        manager.request("A", ReadVariable("x"), info("T1"))
        manager.request("A", ReadVariable("x"), info("T2"))
        # Both readers own a lock: a writer waits for each of them.
        assert manager.lock_count() == 2
        assert manager.request("A", WriteVariable("x", 1), info("T3")).blockers == {"T1", "T2"}
