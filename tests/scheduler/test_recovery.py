"""Direct unit tests for :class:`repro.scheduler.recovery.CommitGate`.

The gate was previously only covered end-to-end (through NTO / certifier
/ modular engine runs); these tests drive its internals in isolation:
aborted-marker pruning once no live dependent remains, step-level vs
operation-level dependency induction, and the PR-4 ``aca`` mode
(execution-time read gating).  Its wait cycles are the run's waits-for
relation's, tested in engine runs in ``tests/scheduler/test_waits.py``.
"""

from __future__ import annotations

import pytest

from repro.core.operations import LocalStep
from repro.objectbase import ObjectBase
from repro.objectbase.adts import fifo_queue_definition, register_definition
from repro.objectbase.adts.fifo_queue import Dequeue, Enqueue
from repro.objectbase.adts.register import ReadRegister, WriteRegister
from repro.scheduler.recovery import ACA_MODE, CASCADE_MODE, CommitGate

from tests.scheduler.conftest import info


def register_gate(step_level: bool = False, mode: str = CASCADE_MODE) -> CommitGate:
    base = ObjectBase()
    base.register(register_definition("cell", 0))
    base.register(register_definition("other", 0))
    registry = base.conflicts("step" if step_level else "operation")
    return CommitGate(lambda name: registry[name], step_level=step_level, mode=mode)


def queue_gate(step_level: bool) -> CommitGate:
    base = ObjectBase()
    base.register(fifo_queue_definition("queue", ("seed",)))
    registry = base.conflicts("step" if step_level else "operation")
    return CommitGate(lambda name: registry[name], step_level=step_level, mode=CASCADE_MODE)


class TestCommitArbitration:
    def test_commit_waits_for_live_dependency_then_grants(self):
        gate = register_gate()
        gate.begin("T1")
        gate.begin("T2")
        gate.record_step("cell", WriteRegister(5), "T1")
        gate.record_step("cell", ReadRegister(), "T2")  # observed T1's write

        response = gate.check_commit("T2")
        assert response.blocked
        assert response.blockers == frozenset({"T1"})
        assert gate.commit_waits == 1

        gate.finish("T1", committed=True)
        assert gate.check_commit("T2").granted

    def test_commit_cascades_when_dependency_aborted(self):
        gate = register_gate()
        gate.begin("T1")
        gate.begin("T2")
        gate.record_step("cell", WriteRegister(5), "T1")
        gate.record_step("cell", ReadRegister(), "T2")

        gate.finish("T1", committed=False)
        response = gate.check_commit("T2")
        assert response.aborted
        assert "cascading abort" in response.reason
        assert gate.cascading_aborts == 1

    def test_read_only_steps_never_seed_dependencies(self):
        gate = register_gate()
        gate.begin("T1")
        gate.begin("T2")
        gate.record_step("cell", ReadRegister(), "T1")
        gate.record_step("cell", ReadRegister(), "T2")
        # Two conflicting-by-spec reads: nothing dirty could have been
        # transferred, so T2 commits without waiting for T1.
        assert gate.check_commit("T2").granted

class TestAbortedMarkerPruning:
    def test_marker_kept_while_a_live_dependent_references_it(self):
        gate = register_gate()
        gate.begin("T1")
        gate.begin("T2")
        gate.record_step("cell", WriteRegister(1), "T1")
        gate.record_step("cell", ReadRegister(), "T2")

        gate.finish("T1", committed=False)
        assert "T1" in gate._aborted  # T2 still references the marker

    def test_marker_pruned_once_no_live_dependent_remains(self):
        gate = register_gate()
        gate.begin("T1")
        gate.begin("T2")
        gate.record_step("cell", WriteRegister(1), "T1")
        gate.record_step("cell", ReadRegister(), "T2")

        gate.finish("T1", committed=False)
        gate.finish("T2", committed=False)  # the last dependent resolves
        assert gate._aborted == set()

    def test_marker_pruned_immediately_when_nothing_depends_on_it(self):
        gate = register_gate()
        gate.begin("T1")
        gate.record_step("cell", WriteRegister(1), "T1")
        gate.finish("T1", committed=False)
        assert gate._aborted == set()


class TestDependencyGranularity:
    """The queue's step spec ignores Enqueue→Dequeue pairs that moved
    different items; the operation spec has to assume they conflict."""

    @staticmethod
    def _drive(gate: CommitGate, step_level: bool):
        gate.begin("T1")
        gate.begin("T2")
        enqueue = Enqueue("new-item")
        dequeue = Dequeue()
        if step_level:
            first = LocalStep("e1", "queue", enqueue, None)
            # The dequeue returned the pre-seeded item, not T1's.
            second = LocalStep("e2", "queue", dequeue, "seed")
        else:
            first, second = enqueue, dequeue
        gate.record_step("queue", first, "T1")
        gate.record_step("queue", second, "T2")
        return gate.check_commit("T2")

    def test_operation_level_induces_the_dependency(self):
        response = self._drive(queue_gate(step_level=False), step_level=False)
        assert response.blocked and response.blockers == frozenset({"T1"})

    def test_step_level_sees_the_disjoint_items_and_grants(self):
        response = self._drive(queue_gate(step_level=True), step_level=True)
        assert response.granted


class TestAcaMode:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            register_gate(mode="nonsense")

    def test_cascade_mode_never_blocks_operations(self):
        gate = register_gate(mode=CASCADE_MODE)
        gate.begin("T1")
        gate.begin("T2")
        gate.record_step("cell", WriteRegister(1), "T1")
        response = gate.check_operation("cell", ReadRegister(), info("T2"))
        assert response.granted
        assert gate.blocked_reads == 0

    def test_blocks_read_of_uncommitted_write(self):
        gate = register_gate(mode=ACA_MODE)
        gate.begin("T1")
        gate.begin("T2")
        gate.record_step("cell", WriteRegister(1), "T1")
        response = gate.check_operation("cell", ReadRegister(), info("T2"))
        assert response.blocked
        assert response.blockers == frozenset({"T1"})
        assert gate.blocked_reads == 1

    def test_grants_once_the_writer_resolved(self):
        gate = register_gate(mode=ACA_MODE)
        gate.begin("T1")
        gate.begin("T2")
        gate.record_step("cell", WriteRegister(1), "T1")
        assert gate.check_operation("cell", ReadRegister(), info("T2")).blocked
        gate.finish("T1", committed=True)
        assert gate.check_operation("cell", ReadRegister(), info("T2")).granted

    def test_read_only_predecessors_do_not_block(self):
        gate = register_gate(mode=ACA_MODE)
        gate.begin("T1")
        gate.begin("T2")
        gate.record_step("cell", ReadRegister(), "T1")
        assert gate.check_operation("cell", WriteRegister(2), info("T2")).granted

    def test_own_steps_do_not_block(self):
        gate = register_gate(mode=ACA_MODE)
        gate.begin("T1")
        gate.record_step("cell", WriteRegister(1), "T1")
        assert gate.check_operation("cell", ReadRegister(), info("T1", top_level="T1")).granted

    def test_aca_commits_never_wait_nor_cascade(self):
        gate = register_gate(mode=ACA_MODE)
        gate.begin("T1")
        gate.begin("T2")
        gate.record_step("cell", WriteRegister(1), "T1")
        gate.finish("T1", committed=False)
        # T2 executes its read only now (the gate would have blocked it
        # while T1 was live), so its commit is clean.
        assert gate.check_operation("cell", ReadRegister(), info("T2")).granted
        gate.record_step("cell", ReadRegister(), "T2")
        assert gate.check_commit("T2").granted
        assert gate.cascading_aborts == 0
        assert gate.commit_waits == 0
