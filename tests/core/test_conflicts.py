"""Unit tests for conflict specifications and commutativity checking."""

from repro.core import (
    ConflictTable,
    ConservativeConflictSpec,
    ExploredConflictSpec,
    IncrementVariable,
    LocalStep,
    ObjectState,
    PerObjectConflicts,
    ReadVariable,
    ReadWriteConflictSpec,
    WriteVariable,
    operations_commute_on_state,
    operations_commute_on_states,
    steps_commute_on_state,
    steps_commute_on_states,
)
from repro.core.operations import FunctionalOperation
from repro.objectbase.adts.fifo_queue import EMPTY, Dequeue, Enqueue, FifoQueueStepConflicts


class TestConservativeSpec:
    def test_everything_conflicts(self):
        spec = ConservativeConflictSpec()
        assert spec.operations_conflict(ReadVariable("x"), ReadVariable("x"))
        assert spec.operations_conflict(ReadVariable("x"), ReadVariable("y"))

    def test_step_level_falls_back_to_operation_level(self):
        spec = ConservativeConflictSpec()
        first = LocalStep("e1", "A", ReadVariable("x"), 0)
        second = LocalStep("e2", "A", ReadVariable("x"), 0)
        assert spec.steps_conflict(first, second)


class TestReadWriteSpec:
    def test_reads_of_same_variable_commute(self):
        spec = ReadWriteConflictSpec()
        assert not spec.operations_conflict(ReadVariable("x"), ReadVariable("x"))

    def test_read_conflicts_with_write_of_same_variable(self):
        spec = ReadWriteConflictSpec()
        assert spec.operations_conflict(ReadVariable("x"), WriteVariable("x", 1))
        assert spec.operations_conflict(WriteVariable("x", 1), ReadVariable("x"))

    def test_writes_of_different_variables_commute(self):
        spec = ReadWriteConflictSpec()
        assert not spec.operations_conflict(WriteVariable("x", 1), WriteVariable("y", 1))

    def test_writes_of_same_variable_conflict(self):
        spec = ReadWriteConflictSpec()
        assert spec.operations_conflict(WriteVariable("x", 1), WriteVariable("x", 2))

    def test_unknown_footprint_is_conservative(self):
        spec = ReadWriteConflictSpec()
        opaque = FunctionalOperation("Opaque", lambda state: (None, state))
        assert spec.operations_conflict(opaque, ReadVariable("x"))


class TestConflictTable:
    def test_symmetric_table(self):
        table = ConflictTable([("Enqueue", "Dequeue")])
        enqueue = FunctionalOperation("Enqueue", lambda s: (None, s))
        dequeue = FunctionalOperation("Dequeue", lambda s: (None, s))
        assert table.operations_conflict(enqueue, dequeue)
        assert table.operations_conflict(dequeue, enqueue)
        assert not table.operations_conflict(enqueue, enqueue)

    def test_asymmetric_table(self):
        table = ConflictTable([("A", "B")], symmetric=False)
        op_a = FunctionalOperation("A", lambda s: (None, s))
        op_b = FunctionalOperation("B", lambda s: (None, s))
        assert table.operations_conflict(op_a, op_b)
        assert not table.operations_conflict(op_b, op_a)

    def test_default_applies_to_unknown_operations(self):
        table = ConflictTable([("A", "B")], default=True)
        unknown = FunctionalOperation("Z", lambda s: (None, s))
        op_a = FunctionalOperation("A", lambda s: (None, s))
        assert table.operations_conflict(unknown, op_a)

    def test_declared_pairs_are_symmetric(self):
        table = ConflictTable([("A", "B")])
        op_a = FunctionalOperation("A", lambda s: (None, s))
        op_b = FunctionalOperation("B", lambda s: (None, s))
        assert table.operations_conflict(op_a, op_b)
        assert table.operations_conflict(op_b, op_a)


class TestConflictingAtAGranularity:
    """``ConflictSpec.conflicting(earlier, later, step_level)`` — Definition 3's
    direction, and which relation each granularity × argument shape consults."""

    @staticmethod
    def _shapes(earlier: LocalStep, later: LocalStep):
        return {
            "two steps": (earlier, later),
            "two operations": (earlier.operation, later.operation),
            "step then operation": (earlier, later.operation),
            "operation then step": (earlier.operation, later),
        }

    def test_asymmetric_table_respects_direction_at_both_levels(self):
        table = ConflictTable([("A", "B")], symmetric=False)
        step_a = LocalStep("e1", "X", FunctionalOperation("A", lambda s: (None, s)), None)
        step_b = LocalStep("e2", "X", FunctionalOperation("B", lambda s: (None, s)), None)
        for step_level in (True, False):
            for shape, (earlier, later) in self._shapes(step_a, step_b).items():
                assert table.conflicting(earlier, later, step_level), (step_level, shape)
            for shape, (earlier, later) in self._shapes(step_b, step_a).items():
                assert not table.conflicting(earlier, later, step_level), (step_level, shape)

    def test_return_values_count_only_between_two_steps_at_step_level(self):
        spec = FifoQueueStepConflicts()
        enqueue = LocalStep("e1", "Q", Enqueue("a"), None)
        dequeued_other = LocalStep("e2", "Q", Dequeue(), "b")
        dequeued_nothing = LocalStep("e3", "Q", Dequeue(), EMPTY)
        # Step level, two steps: the return-value-aware, asymmetric relation.
        assert not spec.conflicting(enqueue, dequeued_other, True)
        assert not spec.conflicting(dequeued_other, enqueue, True)
        assert spec.conflicting(dequeued_nothing, enqueue, True)
        assert not spec.conflicting(enqueue, dequeued_nothing, True)
        # Every other cell unwraps the steps: Enqueue/Dequeue conflict as
        # operations whatever the dequeue returned, in either order.
        for earlier_step, later_step in (
            (enqueue, dequeued_other),
            (dequeued_other, enqueue),
            (enqueue, dequeued_nothing),
        ):
            shapes = self._shapes(earlier_step, later_step)
            assert spec.conflicting(*shapes.pop("two steps"), False)
            for shape, (earlier, later) in shapes.items():
                for step_level in (True, False):
                    assert spec.conflicting(earlier, later, step_level), (step_level, shape)


class TestPerObjectConflicts:
    def test_default_spec_used_for_unknown_objects(self):
        registry = PerObjectConflicts(default=ReadWriteConflictSpec())
        assert not registry["anything"].operations_conflict(
            ReadVariable("x"), ReadVariable("x")
        )

    def test_register_and_lookup(self):
        registry = PerObjectConflicts()
        registry.register("queue", ConflictTable([("Enqueue", "Dequeue")]))
        assert "queue" in list(registry)
        assert len(registry) == 1

    def test_steps_of_different_objects_never_conflict(self):
        registry = PerObjectConflicts()  # conservative default
        first = LocalStep("e1", "A", WriteVariable("x", 1), 1)
        second = LocalStep("e2", "B", WriteVariable("x", 2), 2)
        assert not registry.steps_conflict(first, second)

    def test_copy_is_independent(self):
        registry = PerObjectConflicts()
        clone = registry.copy()
        clone.register("A", ReadWriteConflictSpec())
        assert len(list(registry)) == 0


class TestSemanticCommutativity:
    def test_reads_commute_on_any_state(self):
        states = [ObjectState({"x": value}) for value in range(3)]
        assert operations_commute_on_states(ReadVariable("x"), ReadVariable("x"), states)

    def test_read_write_do_not_commute(self):
        state = ObjectState({"x": 0})
        assert not operations_commute_on_state(ReadVariable("x"), WriteVariable("x", 5), state)

    def test_blind_writes_do_not_commute(self):
        state = ObjectState({"x": 0})
        assert not operations_commute_on_state(WriteVariable("x", 1), WriteVariable("x", 2), state)

    def test_increments_commute_as_operations_only_when_returns_agree(self):
        # State-wise increments commute, but their return values swap, so at
        # the operation level (which compares return values too) they conflict.
        state = ObjectState({"x": 0})
        assert not operations_commute_on_state(
            IncrementVariable("x"), IncrementVariable("x"), state
        )

    def test_step_commutativity_is_vacuous_when_pair_not_legal(self):
        # Recorded return value 99 is impossible, so the pair is not legal on
        # the sample state and Definition 3 is vacuously satisfied.
        state = ObjectState({"x": 0})
        first = LocalStep("e1", "A", ReadVariable("x"), 99)
        second = LocalStep("e2", "A", WriteVariable("x", 5), 5)
        assert steps_commute_on_state(first, second, state)

    def test_step_commutativity_detects_real_conflicts(self):
        state = ObjectState({"x": 0})
        read = LocalStep("e1", "A", ReadVariable("x"), 0)
        write = LocalStep("e2", "A", WriteVariable("x", 5), 5)
        assert not steps_commute_on_state(read, write, state)
        # The other order: write then read returning 5 is legal; swapping
        # makes the read return 0, so they conflict in that direction too.
        read_after = LocalStep("e1", "A", ReadVariable("x"), 5)
        assert not steps_commute_on_states(write, read_after, [state])


class TestExploredConflictSpec:
    def sample_states(self):
        return [ObjectState({"x": value}) for value in (0, 1, 2)]

    def test_derives_read_read_commutativity(self):
        spec = ExploredConflictSpec(self.sample_states())
        assert not spec.operations_conflict(ReadVariable("x"), ReadVariable("x"))

    def test_derives_read_write_conflict(self):
        spec = ExploredConflictSpec(self.sample_states())
        assert spec.operations_conflict(ReadVariable("x"), WriteVariable("x", 9))

    def test_operation_verdicts_are_cached(self):
        spec = ExploredConflictSpec(self.sample_states())
        assert spec.operations_conflict(ReadVariable("x"), WriteVariable("x", 9))
        assert spec.operations_conflict(ReadVariable("x"), WriteVariable("x", 9))
        assert len(spec.sample_states) == 3

    def test_step_level_uses_return_values(self):
        spec = ExploredConflictSpec(self.sample_states())
        write = LocalStep("e1", "A", WriteVariable("y", 5), 5)
        read_other = LocalStep("e2", "A", ReadVariable("x"), 0)
        assert not spec.steps_conflict(write, read_other)
