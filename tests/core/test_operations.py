"""Unit tests for local operations and steps."""

import pytest

from repro.core import (
    ABORTED,
    AbortOperation,
    FunctionalOperation,
    IncrementVariable,
    LocalStep,
    MessageStep,
    ObjectState,
    ReadVariable,
    WriteVariable,
)
from repro.core.errors import InvalidOperationError


class TestReadWriteIncrement:
    def test_read_returns_value_and_leaves_state_unchanged(self):
        state = ObjectState({"x": 10})
        value, new_state = ReadVariable("x").apply(state)
        assert value == 10
        assert new_state == state

    def test_read_missing_variable_returns_default(self):
        value, _ = ReadVariable("x", default=-1).apply(ObjectState())
        assert value == -1

    def test_write_sets_variable_and_returns_written_value(self):
        value, new_state = WriteVariable("x", 7).apply(ObjectState())
        assert value == 7
        assert new_state["x"] == 7

    def test_increment_returns_new_value(self):
        value, new_state = IncrementVariable("x", 5).apply(ObjectState({"x": 1}))
        assert value == 6
        assert new_state["x"] == 6

    def test_increment_of_missing_variable_starts_at_zero(self):
        value, _ = IncrementVariable("x").apply(ObjectState())
        assert value == 1

    def test_increment_non_numeric_raises(self):
        with pytest.raises(InvalidOperationError):
            IncrementVariable("x").apply(ObjectState({"x": "text"}))

    def test_read_write_sets_are_declared(self):
        assert ReadVariable("x").read_set() == {"x"}
        assert ReadVariable("x").write_set() == frozenset()
        assert WriteVariable("x", 1).write_set() == {"x"}
        assert IncrementVariable("x").read_set() == {"x"}
        assert ReadVariable("x").is_read_only()
        assert not WriteVariable("x", 1).is_read_only()

    def test_rho_and_sigma_views(self):
        operation = WriteVariable("x", 3)
        assert operation.return_value(ObjectState()) == 3
        assert operation.transition(ObjectState())["x"] == 3

    def test_operation_equality_by_signature(self):
        assert ReadVariable("x") == ReadVariable("x")
        assert ReadVariable("x") != ReadVariable("y")
        assert ReadVariable("x") != WriteVariable("x", 1)
        assert hash(ReadVariable("x")) == hash(ReadVariable("x"))

    def test_repr_contains_name_and_args(self):
        assert "Write" in repr(WriteVariable("x", 1))


class TestFunctionalOperation:
    def test_body_receives_state_and_args(self):
        def pop_front(state, count):
            items = list(state.get("items", []))
            taken, rest = items[:count], items[count:]
            return taken, state.set("items", rest)

        operation = FunctionalOperation("PopFront", pop_front, 2, reads={"items"}, writes={"items"})
        value, new_state = operation.apply(ObjectState({"items": [1, 2, 3]}))
        assert value == [1, 2]
        assert new_state["items"] == [3]
        assert operation.read_set() == {"items"}
        assert operation.write_set() == {"items"}

    def test_unknown_read_write_sets_default_to_none(self):
        operation = FunctionalOperation("Opaque", lambda state: (None, state))
        assert operation.read_set() is None
        assert operation.write_set() is None
        assert not operation.is_read_only()


class TestAbortOperation:
    def test_abort_has_no_state_effect(self):
        state = ObjectState({"x": 1})
        value, new_state = AbortOperation("boom").apply(state)
        assert value == ABORTED
        assert new_state == state

    def test_abort_step_detection(self):
        step = LocalStep("e1", "environment", AbortOperation(), ABORTED)
        assert step.is_abort()
        normal = LocalStep("e1", "A", ReadVariable("x"), 0)
        assert not normal.is_abort()


class TestSteps:
    def test_step_ids_are_unique_and_identity_based(self):
        first = LocalStep("e1", "A", ReadVariable("x"), 0)
        second = LocalStep("e1", "A", ReadVariable("x"), 0)
        assert first.step_id != second.step_id
        assert first != second
        assert first == first

    def test_message_step_records_target_and_arguments(self):
        message = MessageStep("e1", "B", "lookup", ("k", 2), return_value="v")
        assert message.target_object == "B"
        assert message.target_method == "lookup"
        assert message.arguments == ("k", 2)
        assert message.return_value == "v"

    def test_explicit_step_id_is_respected(self):
        step = LocalStep("e1", "A", ReadVariable("x"), 0, step_id=123456)
        assert step.step_id == 123456

    def test_reprs_mention_step_identity(self):
        local = LocalStep("e1", "A", ReadVariable("x"), 0)
        message = MessageStep("e1", "B", "m")
        assert str(local.step_id) in repr(local)
        assert "B" in repr(message)
