"""Unit tests for histories: builder, legality, replay, equivalence, aborts."""

import pytest

from repro.core import (
    AUTO,
    ENVIRONMENT_OBJECT,
    History,
    HistoryBuilder,
    IllegalHistoryError,
    MethodExecution,
    ObjectState,
    PerObjectConflicts,
    ReadVariable,
    ReadWriteConflictSpec,
    WriteVariable,
)
from repro.core.errors import (
    IllegalStepSequenceError,
    ModelError,
    UnknownExecutionError,
    UnknownObjectError,
)
from repro.core.operations import LocalStep, MessageStep

from tests.conftest import fresh_builder, increment_via_read_write
from tests.oracles.legality import check_condition_2c, with_intervals


def simple_history():
    """T1 bumps A once (via a nested method); returns the built history."""
    builder = fresh_builder({"A": {"x": 0}})
    transaction = builder.begin_top_level("t1")
    increment_via_read_write(builder, transaction, "A")
    history = builder.build()
    history.check_legal()
    return history


class TestHistoryBuilder:
    def test_auto_return_values_follow_object_state(self):
        builder = fresh_builder({"A": {"x": 5}})
        transaction = builder.begin_top_level()
        child = builder.invoke(transaction, "A", "read_x")
        step = builder.local(child, ReadVariable("x"))
        assert step.return_value == 5

    def test_explicit_return_value_overrides_auto(self):
        builder = fresh_builder({"A": {"x": 5}})
        transaction = builder.begin_top_level()
        child = builder.invoke(transaction, "A", "read_x")
        step = builder.local(child, ReadVariable("x"), return_value=99)
        assert step.return_value == 99

    def test_execution_ids_are_generated_hierarchically(self):
        builder = fresh_builder({"A": {}})
        transaction = builder.begin_top_level()
        child = builder.invoke(transaction, "A", "m")
        grandchild = builder.invoke(child, "A", "m2")
        assert transaction.execution_id == "T1"
        assert child.execution_id == "T1.1"
        assert grandchild.execution_id == "T1.1.1"

    def test_duplicate_execution_id_rejected(self):
        builder = fresh_builder()
        builder.begin_top_level(execution_id="T1")
        with pytest.raises(ModelError):
            builder.begin_top_level(execution_id="T1")

    def test_builder_state_tracks_local_steps(self):
        builder = fresh_builder({"A": {"x": 0}})
        transaction = builder.begin_top_level()
        child = builder.invoke(transaction, "A", "m")
        builder.local(child, WriteVariable("x", 3))
        assert builder.local(child, ReadVariable("x")).return_value == 3

    def test_initial_state_seeds_reads(self):
        builder = fresh_builder({"A": {"x": 9}})
        transaction = builder.begin_top_level()
        child = builder.invoke(transaction, "A", "m")
        step = builder.local(child, ReadVariable("x"))
        assert step.return_value == 9

    def test_finish_records_message_return_value(self):
        builder = fresh_builder({"A": {"x": 0}})
        transaction = builder.begin_top_level()
        child = builder.invoke(transaction, "A", "m")
        builder.finish(child, return_value="done")
        history = builder.build()
        message = history.message_steps()[0]
        assert message.return_value == "done"

    def test_unfinished_messages_are_closed_at_build(self):
        builder = fresh_builder({"A": {"x": 0}})
        transaction = builder.begin_top_level()
        child = builder.invoke(transaction, "A", "m")
        builder.local(child, ReadVariable("x"))
        history = builder.build()
        history.check_legal()
        assert history.is_legal()

    def test_unknown_execution_reference_raises(self):
        builder = fresh_builder()
        with pytest.raises(UnknownExecutionError):
            builder.local("missing", ReadVariable("x"))

    def test_abort_records_abort_step(self):
        builder = fresh_builder({"A": {"x": 0}})
        transaction = builder.begin_top_level()
        child = builder.invoke(transaction, "A", "m")
        builder.abort(child, "failure")
        builder.finish(child, "aborted")
        builder.abort(transaction, "failure")
        history = builder.build()
        history.check_legal()
        aborted = {e.execution_id for e in history.executions.values() if e.is_aborted()}
        assert aborted == {child.execution_id, transaction.execution_id}


class TestAncestry:
    def test_parent_children_and_descendants(self):
        builder = fresh_builder({"A": {"x": 0}})
        transaction = builder.begin_top_level()
        child = builder.invoke(transaction, "A", "m")
        grandchild = builder.invoke(child, "A", "m2")
        history = builder.build()
        assert history.parent_of(child.execution_id) == transaction.execution_id
        assert history.children_of(transaction.execution_id) == [child.execution_id]
        assert set(history.descendants(transaction.execution_id)) == {
            transaction.execution_id,
            child.execution_id,
            grandchild.execution_id,
        }
        assert history.ancestors(grandchild.execution_id) == [
            child.execution_id,
            transaction.execution_id,
        ]
        assert history.level(grandchild.execution_id) == 2

    def test_comparability_and_lca(self):
        builder = fresh_builder({"A": {"x": 0}, "B": {"x": 0}})
        transaction = builder.begin_top_level()
        first_child = builder.invoke(transaction, "A", "m")
        second_child = builder.invoke(transaction, "B", "m")
        history = builder.build()
        assert history.are_comparable(transaction.execution_id, first_child.execution_id)
        assert history.are_incomparable(first_child.execution_id, second_child.execution_id)
        assert (
            history.least_common_ancestor([first_child.execution_id, second_child.execution_id])
            == transaction.execution_id
        )

    def test_lca_of_unrelated_top_levels_is_none(self):
        builder = fresh_builder()
        first = builder.begin_top_level()
        second = builder.begin_top_level()
        history = builder.build()
        assert history.least_common_ancestor([first.execution_id, second.execution_id]) is None
        assert history.least_common_ancestor([]) is None

    def test_top_level_executions_listed(self):
        builder = fresh_builder()
        first = builder.begin_top_level()
        second = builder.begin_top_level()
        history = builder.build()
        assert set(history.top_level_executions()) == {
            first.execution_id,
            second.execution_id,
        }


class TestTemporalOrder:
    def test_sequential_steps_are_ordered(self):
        history = simple_history()
        read, write = history.topological_local_order("A")
        assert history.precedes(read, write)
        assert not history.precedes(write, read)
        assert history.ordered(read, write)

    def test_message_step_spans_its_child(self):
        builder = fresh_builder({"A": {"x": 0}})
        transaction = builder.begin_top_level()
        child = builder.invoke(transaction, "A", "m")
        inner = builder.local(child, ReadVariable("x"))
        builder.finish(child)
        other = builder.begin_top_level()
        other_child = builder.invoke(other, "A", "m")
        later = builder.local(other_child, ReadVariable("x"))
        history = builder.build()
        message = history.execution(transaction.execution_id).message_steps()[0]
        # The message completed before the later local step started, and so
        # did its descendants (condition 2c via intervals).
        assert history.precedes(message, later)
        assert history.precedes(inner, later)

    def test_step_descendants(self):
        builder = fresh_builder({"A": {"x": 0}})
        transaction = builder.begin_top_level()
        child = builder.invoke(transaction, "A", "m")
        inner = builder.local(child, ReadVariable("x"))
        history = builder.build()
        message = history.execution(transaction.execution_id).message_steps()[0]
        assert history.step_descendant_steps(message) == {message.step_id, inner.step_id}
        assert history.step_descendant_steps(inner) == {inner.step_id}

    def test_order_pairs_derived_from_intervals(self):
        history = simple_history()
        read, write = history.topological_local_order("A")
        assert (read.step_id, write.step_id) in history.order_pairs()

    def test_an_interval_ending_before_it_starts_is_rejected(self):
        # ``<`` over intervals is transitive only if every interval has
        # start <= end, and condition 2a over generating pairs relies on it.
        history = simple_history()
        read, _ = history.topological_local_order("A")
        intervals = history.intervals()
        History(history.executions, history.initial_states, intervals=intervals)  # accepted
        start, end = intervals[read.step_id]
        intervals[read.step_id] = (end + 1, start)
        with pytest.raises(ModelError, match="ends before it starts"):
            History(history.executions, history.initial_states, intervals=intervals)


class TestLegality:
    def test_builder_histories_are_legal(self, serialisable_history):
        serialisable_history.check_legal()
        assert serialisable_history.is_legal()

    def test_message_step_without_child_violates_condition_one(self):
        execution = MethodExecution("T1", ENVIRONMENT_OBJECT, "txn")
        execution.add_step(MessageStep("T1", "A", "m"))
        history = History([execution], {"A": ObjectState()})
        with pytest.raises(IllegalHistoryError) as excinfo:
            history.check_legal()
        assert excinfo.value.condition == "1"

    def test_top_level_execution_outside_environment_is_illegal(self):
        execution = MethodExecution("T1", "A", "m")
        history = History([execution], {"A": ObjectState()})
        with pytest.raises(IllegalHistoryError) as excinfo:
            history.check_legal()
        assert excinfo.value.condition == "1"

    def test_child_without_matching_message_is_illegal(self):
        parent = MethodExecution("T1", ENVIRONMENT_OBJECT, "txn")
        child = MethodExecution("T1.1", "A", "m", parent_id="T1", invoking_step_id=999)
        history = History([parent, child], {"A": ObjectState()})
        with pytest.raises(IllegalHistoryError) as excinfo:
            history.check_legal()
        assert excinfo.value.condition == "1"

    def test_unordered_conflicting_steps_violate_condition_2b(self):
        parent = MethodExecution("T1", ENVIRONMENT_OBJECT, "txn")
        other = MethodExecution("T2", ENVIRONMENT_OBJECT, "txn")
        message_one = MessageStep("T1", "A", "m")
        message_two = MessageStep("T2", "A", "m")
        parent.add_step(message_one)
        other.add_step(message_two)
        child_one = MethodExecution(
            "T1.1", "A", "m", parent_id="T1", invoking_step_id=message_one.step_id
        )
        child_two = MethodExecution(
            "T2.1", "A", "m", parent_id="T2", invoking_step_id=message_two.step_id
        )
        write_one = LocalStep("T1.1", "A", WriteVariable("x", 1), 1)
        write_two = LocalStep("T2.1", "A", WriteVariable("x", 2), 2)
        child_one.add_step(write_one)
        child_two.add_step(write_two)
        history = History(
            [parent, other, child_one, child_two],
            {"A": ObjectState({"x": 0})},
            conflicts=PerObjectConflicts(default=ReadWriteConflictSpec()),
            order_pairs=[],  # no order between the conflicting writes
        )
        with pytest.raises(IllegalHistoryError) as excinfo:
            history.check_legal()
        assert excinfo.value.condition == "2b"

    def test_program_order_not_respected_violates_condition_2a(self):
        execution = MethodExecution("T1", ENVIRONMENT_OBJECT, "txn")
        first = LocalStep("T1", ENVIRONMENT_OBJECT, WriteVariable("x", 1), 1)
        second = LocalStep("T1", ENVIRONMENT_OBJECT, WriteVariable("x", 2), 2)
        execution.add_step(first)
        execution.add_step(second)  # programme order: first prec second
        history = History(
            [execution],
            {ENVIRONMENT_OBJECT: ObjectState()},
            conflicts=PerObjectConflicts(default=ReadWriteConflictSpec()),
            order_pairs=[(second.step_id, first.step_id)],
        )
        with pytest.raises(IllegalHistoryError) as excinfo:
            history.check_legal()
        assert excinfo.value.condition == "2a"

    def test_two_executions_claiming_one_message_step_violate_condition_one(self):
        # B must be a function: a second execution claiming T1.1's invoking
        # step used to be dropped from the index, so its steps escaped the
        # message's descendant set and the history passed as legal.
        history = simple_history()
        original = history.execution("T1.1")
        clone = MethodExecution(
            "T1.1-clone",
            "A",
            "bump",
            parent_id=original.parent_id,
            invoking_step_id=original.invoking_step_id,
        )
        extra = LocalStep("T1.1-clone", "A", ReadVariable("x"), 1)
        clone.add_step(extra)
        duplicated = History(
            [*history.executions.values(), clone],
            history.initial_states,
            conflicts=history.conflicts,
            intervals={**history.intervals(), extra.step_id: (100, 100)},
        )
        with pytest.raises(IllegalHistoryError) as excinfo:
            duplicated.check_legal()
        assert excinfo.value.condition == "1"
        assert "'T1.1'" in str(excinfo.value) and "'T1.1-clone'" in str(excinfo.value)

    @staticmethod
    def _message_with_a_later_step():
        """T1's message (2, 4) over ``inner`` (3, 3), then ``later`` (5, 5) of T2.

        T2's own message (1, 6) spans everything, so the only ordered pairs
        are ``message < later`` and ``inner < later``; reads only, on two
        objects, so 2a and 2b have nothing to say.
        """
        builder = fresh_builder({"A": {"x": 0}, "B": {"x": 0}})
        second = builder.invoke(builder.begin_top_level(), "B", "m")
        first = builder.begin_top_level()
        child = builder.invoke(first, "A", "m")
        inner = builder.local(child, ReadVariable("x"))
        builder.finish(child)
        later = builder.local(second, ReadVariable("x"))
        builder.finish(second)
        history = builder.build()
        history.check_legal()
        (message,) = history.execution(first.execution_id).message_steps()
        assert history.intervals()[message.step_id] == (2, 4)
        return history, message, inner, later

    @pytest.mark.parametrize("interval", [(3, 5), None], ids=["stretched", "untimed"])
    def test_descendant_not_following_its_message_violates_condition_2c(self, interval):
        # ``inner`` either outlasts its message step, into ``later``'s
        # instant, or has no interval at all: message < later no longer
        # propagates to the message's descendant.
        history, message, inner, later = self._message_with_a_later_step()
        broken = with_intervals(history, {inner.step_id: interval})
        with pytest.raises(IllegalHistoryError) as excinfo:
            broken.check_legal()
        assert excinfo.value.condition == "2c"
        assert str(excinfo.value) == (
            f"{message.step_id} < {later.step_id} but descendants "
            f"{inner.step_id} and {later.step_id} are not ordered accordingly"
        )
        with pytest.raises(IllegalHistoryError) as enumerated:
            check_condition_2c(broken)
        assert str(enumerated.value) == str(excinfo.value)

    def test_untimed_descendant_under_an_unordered_message_stays_legal(self):
        # Nothing starts after the message ends, so its poisoned envelope
        # (-inf, +inf) is never compared: no ordering exists to propagate.
        history, message, inner, later = self._message_with_a_later_step()
        lonely = with_intervals(history, {inner.step_id: None, later.step_id: (4, 4)})
        assert not lonely.precedes(message, later)
        lonely.check_legal()
        check_condition_2c(lonely)

    def test_wrong_return_value_violates_condition_3(self):
        builder = fresh_builder({"A": {"x": 0}})
        transaction = builder.begin_top_level()
        child = builder.invoke(transaction, "A", "m")
        builder.local(child, ReadVariable("x"), return_value=12345)
        history = builder.build()
        with pytest.raises(IllegalHistoryError) as excinfo:
            history.check_legal()
        assert excinfo.value.condition == "3"

    def test_replay_strict_flag(self):
        builder = fresh_builder({"A": {"x": 0}})
        transaction = builder.begin_top_level()
        child = builder.invoke(transaction, "A", "m")
        builder.local(child, ReadVariable("x"), return_value=12345)
        history = builder.build()
        with pytest.raises(IllegalStepSequenceError):
            history.replay("A")
        state = history.replay("A", strict=False)
        assert state["x"] == 0


class TestFinalStatesAndEquivalence:
    def test_final_states_reflect_all_writes(self, serialisable_history):
        finals = serialisable_history.final_states()
        assert finals["A"]["x"] == 2
        assert finals["B"]["x"] == 2

    def test_final_state_unknown_object_raises(self, serialisable_history):
        with pytest.raises(UnknownObjectError):
            serialisable_history.final_state("missing")

    def test_history_is_equivalent_to_itself(self, serialisable_history):
        assert serialisable_history.equivalent_to(serialisable_history)

    def test_histories_with_different_executions_are_not_equivalent(self):
        first = simple_history()
        second = simple_history()
        assert not first.equivalent_to(second)  # different step/execution identities

    def test_is_serial_detects_interleaving(self, serialisable_history):
        assert not serialisable_history.is_serial()

    def test_serial_history_of_one_transaction(self):
        history = simple_history()
        assert history.is_serial()


class TestAbortSemantics:
    def build_history_with_abort(self, abort_child: bool):
        builder = fresh_builder({"A": {"x": 0}})
        transaction = builder.begin_top_level()
        child = builder.invoke(transaction, "A", "m")
        builder.local(child, ReadVariable("x"))
        if abort_child:
            builder.abort(child)
        builder.finish(child, "aborted" if abort_child else "ok")
        builder.abort(transaction)
        return builder.build()

    def test_abort_semantics_hold_when_children_abort_too(self):
        history = self.build_history_with_abort(abort_child=True)
        history.check_abort_semantics()

    def test_abort_semantics_violated_when_child_survives(self):
        history = self.build_history_with_abort(abort_child=False)
        with pytest.raises(IllegalHistoryError) as excinfo:
            history.check_abort_semantics()
        assert excinfo.value.condition == "abort-b"

    def test_aborted_writer_with_visible_effect_violates_condition_a(self):
        builder = fresh_builder({"A": {"x": 0}})
        transaction = builder.begin_top_level()
        child = builder.invoke(transaction, "A", "m")
        builder.local(child, WriteVariable("x", 7))
        builder.abort(child)
        builder.finish(child, "aborted")
        builder.abort(transaction)
        history = builder.build()
        with pytest.raises(IllegalHistoryError) as excinfo:
            history.check_abort_semantics()
        assert excinfo.value.condition == "abort-a"

    def test_replay_ignoring_aborted_executions(self):
        builder = fresh_builder({"A": {"x": 0}})
        transaction = builder.begin_top_level()
        child = builder.invoke(transaction, "A", "m")
        builder.local(child, WriteVariable("x", 7))
        builder.abort(child)
        builder.finish(child, "aborted")
        builder.abort(transaction)
        history = builder.build()
        state = history.replay("A", ignore_aborted=True, strict=False)
        assert state["x"] == 0
