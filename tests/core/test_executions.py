"""Unit tests for method executions (Definition 4)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ENVIRONMENT_OBJECT,
    AbortOperation,
    LocalStep,
    MessageStep,
    MethodExecution,
    ReadVariable,
)
from repro.core.dag import topological_order
from repro.core.errors import ModelError


def make_execution(object_name="A"):
    return MethodExecution("e1", object_name, "method")


class TestAddStep:
    def test_sequential_steps_are_chained_in_program_order(self):
        execution = make_execution()
        first = execution.add_step(LocalStep("e1", "A", ReadVariable("x"), 0))
        second = execution.add_step(LocalStep("e1", "A", ReadVariable("y"), 0))
        assert execution.program_precedes(first, second)
        assert not execution.program_precedes(second, first)

    def test_explicit_empty_after_models_parallel_steps(self):
        execution = make_execution()
        first = execution.add_step(LocalStep("e1", "A", ReadVariable("x"), 0))
        second = execution.add_step(LocalStep("e1", "A", ReadVariable("y"), 0), after=[])
        assert not execution.program_precedes(first, second)
        assert not execution.program_precedes(second, first)

    def test_explicit_after_list(self):
        execution = make_execution()
        first = execution.add_step(LocalStep("e1", "A", ReadVariable("x"), 0))
        second = execution.add_step(LocalStep("e1", "A", ReadVariable("y"), 0), after=[])
        third = execution.add_step(LocalStep("e1", "A", ReadVariable("z"), 0), after=[first, second])
        assert execution.program_precedes(first, third)
        assert execution.program_precedes(second, third)

    def test_program_precedes_is_transitive(self):
        execution = make_execution()
        steps = [execution.add_step(LocalStep("e1", "A", ReadVariable(str(i)), 0)) for i in range(4)]
        assert execution.program_precedes(steps[0], steps[3])

    def test_step_of_other_execution_rejected(self):
        execution = make_execution()
        with pytest.raises(ModelError):
            execution.add_step(LocalStep("other", "A", ReadVariable("x"), 0))

    def test_local_step_of_other_object_rejected(self):
        execution = make_execution("A")
        with pytest.raises(ModelError):
            execution.add_step(LocalStep("e1", "B", ReadVariable("x"), 0))

    def test_message_steps_may_target_any_object(self):
        execution = make_execution("A")
        message = execution.add_step(MessageStep("e1", "B", "lookup"))
        assert message in execution.message_steps()

    def test_duplicate_step_rejected(self):
        execution = make_execution()
        step = execution.add_step(LocalStep("e1", "A", ReadVariable("x"), 0))
        with pytest.raises(ModelError):
            execution.add_step(step)

    def test_unknown_predecessor_rejected(self):
        execution = make_execution()
        with pytest.raises(ModelError):
            execution.add_step(LocalStep("e1", "A", ReadVariable("x"), 0), after=[999])


class TestOrderSteps:
    def test_explicit_order_constraint(self):
        execution = make_execution()
        first = execution.add_step(LocalStep("e1", "A", ReadVariable("x"), 0), after=[])
        second = execution.add_step(LocalStep("e1", "A", ReadVariable("y"), 0), after=[])
        execution.order_steps(second, first)
        assert execution.program_precedes(second, first)

    def test_order_steps_requires_membership(self):
        execution = make_execution()
        step = execution.add_step(LocalStep("e1", "A", ReadVariable("x"), 0))
        with pytest.raises(ModelError):
            execution.order_steps(step, 424242)


class TestInspection:
    def test_top_level_detection(self):
        top = MethodExecution("t", ENVIRONMENT_OBJECT, "txn")
        child = MethodExecution("t.1", "A", "m", parent_id="t", invoking_step_id=1)
        assert top.is_top_level
        assert not child.is_top_level

    def test_local_and_message_step_partition(self):
        execution = make_execution()
        local = execution.add_step(LocalStep("e1", "A", ReadVariable("x"), 0))
        message = execution.add_step(MessageStep("e1", "B", "m"))
        assert execution.local_steps() == [local]
        assert execution.message_steps() == [message]
        assert len(execution) == 2
        assert list(iter(execution)) == [local, message]

    def test_is_aborted(self):
        execution = make_execution()
        assert not execution.is_aborted()
        execution.add_step(LocalStep("e1", "A", AbortOperation(), "aborted"))
        assert execution.is_aborted()

    def test_repr_mentions_parentage(self):
        top = MethodExecution("t", ENVIRONMENT_OBJECT, "txn")
        child = MethodExecution("t.1", "A", "m", parent_id="t", invoking_step_id=1)
        assert "top-level" in repr(top)
        assert "child of" in repr(child)


def _closure(pairs, nodes):
    reachable = {node: set() for node in nodes}
    for before, after in pairs:
        reachable[before].add(after)
    changed = True
    while changed:
        changed = False
        for node in nodes:
            extra = set().union(*(reachable[other] for other in reachable[node])) - reachable[node]
            if extra:
                reachable[node] |= extra
                changed = True
    return {(node, other) for node in nodes for other in reachable[node]}


#: One addition: ``None`` is sequential (after every step so far); a list
#: of fractions picks explicit predecessors among the steps so far.
additions = st.lists(
    st.one_of(st.none(), st.lists(st.floats(0, 1, exclude_max=True), max_size=3)),
    min_size=1,
    max_size=14,
)


class TestProgramOrderStorage:
    """Sequential steps are linked from the maximal steps only, not from
    every earlier step: the stored relation differs, its closure does not."""

    def test_sequential_steps_store_one_pair_each(self):
        execution = make_execution()
        for index in range(1000):
            execution.add_step(LocalStep("e1", "A", ReadVariable(str(index)), 0))
        pairs = execution.program_order_pairs()
        assert len(pairs) == 999
        ids = execution.step_ids()
        assert pairs == frozenset(zip(ids, ids[1:]))
        assert execution.program_precedes(ids[0], ids[-1])

    def test_a_step_after_parallel_branches_follows_every_branch(self):
        execution = make_execution()
        first = execution.add_step(LocalStep("e1", "A", ReadVariable("x"), 0))
        left = execution.add_step(MessageStep("e1", "B", "m"), after=[first])
        assert execution.is_sequential()
        right = execution.add_step(MessageStep("e1", "C", "m"), after=[first])
        assert set(execution.maximal_step_ids()) == {left.step_id, right.step_id}
        last = execution.add_step(LocalStep("e1", "A", ReadVariable("y"), 0))
        assert execution.maximal_step_ids() == (last.step_id,)
        assert not execution.is_sequential()  # left and right stay unordered
        assert execution.program_order_pairs() == {
            (first.step_id, left.step_id),
            (first.step_id, right.step_id),
            (left.step_id, last.step_id),
            (right.step_id, last.step_id),
        }
        assert not execution.program_precedes(left, right)

    @settings(max_examples=150, deadline=None)
    @given(additions)
    def test_closure_and_topological_order_match_the_all_pairs_form(self, plan):
        execution = make_execution()
        all_pairs = set()
        ids = []
        for index, choice in enumerate(plan):
            step = LocalStep("e1", "A", ReadVariable(str(index)), 0)
            if choice is None:
                execution.add_step(step)
                all_pairs.update((earlier, step.step_id) for earlier in ids)
            else:
                after = sorted({ids[int(fraction * len(ids))] for fraction in choice}) if ids else []
                execution.add_step(step, after=after)
                all_pairs.update((earlier, step.step_id) for earlier in after)
            ids.append(step.step_id)
        assert execution.program_order_pairs() <= all_pairs
        closure = _closure(all_pairs, ids)
        assert {
            (first, second)
            for first in ids
            for second in ids
            if execution.program_precedes(first, second)
        } == closure
        total = all(
            (first, second) in closure or (second, first) in closure
            for first in ids
            for second in ids
            if first != second
        )
        assert execution.is_sequential() == total

        def key(step_id):
            return (step_id * 7919) % 13

        assert topological_order(ids, execution.program_order_pairs(), key) == topological_order(
            ids, all_pairs, key
        )
