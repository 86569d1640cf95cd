"""Property-based tests for the core model (hypothesis).

The central invariants exercised here are the ones the paper proves:

* Theorem 1 — the final state of a legal history does not depend on which
  conflict-consistent topological sort is replayed;
* Theorem 2 — when the serialisation graph of a randomly generated history
  is acyclic, the constructed serial history is legal, serial and
  equivalent to the original;
* the state/value helpers behave like mathematical functions (freeze is
  idempotent, ObjectState updates are persistent).
"""

from __future__ import annotations

import random as random_module

from hypothesis import given, settings, strategies as st

from repro.core import (
    HistoryBuilder,
    ObjectState,
    PerObjectConflicts,
    ReadVariable,
    ReadWriteConflictSpec,
    WriteVariable,
    check_determinacy,
    is_serialisable,
    serialise,
)
from repro.core.values import freeze, values_equal

VARIABLE_NAMES = ("x", "y", "z")
OBJECT_NAMES = ("A", "B", "C")


# ---------------------------------------------------------------------------
# values and states
# ---------------------------------------------------------------------------

scalar_values = st.one_of(st.integers(-5, 5), st.text(max_size=3), st.booleans(), st.none())
nested_values = st.recursive(
    scalar_values,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=2), children, max_size=3),
        st.frozensets(st.integers(-3, 3), max_size=3),
    ),
    max_leaves=8,
)


class TestValueProperties:
    @given(nested_values)
    def test_freeze_is_idempotent(self, value):
        assert freeze(freeze(value)) == freeze(value)

    @given(nested_values)
    def test_freeze_is_hashable(self, value):
        hash(freeze(value))

    @given(nested_values)
    def test_values_equal_is_reflexive(self, value):
        assert values_equal(value, value)

    @given(st.dictionaries(st.sampled_from(VARIABLE_NAMES), scalar_values, max_size=3), st.sampled_from(VARIABLE_NAMES), scalar_values)
    def test_object_state_set_is_persistent(self, variables, name, value):
        state = ObjectState(variables)
        updated = state.set(name, value)
        assert updated[name] == value or (value is None and updated[name] is None)
        for other in variables:
            if other != name:
                assert values_equal(updated[other], variables[other])
        # the original state is untouched
        assert state == ObjectState(variables)


# ---------------------------------------------------------------------------
# random histories over read/write registers
# ---------------------------------------------------------------------------


@st.composite
def interleaved_history(draw):
    """A random legal history of flat read/write transactions.

    Each transaction is a child-method-per-access pattern over a handful of
    objects; the interleaving order is drawn by hypothesis, so the space
    covers both serialisable and non-serialisable executions.
    """
    transaction_count = draw(st.integers(2, 4))
    accesses_per_transaction = draw(st.integers(1, 4))
    builder = HistoryBuilder(
        initial_states={name: ObjectState({"x": 0, "y": 0}) for name in OBJECT_NAMES},
        conflicts=PerObjectConflicts(default=ReadWriteConflictSpec()),
    )
    transactions = [builder.begin_top_level(f"txn{i}") for i in range(transaction_count)]
    # Build a random access plan per transaction, then interleave.
    plans = []
    for index in range(transaction_count):
        plan = []
        for _ in range(accesses_per_transaction):
            object_name = draw(st.sampled_from(OBJECT_NAMES))
            variable = draw(st.sampled_from(VARIABLE_NAMES[:2]))
            is_write = draw(st.booleans())
            plan.append((object_name, variable, is_write, draw(st.integers(0, 9))))
        plans.append(list(reversed(plan)))

    pending = {index for index in range(transaction_count) if plans[index]}
    while pending:
        index = draw(st.sampled_from(sorted(pending)))
        object_name, variable, is_write, value = plans[index].pop()
        child = builder.invoke(transactions[index], object_name, "access")
        if is_write:
            builder.local(child, WriteVariable(variable, value))
        else:
            builder.local(child, ReadVariable(variable, default=0))
        builder.finish(child)
        if not plans[index]:
            pending.discard(index)
    history = builder.build()
    history.check_legal()
    return history


class TestHistoryProperties:
    @settings(max_examples=40, deadline=None)
    @given(interleaved_history(), st.integers(0, 1000))
    def test_theorem_1_determinacy(self, history, seed):
        assert check_determinacy(history, attempts=4, seed=seed)

    @settings(max_examples=40, deadline=None)
    @given(interleaved_history())
    def test_builder_histories_are_legal(self, history):
        history.check_legal()

    @settings(max_examples=40, deadline=None)
    @given(interleaved_history())
    def test_theorem_2_constructive(self, history):
        if not is_serialisable(history):
            return  # Theorem 2 says nothing about cyclic graphs
        serial = serialise(history, verify=False)
        serial.check_legal()
        assert serial.is_serial()
        assert serial.equivalent_to(history)

    @settings(max_examples=25, deadline=None)
    @given(interleaved_history())
    def test_final_states_stable_under_replay_shuffles(self, history):
        rng = random_module.Random(0)
        for object_name in history.object_names():
            reference = history.replay(object_name)
            steps = history.local_steps(object_name)
            rng.shuffle(steps)
            # Replaying in a non-topological order is not generally legal,
            # but replaying the canonical topological order twice must agree.
            assert history.replay(object_name) == reference
