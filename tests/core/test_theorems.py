"""Tests for the executable theorems: determinacy, serialisability, Theorem 5."""

import pytest

from repro import theorem_5_conditions
from repro.core import (
    ModelError,
    ReadVariable,
    WriteVariable,
    check_determinacy,
    execution_serial_order,
    is_serialisable,
    serialisation_cycle,
    serialise,
)

from tests.conftest import fresh_builder, increment_via_read_write
from tests.oracles.serial import brute_force_serialisable


class TestTheorem1Determinacy:
    def test_final_state_independent_of_topological_sort(self, serialisable_history):
        assert check_determinacy(serialisable_history, attempts=10, seed=3)

    def test_determinacy_also_holds_for_sg_cyclic_histories(self, non_serialisable_history):
        # Theorem 1 is about legality, not serialisability: even the
        # non-serialisable history replays to a unique final state.
        assert check_determinacy(non_serialisable_history, attempts=10, seed=3)


class TestTheorem2Serialisability:
    def test_acyclic_graph_implies_serialisable(self, serialisable_history):
        assert is_serialisable(serialisable_history)
        assert serialisation_cycle(serialisable_history) is None

    def test_cyclic_graph_reports_cycle(self, non_serialisable_history):
        assert not is_serialisable(non_serialisable_history)
        cycle = serialisation_cycle(non_serialisable_history)
        assert cycle == tuple(sorted(cycle)) and set(cycle) <= set(non_serialisable_history.execution_ids())
        assert {"T1", "T2"} <= set(cycle)

    def test_serialise_produces_equivalent_serial_history(self, serialisable_history):
        serial = serialise(serialisable_history)
        assert serial.is_serial()
        assert serial.equivalent_to(serialisable_history)
        serial.check_legal()

    def test_serialise_rejects_cyclic_graph(self, non_serialisable_history):
        with pytest.raises(ModelError):
            serialise(non_serialisable_history)

    def test_serialise_respects_conflict_order(self, serialisable_history):
        serial = serialise(serialisable_history)
        order = execution_serial_order(serial)
        assert order.index("T1") < order.index("T2")

    def test_brute_force_oracle_agrees_with_theorem(self, serialisable_history, non_serialisable_history):
        assert brute_force_serialisable(serialisable_history)
        assert not brute_force_serialisable(non_serialisable_history)

    def test_brute_force_respects_candidate_limit(self, serialisable_history):
        with pytest.raises(ModelError):
            brute_force_serialisable(serialisable_history, candidate_limit=1)

    def test_nested_transaction_with_internal_structure_serialises(self):
        builder = fresh_builder({"A": {"x": 0}, "B": {"x": 0}, "C": {"x": 0}})
        first = builder.begin_top_level("t1")
        second = builder.begin_top_level("t2")
        # Interleave at different objects but with compatible orders.
        increment_via_read_write(builder, first, "A")
        increment_via_read_write(builder, second, "B")
        increment_via_read_write(builder, first, "B")
        increment_via_read_write(builder, second, "C")
        increment_via_read_write(builder, first, "C")
        history = builder.build()
        history.check_legal()
        assert is_serialisable(history)
        serial = serialise(history)
        assert serial.is_serial()
        assert serial.equivalent_to(history)

    def test_serial_order_groups_descendants_with_ancestors(self, serialisable_history):
        order = execution_serial_order(serialisable_history)
        # Every child must appear somewhere after its top-level ancestor's
        # position and before the next top-level's children block ends; the
        # key property we require here is containment of relative order:
        t1_children = serialisable_history.children_of("T1")
        t2_children = serialisable_history.children_of("T2")
        for t1_child in t1_children:
            for t2_child in t2_children:
                assert order.index(t1_child) < order.index(t2_child)


class TestTheorem5ModularConditions:
    def test_conditions_hold_for_serialisable_history(self, serialisable_history):
        report = theorem_5_conditions(serialisable_history)
        assert report.holds
        assert bool(report)
        assert report.cyclic_objects == []
        assert report.cyclic_executions == []

    def test_conditions_fail_for_incompatible_object_orders(self, non_serialisable_history):
        report = theorem_5_conditions(non_serialisable_history)
        assert not report.holds
        assert "environment" in report.cyclic_objects

    def test_condition_b_detects_incompatible_parallel_messages(self):
        # One transaction issues two parallel messages to the same object;
        # their descendants conflict in both directions, so ->_e has a
        # cycle (condition (b) of Theorem 5 fails) even though there is only
        # one top-level transaction.
        builder = fresh_builder({"A": {"x": 0, "y": 0}})
        transaction = builder.begin_top_level()
        first = builder.invoke(transaction, "A", "m1", after=[])
        second = builder.invoke(transaction, "A", "m2", after=[])
        # Interleave: first writes x, second writes x (first before second),
        # then second writes y before first writes y.
        builder.local(first, WriteVariable("x", 1))
        builder.local(second, WriteVariable("x", 2))
        builder.local(second, WriteVariable("y", 2))
        builder.local(first, WriteVariable("y", 1))
        builder.finish(first)
        builder.finish(second)
        history = builder.build()
        history.check_legal()
        report = theorem_5_conditions(history)
        assert not report.holds
        assert transaction.execution_id in report.cyclic_executions

    def test_read_only_transactions_always_satisfy_conditions(self):
        builder = fresh_builder({"A": {"x": 0}})
        for _ in range(3):
            transaction = builder.begin_top_level()
            child = builder.invoke(transaction, "A", "peek")
            builder.local(child, ReadVariable("x"))
            builder.finish(child, 0)
        history = builder.build()
        history.check_legal()
        report = theorem_5_conditions(history)
        assert report.holds
        assert is_serialisable(history)
