"""Unit tests for the serialisation graph (Definition 9).

The Definition 10 builders are oracles now; their unit tests are
``tests/oracles/test_definition_10.py``.
"""

from repro import theorem_5_conditions
from repro.core import (
    History,
    MethodExecution,
    ReadVariable,
    is_acyclic,
    serialisation_graph,
)
from repro.core.dag import cyclic_nodes

from tests.conftest import fresh_builder, increment_via_read_write
from tests.oracles.graphs import theorem_5_conditions_legacy


class TestSerialisationGraph:
    def test_conflict_edges_point_in_temporal_order(self, serialisable_history):
        graph = serialisation_graph(serialisable_history)
        assert ("T1", "T2") in graph
        assert ("T2", "T1") not in graph

    def test_edges_connect_incomparable_executions_only(self, serialisable_history):
        graph = serialisation_graph(serialisable_history)
        for source, target in graph:
            assert serialisable_history.are_incomparable(source, target)

    def test_edge_reasons_reference_witness_steps(self, serialisable_history):
        graph = serialisation_graph(serialisable_history)
        assert any(reason[0] == "conflict" for reason in graph["T1", "T2"])

    def test_incompatible_orders_create_cycle(self, non_serialisable_history):
        graph = serialisation_graph(non_serialisable_history)
        assert not is_acyclic(graph)
        assert len(cyclic_nodes(graph)) >= 2

    def test_acyclic_graph_has_no_cycle_reported(self, serialisable_history):
        assert cyclic_nodes(serialisation_graph(serialisable_history)) == ()

    def test_structure_edges_between_sequential_children(self):
        builder = fresh_builder({"A": {"x": 0}, "B": {"x": 0}})
        transaction = builder.begin_top_level()
        increment_via_read_write(builder, transaction, "A")
        increment_via_read_write(builder, transaction, "B")
        history = builder.build()
        history.check_legal()
        graph = serialisation_graph(history)
        children = history.children_of(transaction.execution_id)
        assert any(reason[0] == "structure" for reason in graph[children[0], children[1]])

    def test_no_structure_edges_between_parallel_children(self):
        builder = fresh_builder({"A": {"x": 0}, "B": {"x": 0}})
        transaction = builder.begin_top_level()
        # Issue the two messages with an explicitly empty programme order so
        # they model parallel invocations.
        first = builder.invoke(transaction, "A", "m", after=[])
        builder.local(first, ReadVariable("x"))
        builder.finish(first)
        second = builder.invoke(transaction, "B", "m", after=[])
        builder.local(second, ReadVariable("x"))
        builder.finish(second)
        history = builder.build()
        history.check_legal()
        graph = serialisation_graph(history)
        assert not any(reason[0] == "structure" for reasons in graph.values() for reason in reasons)

    def test_single_transaction_graph_is_edge_free_across_top_levels(self):
        builder = fresh_builder({"A": {"x": 0}})
        transaction = builder.begin_top_level()
        increment_via_read_write(builder, transaction, "A")
        history = builder.build()
        history.check_legal()
        graph = serialisation_graph(history)
        assert is_acyclic(graph)
        assert {node for edge in graph for node in edge} <= set(history.execution_ids())


class TestPerObjectGraphs:
    def test_dangling_parent_is_skipped_when_edges_are_mapped_up(self, non_serialisable_history):
        # ``ancestors()`` returns a parent_id no execution carries (condition 1
        # reports it).  The certifier feeds the orphan as the root of a group
        # of its own, and its Theorem 5 verdicts still match the scan's.
        history = non_serialisable_history
        child = history.execution("T1.1")
        orphan = MethodExecution(
            "T1.1", "A", child.method_name, parent_id="ghost", invoking_step_id=child.invoking_step_id
        )
        for step in child.steps():
            orphan.add_step(step)
        executions = [orphan if e.execution_id == "T1.1" else e for e in history.executions.values()]
        orphaned = History(
            executions, history.initial_states, conflicts=history.conflicts, intervals=history.intervals()
        )
        assert orphaned.ancestors("T1.1") == ["ghost"] and not orphaned.is_legal()
        assert theorem_5_conditions(orphaned) == theorem_5_conditions_legacy(orphaned)
