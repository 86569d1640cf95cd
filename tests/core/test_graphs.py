"""Unit tests for serialisation graphs (Definitions 9 and 10)."""

from repro.core import (
    History,
    MethodExecution,
    ReadVariable,
    WriteVariable,
    combined_object_graph,
    find_cycle,
    is_acyclic,
    message_relation,
    serialisation_graph,
    sg_local,
    sg_mesg,
    theorem_5_conditions,
)

from tests.conftest import fresh_builder, increment_via_read_write
from tests.oracles.graphs import assert_graphs_match, sg_mesg_legacy, theorem_5_conditions_legacy


class TestSerialisationGraph:
    def test_conflict_edges_point_in_temporal_order(self, serialisable_history):
        graph = serialisation_graph(serialisable_history)
        assert graph.has_edge("T1", "T2")
        assert not graph.has_edge("T2", "T1")

    def test_edges_connect_incomparable_executions_only(self, serialisable_history):
        graph = serialisation_graph(serialisable_history)
        for source, target in graph.edges:
            assert serialisable_history.are_incomparable(source, target)

    def test_edge_reasons_reference_witness_steps(self, serialisable_history):
        graph = serialisation_graph(serialisable_history)
        reasons = graph["T1"]["T2"]["reasons"]
        assert any(reason[0] == "conflict" for reason in reasons)

    def test_incompatible_orders_create_cycle(self, non_serialisable_history):
        graph = serialisation_graph(non_serialisable_history)
        assert not is_acyclic(graph)
        cycle = find_cycle(graph)
        assert cycle is not None and len(cycle) >= 2

    def test_acyclic_graph_has_no_cycle_reported(self, serialisable_history):
        assert find_cycle(serialisation_graph(serialisable_history)) is None

    def test_structure_edges_between_sequential_children(self):
        builder = fresh_builder({"A": {"x": 0}, "B": {"x": 0}})
        transaction = builder.begin_top_level()
        increment_via_read_write(builder, transaction, "A")
        increment_via_read_write(builder, transaction, "B")
        history = builder.build(check=True)
        graph = serialisation_graph(history)
        children = history.children_of(transaction.execution_id)
        assert graph.has_edge(children[0], children[1])
        reasons = graph[children[0]][children[1]]["reasons"]
        assert any(reason[0] == "structure" for reason in reasons)

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
        history = builder.build(check=True)
        graph = serialisation_graph(history)
        assert not any(
            reason[0] == "structure"
            for _, _, data in graph.edges(data=True)
            for reason in data["reasons"]
        )

    def test_single_transaction_graph_is_edge_free_across_top_levels(self):
        builder = fresh_builder({"A": {"x": 0}})
        transaction = builder.begin_top_level()
        increment_via_read_write(builder, transaction, "A")
        history = builder.build(check=True)
        graph = serialisation_graph(history)
        assert is_acyclic(graph)
        assert set(graph.nodes) == set(history.execution_ids())


class TestPerObjectGraphs:
    def test_sg_local_orders_conflicting_method_executions(self, serialisable_history):
        graph = sg_local(serialisable_history, "A")
        nodes = set(graph.nodes)
        assert nodes == {
            execution_id
            for execution_id, execution in serialisable_history.executions.items()
            if execution.object_name == "A"
        }
        assert len(graph.edges) >= 1
        for source, target in graph.edges:
            assert serialisable_history.are_incomparable(source, target)

    def test_sg_local_empty_for_untouched_object(self, serialisable_history):
        graph = sg_local(serialisable_history, "unused-object")
        assert len(graph.nodes) == 0

    def test_sg_mesg_on_environment_reflects_descendant_conflicts(self, serialisable_history):
        graph = sg_mesg(serialisable_history, "environment")
        assert graph.has_edge("T1", "T2")

    def test_combined_graph_acyclic_for_serialisable_history(self, serialisable_history):
        for object_name in ("environment", "A", "B"):
            assert is_acyclic(combined_object_graph(serialisable_history, object_name))

    def test_combined_graph_cyclic_for_non_serialisable_history(self, non_serialisable_history):
        assert not is_acyclic(combined_object_graph(non_serialisable_history, "environment"))

    def test_dangling_parent_is_skipped_when_edges_are_mapped_up(self, non_serialisable_history):
        # ``ancestors()`` returns a parent_id no execution carries (condition 1
        # reports it); the one-sweep SG_mesg must ignore it, as the scan did.
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
        for object_name in ("environment", "A", "B"):
            assert_graphs_match(
                sg_mesg(orphaned, object_name),
                sg_mesg_legacy(orphaned, object_name),
                f"sg_mesg({object_name!r})",
            )
        assert set(sg_mesg(orphaned, "environment").edges) == {("T2", "T1")}


class TestMessageRelation:
    def test_sequential_messages_are_related_by_structure(self):
        builder = fresh_builder({"A": {"x": 0}, "B": {"x": 0}})
        transaction = builder.begin_top_level()
        increment_via_read_write(builder, transaction, "A")
        increment_via_read_write(builder, transaction, "B")
        history = builder.build(check=True)
        relation = message_relation(history, transaction.execution_id)
        messages = history.execution(transaction.execution_id).message_steps()
        assert relation.has_edge(messages[0].step_id, messages[1].step_id)

    def test_parallel_messages_with_conflicting_descendants_are_related(self):
        builder = fresh_builder({"A": {"x": 0}})
        transaction = builder.begin_top_level()
        first = builder.invoke(transaction, "A", "m", after=[])
        write_first = builder.local(first, WriteVariable("x", 1))
        builder.finish(first)
        second = builder.invoke(transaction, "A", "m", after=[])
        builder.local(second, WriteVariable("x", 2))
        builder.finish(second)
        history = builder.build(check=True)
        relation = message_relation(history, transaction.execution_id)
        messages = history.execution(transaction.execution_id).message_steps()
        assert relation.has_edge(messages[0].step_id, messages[1].step_id)
        reasons = relation[messages[0].step_id][messages[1].step_id]["reasons"]
        assert any(reason[0] == "conflict" and reason[1] == write_first.step_id for reason in reasons)

    def test_leaf_execution_has_empty_relation(self, serialisable_history):
        child = serialisable_history.children_of("T1")[0]
        relation = message_relation(serialisable_history, child)
        assert len(relation.edges) == 0
