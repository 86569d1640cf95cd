"""Unit and property tests of the Definition 10 builders in ``tests/oracles/certify.py``.

The builders are the definitional reference the certifier is held against,
so they are tested in their own right: by hand on the paper's two-transaction
example, and against the permutation scans of ``tests/oracles/graphs.py``
on random nested histories.
"""

import networkx as nx
from hypothesis import given, settings

from repro.core import History, MethodExecution, WriteVariable

from tests.conftest import fresh_builder, increment_via_read_write
from tests.oracles.certify import (
    combined_object_graph,
    message_relation,
    sg_local,
    sg_mesg,
    sg_mesg_by_object,
)
from tests.oracles.graphs import assert_graphs_match, sg_local_legacy, sg_mesg_legacy
from tests.properties.test_property_certification import nested_history


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
            assert nx.is_directed_acyclic_graph(combined_object_graph(serialisable_history, object_name))

    def test_combined_graph_cyclic_for_non_serialisable_history(self, non_serialisable_history):
        assert not nx.is_directed_acyclic_graph(combined_object_graph(non_serialisable_history, "environment"))

    def test_dangling_parent_is_skipped_when_edges_are_mapped_up(self, non_serialisable_history):
        # ``ancestors()`` returns a parent_id no execution carries (condition 1
        # reports it); the one-sweep SG_mesg must ignore it, as the scan does.
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
        history = builder.build()
        history.check_legal()
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
        history = builder.build()
        history.check_legal()
        relation = message_relation(history, transaction.execution_id)
        messages = history.execution(transaction.execution_id).message_steps()
        assert relation.has_edge(messages[0].step_id, messages[1].step_id)
        reasons = relation[messages[0].step_id][messages[1].step_id]["reasons"]
        assert any(reason[0] == "conflict" and reason[1] == write_first.step_id for reason in reasons)

    def test_leaf_execution_has_empty_relation(self, serialisable_history):
        child = serialisable_history.children_of("T1")[0]
        relation = message_relation(serialisable_history, child)
        assert len(relation.edges) == 0


class TestSweepsMatchThePermutationScans:
    @settings(max_examples=30, deadline=None)
    @given(nested_history())
    def test_per_object_graphs_match_legacy(self, history):
        for object_name in sorted(history.object_names() | {"environment"}):
            assert_graphs_match(
                sg_local(history, object_name),
                sg_local_legacy(history, object_name),
                f"sg_local({object_name!r})",
            )
            assert_graphs_match(
                sg_mesg(history, object_name),
                sg_mesg_legacy(history, object_name),
                f"sg_mesg({object_name!r})",
            )

    @settings(max_examples=30, deadline=None)
    @given(nested_history())
    def test_one_sweep_yields_every_sg_mesg(self, history):
        objects = sorted({execution.object_name for execution in history.executions.values()})
        swept = sg_mesg_by_object(history, {name: sg_local(history, name) for name in objects})
        assert sorted(swept) == objects
        for object_name in objects:
            assert_graphs_match(
                swept[object_name], sg_mesg_legacy(history, object_name), f"sg_mesg({object_name!r})"
            )
