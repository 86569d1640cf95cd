"""Certification as Definitions 9 and 10 state it: whole graphs, built post hoc.

Kept out of ``src/``: production certifies with one implementation, the
commit-by-commit :class:`~repro.analysis.streaming.StreamingCertifier`,
which ``repro.analysis.certify_history`` feeds a finished history.  This
module is the definitional reference both uses of it are held against.
It builds ``SG(h)`` as a networkx graph over every execution id from the
edges of :func:`repro.core.serialisation_graph`, every ``SG_local`` and
``SG_mesg`` (Definition 10) and every message relation ``->_e`` (Theorem
5(b)) as networkx graphs straight from the :class:`~repro.core.History`
accessors, and orders the transactions by the top level of Theorem 2's
construction (:func:`repro.core.execution_serial_order`).  Acyclicity,
cycle witnesses and topological orders are networkx's: no code of the
certifier's and none of the graph kernel's (``repro.core.dag``).

The Definition 10 builders enumerate the ordered conflicting pairs with
the history's interval sweep and derive every ``SG_mesg`` from one upward
sweep over the ``SG_local`` edges; ``tests/oracles/graphs.py`` holds the
permutation scans they replaced, which the property tests compare them
with.
"""

from __future__ import annotations

import itertools
from typing import Mapping

import networkx as nx

from repro.analysis import CertificationReport, Theorem5Report
from repro.core import History, IllegalHistoryError, serialisation_graph
from repro.core.operations import LocalStep, MessageStep
from repro.core.theorems import natural_execution_key
from repro.simulation import RunResult


def _add_edge(graph: nx.DiGraph, source: str, target: str, reason: tuple) -> None:
    if graph.has_edge(source, target):
        graph[source][target]["reasons"].append(reason)
    else:
        graph.add_edge(source, target, reasons=[reason])


# ---------------------------------------------------------------------------
# SG_local and SG_mesg — Definition 10
# ---------------------------------------------------------------------------


def sg_local(history: History, object_name: str) -> nx.DiGraph:
    """``SG_local(h, o)``: conflict ordering among the object's own executions.

    Nodes are the method executions *of object* ``object_name``; there is an
    edge ``e -> e'`` when the executions are incomparable and some step of
    ``e`` itself precedes and conflicts with some step of ``e'`` itself
    (Definition 10).  Local steps of an object always belong to that
    object's executions, so the edge witnesses are exactly the ordered
    conflicting pairs of the object's local steps.
    """
    graph = nx.DiGraph()
    graph.add_nodes_from(_executions_of(history, object_name))
    for first, second in history.ordered_conflicting_pairs(object_name):
        source = first.execution_id
        target = second.execution_id
        if source == target:
            continue
        if history.are_incomparable(source, target):
            _add_edge(graph, source, target, ("local-conflict", first.step_id, second.step_id))
    return graph


def sg_mesg_by_object(history: History, local_graphs: Mapping[str, nx.DiGraph]) -> dict[str, nx.DiGraph]:
    """Every ``SG_mesg(h, o)`` from one sweep over the ``SG_local`` edges.

    Each local edge ``f -> f'`` is mapped *up* once: it is filed, for every
    pair of incomparable proper ancestors ``s`` of ``f`` and ``t`` of ``f'``
    that share an object, as ``s -> t`` under that object — so the cost
    follows the local edges and the nesting depth, not the number of objects.
    """
    graphs: dict[str, nx.DiGraph] = {}
    owner: dict[str, str] = {}
    for execution_id, execution in history.executions.items():
        owner[execution_id] = execution.object_name
        graphs.setdefault(execution.object_name, nx.DiGraph()).add_node(execution_id)
    for local_graph in local_graphs.values():
        for first_id, second_id in local_graph.edges:
            # A dangling parent_id (condition 1 reports it) owns nothing.
            targets = [target for target in history.ancestors(second_id) if target in owner]
            for source in history.ancestors(first_id):
                for target in targets:
                    if (
                        owner.get(source) == owner[target]
                        and source != target
                        and history.are_incomparable(source, target)
                    ):
                        _add_edge(graphs[owner[source]], source, target, ("mesg", first_id, second_id))
    return graphs


def _objects_with_executions(history: History) -> set[str]:
    return {execution.object_name for execution in history.executions.values()}


def _executions_of(history: History, object_name: str) -> list[str]:
    return [
        execution_id
        for execution_id, execution in history.executions.items()
        if execution.object_name == object_name
    ]


def sg_mesg(history: History, object_name: str) -> nx.DiGraph:
    """``SG_mesg(h, o)``: orderings the object's executions inherit from below.

    Same nodes as :func:`sg_local`; an edge ``e -> e'`` appears when the two
    executions are incomparable and some *proper descendants* ``f`` of ``e``
    and ``f'`` of ``e'`` are joined by an edge of ``SG_local(h, o')`` for
    some object ``o'`` (Definition 10).  A view on :func:`sg_mesg_by_object`.
    """
    local_graphs = {name: sg_local(history, name) for name in _objects_with_executions(history)}
    return sg_mesg_by_object(history, local_graphs).get(object_name, nx.DiGraph())


def object_graph_union(local_graph: nx.DiGraph, mesg_graph: nx.DiGraph) -> nx.DiGraph:
    """The Theorem 5(a) union of two built graphs, each reason tagged with its origin."""
    combined = nx.DiGraph()
    for tag, graph in (("local", local_graph), ("mesg", mesg_graph)):
        combined.add_nodes_from(graph.nodes)
        for source, target, data in graph.edges(data=True):
            _add_edge(combined, source, target, (tag, data["reasons"]))
    return combined


def combined_object_graph(history: History, object_name: str) -> nx.DiGraph:
    """``SG_local(h, o) union SG_mesg(h, o)`` — the graph of Theorem 5(a)."""
    return object_graph_union(sg_local(history, object_name), sg_mesg(history, object_name))


# ---------------------------------------------------------------------------
# ->_e — Theorem 5(b)
# ---------------------------------------------------------------------------


def message_relation(history: History, execution_id: str) -> nx.DiGraph:
    """The relation ``->_e`` of Theorem 5(b) among the execution's messages.

    ``u ->_e u'`` holds between two distinct message steps of the execution
    when either the programme order of the execution places ``u`` before
    ``u'`` or some descendant step of ``u`` precedes and conflicts with a
    descendant step of ``u'``.
    """
    execution = history.execution(execution_id)
    graph = nx.DiGraph()
    messages = execution.message_steps()
    graph.add_nodes_from(message.step_id for message in messages)
    steps_by_message: dict[int, dict[str, list[LocalStep]]] = {}
    for message in messages:
        buckets: dict[str, list[LocalStep]] = {}
        for step in _descendant_local_steps(history, message):
            buckets.setdefault(step.object_name, []).append(step)
        steps_by_message[message.step_id] = buckets
    for first_message, second_message in itertools.permutations(messages, 2):
        if execution.program_precedes(first_message, second_message):
            _add_edge(graph, first_message.step_id, second_message.step_id, ("structure",))
            continue
        first_buckets = steps_by_message[first_message.step_id]
        second_buckets = steps_by_message[second_message.step_id]
        for object_name, first_steps in first_buckets.items():
            second_steps = second_buckets.get(object_name)
            if not second_steps:
                continue
            for first_step in first_steps:
                for second_step in second_steps:
                    if not history.precedes(first_step, second_step):
                        continue
                    conflict = history.conflicts.steps_conflict(
                        first_step, second_step
                    ) or history.conflicts.steps_conflict(second_step, first_step)
                    if conflict:
                        _add_edge(
                            graph,
                            first_message.step_id,
                            second_message.step_id,
                            ("conflict", first_step.step_id, second_step.step_id),
                        )
    return graph


def _descendant_local_steps(history: History, message: MessageStep) -> list[LocalStep]:
    steps: list[LocalStep] = []
    child_id = history.child_of_message(message)
    if child_id is None:
        return steps
    for execution_id in history.descendants(child_id):
        steps.extend(history.execution(execution_id).local_steps())
    return steps


# ---------------------------------------------------------------------------
# Theorem 5 and the certification report
# ---------------------------------------------------------------------------


def cyclic_nodes(graph: nx.DiGraph) -> tuple[str, ...]:
    """All nodes on some cycle of ``graph``, as a sorted tuple.

    A non-trivial strongly connected component contains exactly the nodes
    that lie on at least one cycle, so the returned set is independent of
    the order the graph's edges were inserted in.
    """
    nodes: set[str] = set()
    for component in nx.strongly_connected_components(graph):
        if len(component) > 1:
            nodes.update(component)
        else:
            (node,) = component
            if graph.has_edge(node, node):
                nodes.add(node)
    return tuple(sorted(nodes))


def theorem_5_conditions(history: History) -> Theorem5Report:
    """Conditions (a) and (b) of Theorem 5, every graph built whole.

    Every ``SG_local`` is built exactly once and every ``SG_mesg`` comes
    from one sweep over their edges.
    """
    object_names = _objects_with_executions(history)
    local_graphs = {name: sg_local(history, name) for name in object_names}
    mesg_graphs = sg_mesg_by_object(history, local_graphs)
    cyclic_objects = [
        name
        for name in sorted(object_names)
        if not nx.is_directed_acyclic_graph(
            object_graph_union(local_graphs[name], mesg_graphs[name])
        )
    ]
    cyclic_executions = [
        execution_id
        for execution_id in sorted(history.execution_ids())
        if not nx.is_directed_acyclic_graph(message_relation(history, execution_id))
    ]
    return Theorem5Report(
        not cyclic_objects and not cyclic_executions, cyclic_objects, cyclic_executions
    )


def certify_history(history: History, *, check_legality: bool = True) -> CertificationReport:
    """The certification report, from ``SG(h)`` built once and the graphs above."""
    violations: list[str] = []

    legal = True
    if check_legality:
        try:
            history.check_legal()
        except IllegalHistoryError as error:
            legal = False
            violations.append(f"legality: {error}")

    graph = nx.DiGraph()
    graph.add_nodes_from(history.execution_ids())
    graph.add_edges_from(serialisation_graph(history))
    serialisable = nx.is_directed_acyclic_graph(graph)
    cycle: tuple[str, ...] | None = None
    if not serialisable:
        violations.append("serialisation graph contains a cycle")
        cycle = cyclic_nodes(graph)

    report5 = theorem_5_conditions(history)
    if report5.cyclic_objects:
        violations.append("Theorem 5(a) violated for objects: " + ", ".join(report5.cyclic_objects))
    if report5.cyclic_executions:
        violations.append(
            "Theorem 5(b) violated for executions: " + ", ".join(report5.cyclic_executions)
        )

    serial_order: tuple[str, ...] = ()
    if serialisable:
        # The top level of Theorem 2's construction (``execution_serial_order``),
        # sorted on the graph already built instead of a second ``SG(h)``.
        top_levels = graph.subgraph(history.top_level_executions())
        serial_order = tuple(
            nx.lexicographical_topological_sort(top_levels, key=natural_execution_key)
        )

    return CertificationReport(
        legal=legal,
        serialisable=serialisable,
        theorem5_holds=report5.holds,
        violations=violations,
        committed_transactions=len(history.top_level_executions()),
        committed_executions=len(history.execution_ids()),
        committed_local_steps=len(history.local_steps()),
        sg_nodes=graph.number_of_nodes(),
        sg_edges=graph.number_of_edges(),
        serial_order=serial_order,
        cycle=cycle,
    )


def certify_run(result: RunResult, *, check_legality: bool = True) -> CertificationReport:
    """:func:`certify_history` of the run's committed projection."""
    return certify_history(result.committed_history(), check_legality=check_legality)
