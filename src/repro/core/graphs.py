"""Serialisation graphs (Definitions 9 and 10).

The *serialisation graph* ``SG(h)`` of a history has one node per method
execution and an edge ``e -> e'`` between incomparable executions whenever
an equivalent serial history would have to run ``e`` before ``e'``:

* **type (a)** edges record conflicts: some descendant of ``e`` issued a
  step that precedes and conflicts with a step issued by a descendant of
  ``e'``;
* **type (b)** edges record programme structure: the least common ancestor
  of ``e`` and ``e'`` ordered the messages that created them.

Theorem 2 states that acyclicity of ``SG(h)`` implies serialisability of
``h``; Section 5.3 refines the graph into per-object graphs ``SG_local`` and
``SG_mesg`` plus a per-execution message relation, which Theorem 5 uses to
separate intra-object from inter-object synchronisation.

All graphs are returned as :class:`networkx.DiGraph` instances whose edges
carry a ``reasons`` attribute listing the step pairs that induced them, so
failures can be explained to the user.

The builders enumerate only actually-ordered conflicting step pairs per
object via the history's sorted-interval sweep — ``O(n log n + k)`` pair
enumeration instead of ``O(n^2)`` permutations — and derive every
``SG_mesg`` from one sweep over the ``SG_local`` edges.  The from-scratch
permutation scans they replaced are the reference the property tests hold
them against (``tests/oracles/graphs.py``).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping

import networkx as nx

from .history import History
from .operations import LocalStep, MessageStep


def _add_edge(graph: nx.DiGraph, source: str, target: str, reason: tuple) -> None:
    if graph.has_edge(source, target):
        graph[source][target]["reasons"].append(reason)
    else:
        graph.add_edge(source, target, reasons=[reason])


def _conflicting_ordered_pairs(history: History) -> Iterable[tuple[LocalStep, LocalStep]]:
    """Yield ordered pairs ``(t, t')`` with ``t < t'`` and ``t`` conflicting with ``t'``.

    Uses the history's sorted-interval sweep, so only actually-ordered pairs
    are examined per object.
    """
    for object_name in sorted(history.object_names()):
        yield from history.ordered_conflicting_pairs(object_name)


# ---------------------------------------------------------------------------
# SG(h) — Definition 9
# ---------------------------------------------------------------------------


def _add_type_a_edges(
    graph: nx.DiGraph,
    history: History,
    pairs: Iterable[tuple[LocalStep, LocalStep]],
) -> None:
    for first, second in pairs:
        first_ancestors = history.ancestors(first.execution_id, include_self=True)
        second_ancestors = history.ancestors(second.execution_id, include_self=True)
        for source in first_ancestors:
            for target in second_ancestors:
                if source == target:
                    continue
                if history.are_incomparable(source, target):
                    _add_edge(graph, source, target, ("conflict", first.step_id, second.step_id))


def _add_type_b_edges(graph: nx.DiGraph, history: History) -> None:
    """Install Definition 9's structure edges."""
    for execution in history.executions.values():
        messages = execution.message_steps()
        for first_message, second_message in itertools.permutations(messages, 2):
            if not execution.program_precedes(first_message, second_message):
                continue
            first_child = history.child_of_message(first_message)
            second_child = history.child_of_message(second_message)
            if first_child is None or second_child is None:
                continue
            for source in history.descendants(first_child):
                for target in history.descendants(second_child):
                    _add_edge(
                        graph,
                        source,
                        target,
                        ("structure", first_message.step_id, second_message.step_id),
                    )


def serialisation_graph(history: History) -> nx.DiGraph:
    """Build ``SG(h)`` exactly as in Definition 9.

    Nodes are execution ids.  For a type (a) witness ``t < t'`` with ``t``
    conflicting with ``t'``, edges are added between *every* pair of
    incomparable ancestors of the two issuing executions (this realises the
    Observation following Definition 9).  For a type (b) witness ``m prec
    m'`` among the message steps of an execution, edges are added between
    every pair of executions descending from ``B(m)`` and ``B(m')``.

    Conflict witnesses are enumerated with the history's sorted-interval
    sweep.
    """
    graph = nx.DiGraph()
    graph.add_nodes_from(history.execution_ids())
    _add_type_a_edges(graph, history, _conflicting_ordered_pairs(history))
    _add_type_b_edges(graph, history)
    return graph


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
    graph.add_nodes_from(history.executions_of_object(object_name))
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


def sg_mesg(
    history: History,
    object_name: str,
    *,
    local_graphs: Mapping[str, nx.DiGraph] | None = None,
) -> nx.DiGraph:
    """``SG_mesg(h, o)``: orderings the object's executions inherit from below.

    Same nodes as :func:`sg_local`; an edge ``e -> e'`` appears when the two
    executions are incomparable and some *proper descendants* ``f`` of ``e``
    and ``f'`` of ``e'`` are joined by an edge of ``SG_local(h, o')`` for
    some object ``o'`` (Definition 10).  A view on :func:`sg_mesg_by_object`,
    which sweeps every object's edges: a loop over objects should call that
    once.  ``local_graphs`` shares the local graphs instead of rebuilding them.
    """
    if local_graphs is None:
        local_graphs = {name: sg_local(history, name) for name in _objects_with_executions(history)}
    return sg_mesg_by_object(history, local_graphs).get(object_name, nx.DiGraph())


def _objects_with_executions(history: History) -> set[str]:
    return {execution.object_name for execution in history.executions.values()}


def combined_object_graph(
    history: History,
    object_name: str,
    *,
    local_graphs: Mapping[str, nx.DiGraph] | None = None,
) -> nx.DiGraph:
    """``SG_local(h, o) union SG_mesg(h, o)`` — the graph of Theorem 5(a)."""
    local_graph = (local_graphs or {}).get(object_name)
    if local_graph is None:
        local_graph = sg_local(history, object_name)
    return object_graph_union(local_graph, sg_mesg(history, object_name, local_graphs=local_graphs))


def object_graph_union(local_graph: nx.DiGraph, mesg_graph: nx.DiGraph) -> nx.DiGraph:
    """The Theorem 5(a) union of two built graphs, each reason tagged with its origin."""
    combined = nx.DiGraph()
    for tag, graph in (("local", local_graph), ("mesg", mesg_graph)):
        combined.add_nodes_from(graph.nodes)
        for source, target, data in graph.edges(data=True):
            _add_edge(combined, source, target, (tag, data["reasons"]))
    return combined


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
    # Descendant steps are gathered once per message (bucketed by object) —
    # the pair loop below reuses them instead of re-walking the subtree.
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


def is_acyclic(graph: nx.DiGraph) -> bool:
    """True when the directed graph has no cycles."""
    return nx.is_directed_acyclic_graph(graph)


def find_cycle(graph: nx.DiGraph) -> list[tuple[str, str]] | None:
    """Return one cycle as a list of edges, or ``None`` if the graph is acyclic."""
    try:
        return [(source, target) for source, target in nx.find_cycle(graph)]
    except nx.NetworkXNoCycle:
        return None
