"""The serialisation graph ``SG(h)`` (Definition 9), for Theorem 2.

``SG(h)`` has one node per method execution and an edge ``e -> e'``
between incomparable executions whenever an equivalent serial history
would have to run ``e`` before ``e'``:

* **type (a)** edges record conflicts: some descendant of ``e`` issued a
  step that precedes and conflicts with a step issued by a descendant of
  ``e'``;
* **type (b)** edges record programme structure: the least common ancestor
  of ``e`` and ``e'`` ordered the messages that created them.

Theorem 2 states that acyclicity of ``SG(h)`` implies serialisability of
``h``; :func:`~repro.core.theorems.serialise` builds the serial history
from this graph.  Certification does not: the certifier
(:mod:`repro.analysis.streaming`) checks ``SG(h)`` and the per-object
graphs of Theorem 5 (Definition 10) itself.

The graph is a :class:`networkx.DiGraph` whose edges carry a ``reasons``
attribute listing the step pairs that induced them, so failures can be
explained to the user.  Conflict witnesses come from the history's
sorted-interval sweep — ``O(n log n + k)`` pair enumeration instead of
``O(n^2)`` permutations; the from-scratch permutation scan it replaced is
the reference the property tests hold it against
(``tests/oracles/graphs.py``).
"""

from __future__ import annotations

import itertools
from typing import Iterable

import networkx as nx

from .history import History
from .operations import LocalStep


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


def is_acyclic(graph: nx.DiGraph) -> bool:
    """True when the directed graph has no cycles."""
    return nx.is_directed_acyclic_graph(graph)


def find_cycle(graph: nx.DiGraph) -> list[tuple[str, str]] | None:
    """Return one cycle as a list of edges, or ``None`` if the graph is acyclic."""
    try:
        return [(source, target) for source, target in nx.find_cycle(graph)]
    except nx.NetworkXNoCycle:
        return None
