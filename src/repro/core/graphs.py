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

The graph is an insertion-ordered ``{(source, target): reasons}`` dict:
its keys are the edges, and each reasons list names the step pairs that
induced the edge, so failures can be explained to the user.  The nodes
are the history's execution ids.  Acyclicity and cycle witnesses come
from the graph kernel (:mod:`repro.core.dag`).  Conflict witnesses come
from the history's sorted-interval sweep — ``O(n log n + k)`` pair
enumeration instead of ``O(n^2)`` permutations; the from-scratch
permutation scan it replaced is the reference the property tests hold it
against (``tests/oracles/graphs.py``).
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .dag import Edge, PrecedenceDag
from .history import History


def _type_a_edges(graph: dict[Edge, list[tuple]], history: History) -> None:
    """Install Definition 9's conflict edges, witnesses from the interval sweep."""
    for object_name in sorted(history.object_names()):
        for first, second in history.ordered_conflicting_pairs(object_name):
            first_ancestors = history.ancestors(first.execution_id, include_self=True)
            second_ancestors = history.ancestors(second.execution_id, include_self=True)
            for source in first_ancestors:
                for target in second_ancestors:
                    if source != target and history.are_incomparable(source, target):
                        graph.setdefault((source, target), []).append(
                            ("conflict", first.step_id, second.step_id)
                        )


def _type_b_edges(graph: dict[Edge, list[tuple]], history: History) -> None:
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
            reason = ("structure", first_message.step_id, second_message.step_id)
            for source in history.descendants(first_child):
                for target in history.descendants(second_child):
                    graph.setdefault((source, target), []).append(reason)


def serialisation_graph(history: History) -> dict[Edge, list[tuple]]:
    """Build ``SG(h)`` exactly as in Definition 9.

    Nodes are execution ids.  For a type (a) witness ``t < t'`` with ``t``
    conflicting with ``t'``, edges are added between *every* pair of
    incomparable ancestors of the two issuing executions (this realises the
    Observation following Definition 9).  For a type (b) witness ``m prec
    m'`` among the message steps of an execution, edges are added between
    every pair of executions descending from ``B(m)`` and ``B(m')``.
    """
    graph: dict[Edge, list[tuple]] = {}
    _type_a_edges(graph, history)
    _type_b_edges(graph, history)
    return graph


def is_acyclic(edges: Iterable[Edge]) -> bool:
    """True when the directed graph the edges span has no cycle."""
    return PrecedenceDag().add_edges(edges)
