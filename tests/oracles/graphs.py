"""From-scratch permutation builders for Definitions 9 and 10.

``SG(h)`` (:mod:`repro.core.graphs`) and the Definition 10 builders of
:mod:`tests.oracles.certify` come from the history's sorted-interval sweep
and, for ``SG_mesg``, one upward sweep over the local edges.  These are the
builders those replaced — every step pair of an object, every execution
pair of an object, every local graph per object — written against the
public :class:`~repro.core.History` accessors only and on the independent
:func:`tests.oracles.legality.precedes_oracle`, so a differential against
them shares neither the pair enumeration, nor ``<``, nor the edge
bookkeeping with the sweeps.

:func:`assert_graphs_match` is the comparison: same nodes, same edges, same
multiset of reasons on every edge.  It also takes ``SG(h)`` in the
``{(source, target): reasons}`` form :func:`repro.core.serialisation_graph`
returns, which carries no node set: then only edges and reasons are compared.
"""

from __future__ import annotations

import itertools
from collections import Counter

import networkx as nx

from repro.analysis import Theorem5Report
from repro.core import History

from tests.oracles.certify import message_relation
from tests.oracles.legality import precedes_oracle


def _add_edge(graph: nx.DiGraph, source: str, target: str, reason: tuple) -> None:
    if not graph.has_edge(source, target):
        graph.add_edge(source, target, reasons=[])
    graph[source][target]["reasons"].append(reason)


def serialisation_graph_legacy(history: History) -> nx.DiGraph:
    """``SG(h)`` (Definition 9) from every step permutation of every object."""
    graph = nx.DiGraph()
    graph.add_nodes_from(history.execution_ids())
    # Type (a): a conflict witness orders every incomparable ancestor pair.
    for object_name in history.object_names():
        for first, second in itertools.permutations(history.local_steps(object_name), 2):
            if not precedes_oracle(history, first, second):
                continue
            if not history.conflicts.steps_conflict(first, second):
                continue
            for source in history.ancestors(first.execution_id, include_self=True):
                for target in history.ancestors(second.execution_id, include_self=True):
                    if source != target and history.are_incomparable(source, target):
                        _add_edge(graph, source, target, ("conflict", first.step_id, second.step_id))
    # Type (b): programme order between two messages orders their subtrees.
    for execution in history.executions.values():
        for first, second in itertools.permutations(execution.message_steps(), 2):
            if not execution.program_precedes(first, second):
                continue
            first_child = history.child_of_message(first)
            second_child = history.child_of_message(second)
            if first_child is None or second_child is None:
                continue
            for source in history.descendants(first_child):
                for target in history.descendants(second_child):
                    _add_edge(graph, source, target, ("structure", first.step_id, second.step_id))
    return graph


def sg_local_legacy(history: History, object_name: str) -> nx.DiGraph:
    """``SG_local(h, o)`` (Definition 10) from every execution pair of the object."""
    graph = nx.DiGraph()
    executions = [
        execution
        for execution in history.executions.values()
        if execution.object_name == object_name
    ]
    graph.add_nodes_from(execution.execution_id for execution in executions)
    for first_execution, second_execution in itertools.permutations(executions, 2):
        if not history.are_incomparable(first_execution.execution_id, second_execution.execution_id):
            continue
        for first_step in first_execution.local_steps():
            for second_step in second_execution.local_steps():
                if not precedes_oracle(history, first_step, second_step):
                    continue
                if history.conflicts.steps_conflict(first_step, second_step):
                    _add_edge(
                        graph,
                        first_execution.execution_id,
                        second_execution.execution_id,
                        ("local-conflict", first_step.step_id, second_step.step_id),
                    )
    return graph


def sg_mesg_legacy(history: History, object_name: str) -> nx.DiGraph:
    """``SG_mesg(h, o)`` from every execution pair × every object's local graph."""
    graph = nx.DiGraph()
    execution_ids = [
        execution.execution_id
        for execution in history.executions.values()
        if execution.object_name == object_name
    ]
    graph.add_nodes_from(execution_ids)
    local_graphs = [
        sg_local_legacy(history, other_object)
        for other_object in {execution.object_name for execution in history.executions.values()}
    ]
    for first_id, second_id in itertools.permutations(execution_ids, 2):
        if not history.are_incomparable(first_id, second_id):
            continue
        first_descendants = set(history.descendants(first_id, include_self=False))
        second_descendants = set(history.descendants(second_id, include_self=False))
        for local_graph in local_graphs:
            for source, target in local_graph.edges:
                if source in first_descendants and target in second_descendants:
                    _add_edge(graph, first_id, second_id, ("mesg", source, target))
    return graph


def theorem_5_conditions_legacy(history: History) -> Theorem5Report:
    """Theorem 5 with both per-object graphs rebuilt from scratch per object."""
    object_names = {execution.object_name for execution in history.executions.values()}
    cyclic_objects = [
        name
        for name in sorted(object_names)
        if not nx.is_directed_acyclic_graph(
            nx.compose(sg_local_legacy(history, name), sg_mesg_legacy(history, name))
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


def _reason_multisets(graph: nx.DiGraph | dict) -> dict[tuple, Counter]:
    if isinstance(graph, dict):
        return {edge: Counter(tuple(reason) for reason in reasons) for edge, reasons in graph.items()}
    return {
        (source, target): Counter(tuple(reason) for reason in data["reasons"])
        for source, target, data in graph.edges(data=True)
    }


def assert_graphs_match(candidate: nx.DiGraph | dict, oracle: nx.DiGraph, label: str) -> None:
    """Fail unless the two graphs agree on nodes, edges and reason multisets.

    A ``candidate`` in the ``{(source, target): reasons}`` form has no node
    set, so for it only edges and reasons are compared.
    """
    if not isinstance(candidate, dict):
        assert set(candidate.nodes) == set(oracle.nodes), (
            f"{label}: node sets diverge (production {sorted(candidate.nodes)!r} "
            f"vs oracle {sorted(oracle.nodes)!r})"
        )
    candidate_reasons = _reason_multisets(candidate)
    oracle_reasons = _reason_multisets(oracle)
    assert candidate_reasons == oracle_reasons, (
        f"{label}: edge/reason sets diverge "
        f"(missing {sorted(set(oracle_reasons) - set(candidate_reasons))!r}, "
        f"extra {sorted(set(candidate_reasons) - set(oracle_reasons))!r}, "
        "or reason multiplicities differ)"
    )
