"""Post-hoc certification of simulation runs.

The schedulers are proven correct in the paper (Theorems 3 and 4); the
certification layer verifies the same claim *operationally* on every run:
the committed projection of the recorded history must be legal, its
serialisation graph must be acyclic (Theorem 2's sufficient condition) and
the modular conditions of Theorem 5 must hold.  Experiments that disable a
part of the machinery (e.g. the intra-object-only configuration of E4) use
the certification verdicts to count correctness violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import networkx as nx

from ..core.errors import IllegalHistoryError
from ..core.graphs import is_acyclic, serialisation_graph
from ..core.history import History
from ..core.theorems import execution_serial_order, theorem_5_conditions
from ..simulation.metrics import RunResult


@dataclass
class CertificationReport:
    """Verdicts of certifying one run's committed projection."""

    legal: bool
    serialisable: bool
    theorem5_holds: bool
    violations: list[str] = field(default_factory=list)
    committed_transactions: int = 0
    committed_executions: int = 0
    committed_local_steps: int = 0
    sg_nodes: int = 0
    sg_edges: int = 0
    serial_order: tuple[str, ...] = ()
    #: Sorted execution ids on some serialisation-graph cycle (the nodes of
    #: the graph's non-trivial strongly connected components), or ``None``
    #: when the graph is acyclic.  The node *set* is canonical — unlike a
    #: single reported cycle it does not depend on edge insertion order —
    #: so the streaming certifier can be compared against it bit-for-bit.
    cycle: tuple[str, ...] | None = None

    @property
    def correct(self) -> bool:
        """True when the run passed every check."""
        return self.legal and self.serialisable and self.theorem5_holds

    def as_dict(self) -> dict[str, Any]:
        return {
            "legal": self.legal,
            "serialisable": self.serialisable,
            "theorem5_holds": self.theorem5_holds,
            "correct": self.correct,
            "violations": list(self.violations),
            "committed_transactions": self.committed_transactions,
            "committed_executions": self.committed_executions,
            "committed_local_steps": self.committed_local_steps,
            "sg_nodes": self.sg_nodes,
            "sg_edges": self.sg_edges,
            "serial_order": list(self.serial_order),
            "cycle": None if self.cycle is None else list(self.cycle),
        }


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


def certify_history(history: History, *, check_legality: bool = True) -> CertificationReport:
    """Certify an arbitrary history (assumed already projected to committed work).

    The serialisation graph is built once and reused for the acyclicity
    test and the serial order instead of being rebuilt per question.
    """
    violations: list[str] = []

    legal = True
    if check_legality:
        try:
            history.check_legal()
        except IllegalHistoryError as error:
            legal = False
            violations.append(f"legality: {error}")

    graph = serialisation_graph(history)
    serialisable = is_acyclic(graph)
    cycle: tuple[str, ...] | None = None
    if not serialisable:
        violations.append("serialisation graph contains a cycle")
        cycle = cyclic_nodes(graph)

    report5 = theorem_5_conditions(history)
    if not report5.holds:
        if report5.cyclic_objects:
            violations.append(
                "Theorem 5(a) violated for objects: " + ", ".join(report5.cyclic_objects)
            )
        if report5.cyclic_executions:
            violations.append(
                "Theorem 5(b) violated for executions: " + ", ".join(report5.cyclic_executions)
            )

    serial_order: tuple[str, ...] = ()
    if serialisable:
        order = execution_serial_order(history, graph=graph)
        serial_order = tuple(
            execution_id for execution_id in order if history.execution(execution_id).is_top_level
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
    """Certify the committed projection of a simulation run."""
    return certify_history(result.committed_history(), check_legality=check_legality)
