"""The graph kernel: the incremental precedence DAG and two whole-graph passes.

Theorem 2's construction and Definition 6's replay need three graph
operations, and every module of the library takes them from here: an
acyclicity test (:class:`PrecedenceDag`), a cycle witness
(:func:`cyclic_nodes`, an iterative Tarjan) and a keyed topological order
(:func:`topological_order`, Kahn's algorithm on a heap).  The run's
waits-for relation (:mod:`repro.core.waits`) asks :func:`reachable`
whether a new wait closes a cycle, and walks its result back to name it.

Every component that keeps a precedence graph — the modular scheduler's
inter-object coordinator, the inter-shard coordinator, the optimistic
certifier's committed graph and the streaming certifier's top-level
projection of ``SG(h)`` — keeps it in one :class:`PrecedenceDag` and asks
it the same question: "does this batch of edges keep the graph acyclic?".  The kernel answers it in
place.  A graph that was acyclic before a call gains a cycle iff some new
edge's target already reaches its source, through old edges or through
new edges inserted before it; so each genuinely new edge costs one DFS
from its target, and a batch that closes a cycle is rolled back to the
last node and edge.  Nothing is copied and nothing is re-checked from
scratch, so the cost of a step follows what the step can reach, not what
the graph holds.

Adjacency is kept as insertion-ordered ``dict`` keys rather than ``set``
members.  Set order over strings follows the per-process hash seed, and
a search that stops at its target visits however many nodes happen to
come first; with ordered adjacency the work counters below repeat
exactly across processes and machines, like every other deterministic
column.  networkx is the oracle in ``tests/core/test_dag.py``; nothing
under ``src/`` imports it.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Collection, Hashable, Iterable, Mapping

__all__ = ["PrecedenceDag", "cyclic_nodes", "reachable", "topological_order"]

Edge = tuple[Hashable, Hashable]

_NO_TARGET = object()


def reachable(
    succ: Mapping[Hashable, Collection[Hashable]],
    sources: Iterable[Hashable],
    target: Hashable = _NO_TARGET,
) -> dict:
    """Nodes forward-reachable from ``sources`` (themselves included).

    One iterative multi-source DFS over a ``{node: successors}`` mapping;
    nodes missing from the mapping have no successors.  With ``target``
    the search stops the moment it is discovered, so ``target in result``
    says whether any source reaches it.  The result maps each node to the
    node that discovered it (``None`` for a source), so a hit can be walked
    back into the path that found it.
    """
    stack = list(sources)  # a repeated source is expanded twice, harmlessly
    seen = dict.fromkeys(stack)
    if target in seen:
        return seen
    while stack:
        node = stack.pop()
        for successor in succ.get(node, ()):
            if successor not in seen:
                seen[successor] = node
                if successor == target:
                    return seen
                stack.append(successor)
    return seen


def topological_order(
    nodes: Iterable[Hashable], edges: Iterable[Edge], key: Callable[[Hashable], Any]
) -> list | None:
    """The nodes in topological order, least ``key`` first among the ready ones.

    Kahn's algorithm on a heap; equal keys fall back to the order of
    ``nodes``, so the result is ``networkx.lexicographical_topological_sort``'s.
    Every edge endpoint must be one of ``nodes``; repeated edges are
    harmless.  Returns ``None`` when the edges close a cycle.
    """
    position = {node: index for index, node in enumerate(dict.fromkeys(nodes))}
    successors: dict[Hashable, list] = {node: [] for node in position}
    indegree = dict.fromkeys(position, 0)
    for source, target in edges:
        successors[source].append(target)
        indegree[target] += 1
    ready = [(key(node), position[node], node) for node, degree in indegree.items() if not degree]
    heapq.heapify(ready)
    order = []
    while ready:
        node = heapq.heappop(ready)[2]
        order.append(node)
        for successor in successors[node]:
            indegree[successor] -= 1
            if not indegree[successor]:
                heapq.heappush(ready, (key(successor), position[successor], successor))
    return order if len(order) == len(position) else None


def cyclic_nodes(edges: Iterable[Edge]) -> tuple:
    """Every node on some cycle of the graph ``edges`` spans, as a sorted tuple.

    These are the nodes of the non-trivial strongly connected components
    plus the nodes with a self-loop, so the result does not depend on the
    order the edges come in.  An iterative Tarjan: no recursion, however
    long the paths.
    """
    succ: dict[Hashable, dict[Hashable, None]] = {}
    on_cycle = set()
    for source, target in edges:
        if source == target:
            on_cycle.add(source)
        succ.setdefault(source, {})[target] = None
        succ.setdefault(target, {})
    # A node whose component is closed gets an index above every other, so
    # the low-link minimum ignores it: no separate on-stack set is needed.
    closed = len(succ)
    index: dict[Hashable, int] = {}
    low: dict[Hashable, int] = {}
    stack: list = []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            node, successors = work[-1]
            for successor in successors:
                if successor not in index:
                    index[successor] = low[successor] = len(index)
                    stack.append(successor)
                    work.append((successor, iter(succ[successor])))
                    break
                low[node] = min(low[node], index[successor])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while not component or component[-1] != node:
                        component.append(stack.pop())
                        index[component[-1]] = closed
                    if len(component) > 1:
                        on_cycle.update(component)
    return tuple(sorted(on_cycle))


class PrecedenceDag:
    """A directed graph that stays acyclic: :meth:`add_edges` is its only way to grow.

    Work counters (plain ints, deterministic functions of the calls made):
    ``edge_inserts`` — edges actually inserted, rolled-back ones included;
    ``dfs_visits`` — nodes discovered by the acyclicity searches of
    :meth:`add_edges`; ``rollbacks`` — batches refused.  Garbage-collection traversals are not decision work and are
    not counted.
    """

    __slots__ = ("_succ", "_pred", "_edges", "edge_inserts", "dfs_visits", "rollbacks")

    def __init__(self) -> None:
        self._succ: dict[Hashable, dict[Hashable, None]] = {}
        self._pred: dict[Hashable, dict[Hashable, None]] = {}
        self._edges = 0
        self.edge_inserts = 0
        self.dfs_visits = 0
        self.rollbacks = 0

    # -- growth -----------------------------------------------------------------

    def add_node(self, node: Hashable) -> None:
        """Ensure ``node`` is present (an isolated node closes no cycle)."""
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}

    def add_edges(self, edges: Iterable[Edge]) -> bool:
        """Insert a batch of edges, or none of them.

        Edges already present (or repeated within the batch) are skipped.
        Returns ``True`` with every new edge inserted when the graph stays
        acyclic; returns ``False`` with the graph exactly as it was —
        including nodes first seen in this batch — when some edge would
        close a cycle.  The verdict does not depend on the batch's order.
        """
        succ, pred = self._succ, self._pred
        added_edges: list[Edge] = []
        added_nodes: list[Hashable] = []
        for source, target in edges:
            out = succ.get(source)
            if out is not None and target in out:
                continue
            if source == target:
                self._roll_back(added_edges, added_nodes)
                return False
            if target not in succ:
                succ[target] = {}
                pred[target] = {}
                added_nodes.append(target)
            elif out is not None:
                # Only a path between two nodes already present can close a
                # cycle: a node first seen here has no edges on that side.
                seen = reachable(succ, (target,), source)
                self.dfs_visits += len(seen)
                if source in seen:
                    self._roll_back(added_edges, added_nodes)
                    return False
            if out is None:
                out = succ[source] = {}
                pred[source] = {}
                added_nodes.append(source)
            out[target] = None
            pred[target][source] = None
            added_edges.append((source, target))
        self._edges += len(added_edges)
        self.edge_inserts += len(added_edges)
        return True

    def _roll_back(self, added_edges: list[Edge], added_nodes: list[Hashable]) -> None:
        for source, target in added_edges:
            del self._succ[source][target]
            del self._pred[target][source]
        for node in added_nodes:
            del self._succ[node]
            del self._pred[node]
        self.edge_inserts += len(added_edges)
        self.rollbacks += 1

    # -- queries ----------------------------------------------------------------

    def descendants(self, sources: Iterable[Hashable]) -> set:
        """The present ``sources`` plus everything forward-reachable from them."""
        succ = self._succ
        return set(reachable(succ, (node for node in sources if node in succ)))

    def counters(self) -> dict[str, int]:
        """The work counters, under the keys ``describe()`` dicts surface them by."""
        return {
            "edge_inserts": self.edge_inserts,
            "dfs_visits": self.dfs_visits,
            "rollbacks": self.rollbacks,
        }

    def __len__(self) -> int:
        return len(self._succ)

    def size(self) -> int:
        """Nodes plus edges retained — the live-state gauge's unit."""
        return len(self._succ) + self._edges

    def nodes(self) -> set:
        return set(self._succ)

    def edges(self) -> set[Edge]:
        return {(source, target) for source, out in self._succ.items() for target in out}

    # -- shrinkage --------------------------------------------------------------

    def remove_nodes(self, nodes: Iterable[Hashable]) -> None:
        """Drop the given nodes (absent ones are ignored) with their edges."""
        succ, pred = self._succ, self._pred
        for node in nodes:
            out = succ.pop(node, None)
            if out is None:
                continue
            incoming = pred.pop(node)
            self._edges -= len(out) + len(incoming)
            for target in out:
                del pred[target][node]
            for source in incoming:
                del succ[source][node]

    def prune_unreachable(self, live: Iterable[Hashable]) -> tuple[int, set]:
        """Frontier GC: drop every node no ``live`` node reaches.

        Safe for any user whose edges always point *into* a node that is
        live at insertion time (the frontier argument is in DESIGN.md,
        "Precedence DAG kernel"): in-edges of a resolved node are frozen,
        so only nodes forward-reachable from a live node can ever lie on a
        future cycle.

        Returns:
            ``(removed, keep)`` — how many nodes were dropped and the
            retained node set (present live nodes plus their descendants),
            which callers use to prune their own records consistently.
        """
        keep = self.descendants(live)
        dead = [node for node in self._succ if node not in keep]
        self.remove_nodes(dead)
        return len(dead), keep
