"""The graph kernel against networkx as the oracle.

The kernel replaces "copy the graph, add the edges, re-check the whole
thing" on three decision paths, so the property under test is exactly
that sentence: over random edge batches, ``add_edges`` must accept a batch
iff the copy-plus-edges graph is acyclic, and a refused batch must leave
no trace.  Its two whole-graph passes are held against networkx too:
``cyclic_nodes`` against the strongly connected components, and
``topological_order`` against ``lexicographical_topological_sort``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.core.dag import PrecedenceDag, cyclic_nodes, reachable, topological_order

NODES = st.integers(min_value=0, max_value=11)
EDGES = st.tuples(NODES, NODES)
BATCHES = st.lists(st.lists(EDGES, max_size=6), max_size=14)


def grow(batches) -> tuple[PrecedenceDag, nx.DiGraph]:
    """Feed the batches to the kernel and to the copy-and-recheck oracle."""
    dag, oracle = PrecedenceDag(), nx.DiGraph()
    for batch in batches:
        trial = oracle.copy()
        trial.add_edges_from(batch)
        before = (dag.nodes(), dag.edges())
        accepted = dag.add_edges(batch)
        assert accepted == nx.is_directed_acyclic_graph(trial)
        if accepted:
            oracle = trial
        else:
            # Nothing of a refused batch survives — not even a node first
            # seen in it.
            assert (dag.nodes(), dag.edges()) == before
        assert dag.nodes() == set(oracle.nodes)
        assert dag.edges() == set(oracle.edges)
        assert dag.size() == oracle.number_of_nodes() + oracle.number_of_edges()
    # Whatever was offered, what add_edges let in is acyclic.
    assert nx.is_directed_acyclic_graph(nx.DiGraph(sorted(dag.edges())))
    return dag, oracle


def assert_consistent(dag: PrecedenceDag) -> None:
    """Successor and predecessor maps mirror each other; the gauge agrees."""
    assert set(dag._succ) == set(dag._pred)
    forward = {(s, t) for s, out in dag._succ.items() for t in out}
    backward = {(s, t) for t, incoming in dag._pred.items() for s in incoming}
    assert forward == backward == dag.edges()
    assert dag.size() == len(dag) + len(forward)


class TestAgainstNetworkx:
    @settings(max_examples=300, deadline=None)
    @given(BATCHES)
    def test_add_edges_is_copy_and_recheck(self, batches):
        dag, _ = grow(batches)
        assert_consistent(dag)

    @settings(max_examples=200, deadline=None)
    @given(BATCHES, st.lists(NODES, max_size=4))
    def test_prune_unreachable_keeps_live_and_descendants(self, batches, live):
        dag, oracle = grow(batches)
        expected = set()
        for node in live:
            if node in oracle:
                expected |= {node} | nx.descendants(oracle, node)
        removed, keep = dag.prune_unreachable(live)
        assert keep == expected
        assert removed == oracle.number_of_nodes() - len(expected)
        assert dag.nodes() == expected
        assert dag.edges() == set(oracle.subgraph(expected).edges)
        assert_consistent(dag)

    @settings(max_examples=200, deadline=None)
    @given(BATCHES, st.lists(NODES, max_size=5))
    def test_remove_nodes_leaves_no_dangling_entries(self, batches, doomed):
        dag, oracle = grow(batches)
        dag.remove_nodes(doomed)
        oracle.remove_nodes_from(doomed)
        assert dag.nodes() == set(oracle.nodes)
        assert dag.edges() == set(oracle.edges)
        assert_consistent(dag)

    @settings(max_examples=200, deadline=None)
    @given(BATCHES, NODES, NODES)
    def test_reaches_is_has_path(self, batches, source, target):
        _, oracle = grow(batches)
        present = source in oracle and target in oracle
        # The bare traversal, as the waits-for relation calls it on its own
        # mapping: absent nodes have no successors, a node reaches itself.
        succ = {node: set(oracle.successors(node)) for node in oracle}
        expected = source == target or (present and nx.has_path(oracle, source, target))
        assert (target in reachable(succ, (source,), target)) == expected


def scc_cycle_nodes(graph: nx.DiGraph) -> tuple:
    """The nodes of the non-trivial components plus the self-looped nodes, sorted."""
    nodes = set(nx.nodes_with_selfloops(graph))
    for component in nx.strongly_connected_components(graph):
        if len(component) > 1:
            nodes |= component
    return tuple(sorted(nodes))


#: Up to 40 nodes, so a draw holds several components, self-loops and repeats.
DIGRAPH_NODES = st.integers(min_value=0, max_value=39)
DIGRAPHS = st.lists(st.tuples(DIGRAPH_NODES, DIGRAPH_NODES), max_size=60)


class TestWholeGraphPasses:
    @settings(max_examples=1000, deadline=None)
    @given(DIGRAPHS, st.lists(DIGRAPH_NODES, max_size=6))
    def test_cyclic_nodes_is_the_scc_node_set(self, edges, isolated):
        oracle = nx.DiGraph()
        oracle.add_nodes_from(isolated)  # on no cycle: cyclic_nodes never sees them
        oracle.add_edges_from(edges)
        assert cyclic_nodes(edges) == scc_cycle_nodes(oracle)
        assert cyclic_nodes(reversed(edges)) == cyclic_nodes(edges)

    @settings(max_examples=600, deadline=None)
    @given(
        DIGRAPHS,
        st.permutations(range(40)),
        st.permutations(range(40)),
        st.lists(st.integers(0, 3), min_size=40, max_size=40),
    )
    def test_topological_order_is_lexicographical_topological_sort(self, pairs, hidden, nodes, keys):
        # Orient every edge along a hidden order: a random DAG.  Keys tie, and
        # equal keys fall back to the order of ``nodes``, as in networkx.
        rank = {node: index for index, node in enumerate(hidden)}
        edges = [(a, b) if rank[a] < rank[b] else (b, a) for a, b in pairs if a != b]
        oracle = nx.DiGraph()
        oracle.add_nodes_from(nodes)
        oracle.add_edges_from(edges)
        expected = list(nx.lexicographical_topological_sort(oracle, key=keys.__getitem__))
        assert topological_order(list(oracle), edges, keys.__getitem__) == expected

    @settings(max_examples=1000, deadline=None)
    @given(DIGRAPHS)
    def test_topological_order_is_none_exactly_on_cyclic_inputs(self, edges):
        oracle = nx.DiGraph(edges)
        order = topological_order(range(40), edges, int)
        if nx.is_directed_acyclic_graph(oracle):
            assert order is not None and sorted(order) == list(range(40))
        else:
            assert order is None

    def test_long_chain_and_ring_need_no_recursion(self):
        size = 20_000
        chain = [(node, node + 1) for node in range(size - 1)]
        assert cyclic_nodes(chain) == ()
        assert topological_order(reversed(range(size)), chain, lambda node: -node) == list(range(size))
        ring = chain + [(size - 1, 0)]
        assert cyclic_nodes(ring) == tuple(range(size))
        assert topological_order(range(size), ring, int) is None


class TestKernelContract:
    def test_self_loop_is_a_cycle(self):
        dag = PrecedenceDag()
        assert not dag.add_edges([("a", "b"), ("c", "c")])
        assert dag.nodes() == set() and dag.size() == 0
        assert dag.rollbacks == 1

    def test_cycle_through_edges_of_the_same_batch(self):
        dag = PrecedenceDag()
        assert dag.add_edges([("a", "b")])
        assert not dag.add_edges([("b", "c"), ("c", "a")])
        assert dag.edges() == {("a", "b")}
        assert dag.nodes() == {"a", "b"}

    def test_present_and_repeated_edges_are_not_reinserted(self):
        dag = PrecedenceDag()
        assert dag.add_edges([("a", "b"), ("a", "b")])
        assert dag.add_edges([("a", "b")])
        assert dag.edge_inserts == 1

    def test_counters_count_work_not_graph_size(self):
        dag = PrecedenceDag()
        # A long chain nobody asks about costs nothing to have around.
        assert dag.add_edges([(f"old-{i}", f"old-{i + 1}") for i in range(200)])
        visits_before = dag.dfs_visits
        assert dag.add_edges([("x", "y")])  # two new nodes: no search at all
        assert dag.add_edges([("y", "z")])
        assert dag.add_edges([("x", "z")])  # both present: one search from z
        assert dag.dfs_visits - visits_before == 1
        assert dag.counters() == {
            "edge_inserts": 203,
            "dfs_visits": dag.dfs_visits,
            "rollbacks": 0,
        }

    def test_counters_repeat_exactly_across_hash_seeds(self):
        # String hashes differ per process; a search that stops at its target
        # must still visit the same nodes, or the counters are not comparable
        # across machines.  Adjacency order is what guarantees it.
        script = (
            "from repro.core.dag import PrecedenceDag\n"
            "dag = PrecedenceDag()\n"
            "for i in range(40):\n"
            "    dag.add_edges([(f't{i}', f't{(i * 7 + j * j) % 40}') for j in range(1, 5)])\n"
            "print(dag.counters())\n"
        )
        outputs = set()
        for hash_seed in ("1", "2", "3"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": os.pathsep.join(sys.path)}
            outputs.add(
                subprocess.run(
                    [sys.executable, "-c", script],
                    env=env, capture_output=True, text=True, check=True, timeout=60,
                ).stdout
            )
        assert len(outputs) == 1
        assert "'rollbacks': 0" not in outputs.pop()

    def test_add_node_is_idempotent_and_isolated(self):
        dag = PrecedenceDag()
        dag.add_node("a")
        dag.add_node("a")
        assert dag.nodes() == {"a"} and dag.size() == 1 and len(dag) == 1
        assert dag.descendants(["a", "missing"]) == {"a"}
