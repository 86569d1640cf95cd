"""A transaction's sibling order ends with it.

Theorem 5's inter-object condition has two parts that never share an
edge: the top-level order between transactions and the sibling order
inside one transaction (DESIGN.md, "Commit-ordered objects").  Once a
transaction issues no more steps its sibling nodes can close no cycle, so
the coordinator and the optimistic certifier drop them when it ends; a
commit-ordered coordinator, which reads only a transaction's own records,
drops its records and top-level node too.  These tests look at every
garbage-collection pass, *before* the pass prunes anything, so what they
see is what the end-of-transaction rule alone left behind.
"""

from __future__ import annotations

import pytest

from repro.core.dag import PrecedenceDag
from repro.scheduler import make_scheduler
from repro.simulation import SimulationEngine, make_workload
from repro.simulation.workloads.random_ops import RandomOperationsWorkload


def random_ops(seed):
    # Parallel siblings over a few registers, mostly writes: sibling orders
    # are recorded, broken and aborted.
    return RandomOperationsWorkload(
        registers=6,
        transactions=8,
        operations_per_transaction=6,
        write_fraction=0.6,
        nesting_depth=3,
        parallel_fanout=3,
        seed=seed,
    ).build()


def hotspot(seed):
    # The service layer nests every access one level below the transaction.
    return make_workload("hotspot", transactions=60, hot_probability=0.3, seed=seed).build()


SCENARIOS = {
    "random-ops-0": (lambda: random_ops(0), None),
    "random-ops-1": (lambda: random_ops(1), None),
    "hotspot-stream": (lambda: hotspot(5), {"name": "poisson", "rate": 0.05}),
}


def graph_of(scheduler):
    """The precedence graph the scheduler's decisions read."""
    coordinator = getattr(scheduler, "_coordinator", None)
    return scheduler._committed_graph if coordinator is None else coordinator._precedence


def run_checked(scheduler, scenario, check, monkeypatch):
    """Run ``scenario``, calling ``check(scheduler, live, top_of)`` before every GC pass.

    ``live`` is the set of begun, unresolved top-level ids and ``top_of``
    maps every execution that requested a step, and its ancestors, to its
    top-level id.  Returns the run's result and the non-top-level nodes
    that successful batches put into the scheduler's graph.
    """
    build, arrival = SCENARIOS[scenario]
    base, specs = build()
    live: set[str] = set()
    top_of: dict[str, str] = {}
    sibling_nodes: set = set()

    def wrap(name, before=None, after=None):
        original = getattr(scheduler, name)

        def hook(*args):
            if before is not None:
                before(*args)
            result = original(*args)
            if after is not None:
                after(*args)
            return result

        setattr(scheduler, name, hook)

    def note_request(request):
        info = request.info
        for execution_id in (info.execution_id, *info.ancestor_ids):
            top_of[execution_id] = info.top_level_id

    wrap("on_transaction_begin", before=lambda info: live.add(info.top_level_id))
    wrap("on_operation", before=note_request)
    wrap("on_transaction_commit", after=lambda info: live.discard(info.top_level_id))
    wrap("on_transaction_abort", after=lambda info, _: live.discard(info.top_level_id))
    wrap("collect_garbage", before=lambda: check(scheduler, live, top_of))

    add_edges = PrecedenceDag.add_edges

    def recording_add_edges(dag, edges):
        edges = list(edges)
        added = add_edges(dag, edges)
        if added and dag is graph_of(scheduler):
            sibling_nodes.update(
                node for edge in edges for node in edge if top_of.get(node, node) != node
            )
        return added

    monkeypatch.setattr(PrecedenceDag, "add_edges", recording_add_edges)
    engine = SimulationEngine(base, scheduler, seed=3, gc_interval=2)
    if arrival is None:
        engine.submit_all(specs)
        result = engine.run()
    else:
        result = engine.run_stream(specs, arrival)
    assert result.metrics.committed > 0
    return result, sibling_nodes


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize(
    "name, kwargs", [("modular", {}), ("single-active", {})], ids=["modular", "single-active"]
)
def test_a_commit_ordered_coordinator_holds_live_transactions_only(
    name, kwargs, scenario, monkeypatch
):
    passes = []

    def check(scheduler, live, top_of):
        coordinator = scheduler._coordinator
        recorded = set(coordinator._steps._of)
        assert recorded <= live, f"records of resolved {sorted(recorded - live)}"
        owners = {top_of.get(node, node) for node in coordinator._precedence.nodes()}
        assert owners <= live, f"nodes of resolved {sorted(owners - live)}"
        passes.append(len(live))

    scheduler = make_scheduler(name, restart_policy="backoff", **kwargs)
    result, sibling_nodes = run_checked(scheduler, scenario, check, monkeypatch)
    assert scheduler._coordinator.commit_ordered
    assert passes and sibling_nodes  # passes ran, and sibling order was kept
    assert result.scheduler_description["gc_pruned_records"] == 0
    assert scheduler.live_state_size() == 0


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize(
    "name, kwargs",
    [("modular", {"default_strategy": "timestamp"}), ("adaptive", {}), ("certifier", {})],
    ids=["modular-timestamp", "adaptive", "certifier"],
)
def test_a_resolved_transaction_keeps_at_most_its_top_level_node(
    name, kwargs, scenario, monkeypatch
):
    passes = []

    def check(scheduler, live, top_of):
        survivors = {
            node
            for node in graph_of(scheduler).nodes()
            if top_of.get(node, node) not in live and top_of.get(node, node) != node
        }
        assert not survivors, f"sibling nodes of resolved transactions: {sorted(survivors)}"
        passes.append(len(live))

    scheduler = make_scheduler(name, restart_policy="backoff", **kwargs)
    _, sibling_nodes = run_checked(scheduler, scenario, check, monkeypatch)
    assert passes and sibling_nodes
