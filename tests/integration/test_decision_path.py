"""The scheduling decision path keeps its precedence graphs in the DAG kernel.

Two claims, both about *cost*, both checked by count rather than by
stopwatch:

* no layer that rejects cycle-closing edges copies a networkx graph,
  re-checks one from scratch or asks networkx for a path while deciding
  (networkx builds ``SG(h)`` for Theorem 2's ``serialise``, the cycle
  witness of a cyclic certification, and the oracles under
  ``tests/oracles/`` and in ``tests/core/test_dag.py``);
* the inter-object coordinator's work per edge-inducing step follows what
  the step can reach, not what garbage collection has left behind.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.sweep import ScenarioSpec
from repro.sweep.runner import build_engine, run_sharded_scenario

BACKOFF = {"restart_policy": "backoff"}


def stream(inner: dict, rate: float) -> dict:
    return {"inner_params": inner, "arrival": "poisson", "arrival_params": {"rate": rate}}


def zipf_stream_spec(scheduler: str, gc_interval: int = 16, transactions: int = 240) -> ScenarioSpec:
    inner = {
        "transactions": transactions,
        "objects": 12,
        "skew": 1.1,
        "operations_per_transaction": 3,
        "seed": 21,
    }
    return ScenarioSpec(
        workload="zipf-stream",
        workload_params=stream(inner, 0.02),
        scheduler=scheduler,
        scheduler_kwargs=BACKOFF,
        seed=21,
        engine_params={"gc_interval": gc_interval},
        certify=False,
    )


def hotspot_inner(transactions: int) -> dict:
    return {
        "transactions": transactions,
        "hot_objects": 2,
        "cold_objects": 8,
        "operations_per_transaction": 3,
        "hot_probability": 0.6,
        "use_service_layer": False,
        "seed": 21,
    }


def run_single(spec: ScenarioSpec):
    engine = build_engine(spec)
    return engine.run(), engine.scheduler


def modular_work(spec: ScenarioSpec) -> int:
    result, _ = run_single(spec)
    return result.scheduler_description["edge_inserts"]


def certifier_work() -> int:
    spec = ScenarioSpec(
        workload="hotspot",
        workload_params=hotspot_inner(60),
        scheduler="certifier",
        scheduler_kwargs=BACKOFF,
        seed=21,
        certify=False,
    )
    _, scheduler = run_single(spec)
    return scheduler._committed_graph.edge_inserts


def two_shard_work() -> int:
    spec = ScenarioSpec(
        workload="hotspot-stream",
        workload_params=stream(hotspot_inner(80), 0.05),
        scheduler="nto-step",
        scheduler_kwargs=BACKOFF,
        seed=21,
        shards=2,
        shard_assignment={"hot-0": 0, "hot-1": 1},
        certify=False,
    )
    return run_sharded_scenario(spec).coordinator["edge_inserts"]


#: layer name -> a small uncertified run returning the edges its kernel inserted.
LAYERS = {
    "scheduler.modular.InterObjectCoordinator": lambda: modular_work(zipf_stream_spec("modular")),
    "scheduler.adaptive (modular coordinator under strategy swaps)": lambda: modular_work(
        zipf_stream_spec("adaptive")
    ),
    "scheduler.certifier.OptimisticCertifier": certifier_work,
    "shard.coordinator.InterShardCoordinator": two_shard_work,
}


@pytest.mark.parametrize("layer", LAYERS)
def test_no_networkx_on_the_decision_path(layer, monkeypatch):
    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(
                f"networkx {name} was called on the decision path of {layer}: "
                f"precedence graphs on that path belong in repro.core.dag.PrecedenceDag"
            )

        return call

    monkeypatch.setattr(nx.DiGraph, "copy", forbidden("DiGraph.copy"))
    monkeypatch.setattr(nx, "is_directed_acyclic_graph", forbidden("is_directed_acyclic_graph"))
    monkeypatch.setattr(nx, "has_path", forbidden("has_path"))
    assert LAYERS[layer]() > 0, f"{layer}: the run induced no precedence edge, the guard saw nothing"


def test_coordinator_work_does_not_grow_with_retained_garbage():
    """Same stream, GC every 4 resolutions and every 64: same decisions, bounded work.

    The copy-and-recheck coordinator paid for every retained node and edge
    on every edge-inducing step, so a lazier GC cadence cost 4x the wall
    on this workload.  The kernel pays one search per inserted edge, and
    the search walks what the requester reaches — which garbage (by
    definition unreachable from anything live) is never part of.  Stale
    *records* still induce their (harmless) edges until GC drops them, so
    the edge count follows the cadence; the work per edge does not.
    """
    rows = {}
    for gc_interval in (4, 64):
        result, _ = run_single(zipf_stream_spec("modular", gc_interval, transactions=400))
        rows[gc_interval] = (result.metrics.as_dict(), result.scheduler_description)
    eager_metrics, eager = rows[4]
    lazy_metrics, lazy = rows[64]

    # GC cadence is decision-invariant: every deterministic column that does
    # not itself gauge retained state is identical.
    def decisions(metrics):
        return {k: v for k, v in metrics.items() if not k.startswith("live_state")}

    assert decisions(eager_metrics) == decisions(lazy_metrics)
    for key in ("ordering_aborts", "rollbacks", "deadlocks_detected", "blocked_requests"):
        assert eager[key] == lazy[key], key

    # The lazy run really does sit on an order of magnitude more state ...
    assert lazy_metrics["live_state_peak"] > 10 * eager_metrics["live_state_peak"]
    # ... and a search still costs a node or two per inserted edge (measured
    # 0.12 and 0.84), where re-checking the retained graph would cost
    # thousands per edge-inducing step.
    for description in (eager, lazy):
        assert description["edge_inserts"] > 1000
        assert description["dfs_visits"] <= 2 * description["edge_inserts"]
