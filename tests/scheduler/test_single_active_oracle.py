"""The single-active baseline as a modular preset decides like the hand-written one.

:class:`repro.scheduler.SingleActiveObjectScheduler` is a modular scheduler
over whole-object locks with a commit-ordered coordinator;
:class:`tests.oracles.single_active.SingleActiveObjectScheduler` is the
lock table and per-transaction sibling order it replaced.  On the same
scenario both must commit the same transactions in the same order, fill
every ``RunMetrics`` field but the live-state gauge alike, and count the
same sibling-order aborts and deadlocks.
"""

from __future__ import annotations

import itertools

from repro.scheduler import SingleActiveObjectScheduler
from repro.simulation import SimulationEngine, make_workload

from tests.oracles import single_active as oracle

SHAPES = tuple(itertools.product((1, 2, 3), repeat=2))  # (nesting depth, parallel fan-out)
RESTART_POLICIES = ("immediate", "backoff", "ordered")


def decisions(result, ordering_aborts):
    description = result.scheduler_description
    metrics = {
        key: value
        for key, value in result.metrics.as_dict().items()
        if not key.startswith("live_state")
    }
    return (
        result.committed_transaction_ids,
        metrics,
        description[ordering_aborts],
        description["deadlocks_detected"],
    )


def assert_alike(workload, params, seed, restart_policy="immediate"):
    """Run the scenario on both schedulers; return the preset's ordering aborts."""
    outcomes = []
    for scheduler_class, ordering_aborts in (
        (SingleActiveObjectScheduler, "ordering_aborts"),
        (oracle.SingleActiveObjectScheduler, "sibling_ordering_aborts"),
    ):
        base, specs = make_workload(workload, seed=seed, **params).build()
        engine = SimulationEngine(base, scheduler_class(restart_policy=restart_policy), seed=seed)
        engine.submit_all(specs)
        outcomes.append(decisions(engine.run(), ordering_aborts))
    preset, reference = outcomes
    assert preset == reference, (workload, params, seed, restart_policy)
    return preset[2]


def test_nested_parallel_random_ops():
    # Parallel siblings over a few registers: sibling orders break, whole
    # objects wait and deadlock, under every restart policy.
    ordering_aborts = 0
    for (depth, fanout), seed, restart_policy in itertools.product(
        SHAPES, range(6), RESTART_POLICIES
    ):
        params = {
            "registers": 4,
            "transactions": 8,
            "operations_per_transaction": 5,
            "write_fraction": 0.6,
            "nesting_depth": depth,
            "parallel_fanout": fanout,
        }
        ordering_aborts += assert_alike("random-ops", params, seed, restart_policy)
    # The grid reaches the sibling-order check.
    assert ordering_aborts > 0


def test_e13_hotspot_configurations():
    for hot_probability in (0.05, 0.1, 0.2, 0.3):
        params = {
            "transactions": 28,
            "hot_objects": 3,
            "cold_objects": 48,
            "operations_per_transaction": 4,
            "hot_probability": hot_probability,
        }
        assert_alike("hotspot", params, 1313)


def test_application_workloads():
    # Read-only operations share objects (audits, reports, scans) and a
    # b-tree keeps whole-object locks instead of its key-granular preference.
    for workload, params in (
        ("banking", {"transactions": 24}),
        ("order-processing", {"transactions": 24}),
        ("btree", {"transactions": 24}),
        ("mixed", {"transactions": 24}),
        ("queue", {"producers": 8, "consumers": 8}),
        ("zipf", {"transactions": 24}),
    ):
        for seed in range(3):
            assert_alike(workload, params, seed, "backoff")
