"""E2 — step-level (return-value aware) conflicts admit more concurrency.

Paper claim (Section 5.1): locking steps rather than operations lets an
Enqueue coexist with Dequeues of other items.  We run the producer/consumer
queue workload under both granularities of N2PL and NTO, as a declarative
:class:`~repro.sweep.spec.SweepSpec`.
"""

from __future__ import annotations

from repro.sweep import Axis, ScenarioSpec, SweepSpec

from .harness import print_experiment, run_sweep_rows

CONFIGURATIONS = ["n2pl", "n2pl-step", "nto", "nto-step"]
DEPTHS = [4, 12]
COLUMNS = ["initial_depth", "scheduler", "makespan", "blocked_ticks", "aborts", "throughput", "serialisable"]


SWEEP = SweepSpec(
    name="e2_step_vs_operation_conflicts",
    base=ScenarioSpec(
        workload="queue",
        scheduler="n2pl",
        seed=202,
        workload_params={
            "queues": 2,
            "producers": 10,
            "consumers": 10,
            "items_per_transaction": 3,
            "seed": 202,
        },
    ),
    axes=(
        Axis("initial_depth", DEPTHS, target="workload_params.initial_depth"),
        Axis("scheduler", CONFIGURATIONS),
    ),
)


def run_experiment() -> list[dict]:
    return run_sweep_rows(SWEEP)


def test_e2_step_vs_operation_conflicts(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_experiment("E2: operation-level vs step-level conflict detection (queues)", rows, COLUMNS)
    for depth in DEPTHS:
        op_level = next(r for r in rows if r["initial_depth"] == depth and r["scheduler"] == "n2pl")
        step_level = next(r for r in rows if r["initial_depth"] == depth and r["scheduler"] == "n2pl-step")
        assert step_level["blocked_ticks"] <= op_level["blocked_ticks"]
        nto_op = next(r for r in rows if r["initial_depth"] == depth and r["scheduler"] == "nto")
        nto_step = next(r for r in rows if r["initial_depth"] == depth and r["scheduler"] == "nto-step")
        assert nto_step["aborts"] <= nto_op["aborts"]
    assert all(row["serialisable"] for row in rows)
