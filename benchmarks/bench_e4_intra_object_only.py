"""E4 — intra-object serialisability alone does not imply global correctness.

Paper claim (Section 2): each object may serialise its own method
executions correctly and the overall computation may still not be
serialisable; inter-object synchronisation is required, unless every
object implements one common *local atomicity* property.  We count
non-serialisable runs over several seeds for three regimes.
"""

from __future__ import annotations

from repro.sweep import ScenarioSpec, run_scenario

from .harness import print_experiment

SEEDS = range(6)
REGIMES = [
    ("per-object timestamp, no coordination", "modular-intra-only", "timestamp"),
    ("per-object timestamp + coordinator", "modular", "timestamp"),
    ("per-object strict 2PL, no coordination", "modular-intra-only", "locking"),
]
COLUMNS = ["regime", "non_serialisable_runs", "runs", "aborts"]


def _spec(scheduler_name: str, strategy: str, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        workload="hotspot",
        scheduler=scheduler_name,
        seed=seed,
        workload_params={
            "transactions": 10,
            "hot_objects": 3,
            "cold_objects": 4,
            "hot_probability": 0.9,
            "operations_per_transaction": 3,
            "use_service_layer": False,
            "seed": seed,
        },
        scheduler_kwargs={"default_strategy": strategy},
    )


def run_experiment() -> list[dict]:
    rows = []
    for label, scheduler_name, strategy in REGIMES:
        runs = [run_scenario(_spec(scheduler_name, strategy, seed)).row for seed in SEEDS]
        rows.append(
            {
                "regime": label,
                "non_serialisable_runs": sum(not run["serialisable"] for run in runs),
                "runs": len(runs),
                "aborts": sum(run["aborts"] for run in runs),
            }
        )
    return rows


def test_e4_intra_object_only(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_experiment("E4: why inter-object synchronisation is necessary", rows, COLUMNS)
    uncoordinated, coordinated, locking = rows
    assert uncoordinated["non_serialisable_runs"] > 0
    assert coordinated["non_serialisable_runs"] == 0
    assert locking["non_serialisable_runs"] == 0
