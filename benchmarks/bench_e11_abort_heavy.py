"""E11 — the abort path on an abort-heavy workload, pinned to its golden row.

The engine repairs object states after an abort with per-transaction undo
segments (roll the touched objects back to the pre-subtree snapshot,
re-apply the surviving suffix) instead of replaying the entire step log
from the initial states.  This experiment drives an abort-heavy hot-spot
workload — NTO restarts aggressively under contention — records the run's
wall clock, and asserts that every deterministic column (aborts, wasted
steps, local steps, makespan, commits, give-ups) equals the row committed
when both repair strategies were still timed side by side: the abort path
may get cheaper, it may not change what the run computes.

What it no longer gates is a wall ratio against full replay.  That cost
claim is held as an exact count in ``tests/simulation/test_undo.py``
(re-applied steps per abort stay flat as the run doubles; the replay
oracle's grow), and the replay itself lives in ``tests/oracles/engines.py``.
"""

from __future__ import annotations

from repro.sweep import ScenarioSpec, build_engine

from .harness import Experiment, timed_best

SPEC = ScenarioSpec(
    workload="hotspot",
    scheduler="nto",
    seed=1111,
    workload_params={
        "transactions": 32,
        "hot_objects": 2,
        "cold_objects": 8,
        "operations_per_transaction": 3,
        "hot_probability": 0.7,
        "seed": 1111,
    },
    certify=False,
)


def run_experiment(sizing=None) -> list[dict]:
    elapsed, result, _ = timed_best(1, lambda: build_engine(SPEC))
    metrics = result.metrics
    return [
        {
            "scheduler": SPEC.scheduler,
            "undo": "incremental",
            "wall_seconds": round(elapsed, 6),
            "aborts": metrics.aborted_attempts,
            "wasted_steps": metrics.wasted_steps,
            "local_steps": metrics.local_steps,
            "makespan": metrics.total_ticks,
            "committed": metrics.committed,
            "gave_up": metrics.gave_up,
        }
    ]


EXPERIMENT = Experiment(
    name="e11_abort_heavy",
    title="E11: abort path on an abort-heavy workload",
    columns=(
        "undo", "wall_seconds", "aborts", "wasted_steps", "local_steps",
        "makespan", "committed", "gave_up",
    ),
    key_fields=("scheduler", "undo"),
    run=run_experiment,
    # The repair strategy may change the run's cost, never the run.
    pinned=("aborts", "wasted_steps", "local_steps", "makespan", "committed", "gave_up"),
)


def test_e11_abort_heavy(benchmark):
    rows = EXPERIMENT.execute(benchmark)
    (row,) = rows
    assert row["aborts"] > 0, "the workload must be abort-heavy"


if __name__ == "__main__":  # pragma: no cover - manual/CI smoke entry point
    EXPERIMENT.execute()
