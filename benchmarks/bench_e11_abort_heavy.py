"""E11 — the abort path on an abort-heavy workload, pinned to its committed rows.

The engine repairs object states after an abort with per-transaction undo
segments (roll the touched objects back to the pre-subtree snapshot,
re-apply the surviving suffix) instead of replaying the entire step log
from the initial states.  This experiment drives an abort-heavy hot-spot
workload — NTO restarts aggressively under contention — records the run's
wall clock, and asserts that every deterministic column (aborts, wasted
steps, local steps, makespan, commits, give-ups) equals the rows committed
when both repair strategies were still timed side by side: the abort path
may get cheaper, it may not change what the run computes.

What it no longer gates is a wall ratio against full replay.  That cost
claim is held as an exact count in ``tests/simulation/test_undo.py``
(re-applied steps per abort stay flat as the run doubles; the replay
oracle's grow), and the replay itself lives in ``tests/oracles/engines.py``.
Rows recorded before carry ``undo: "replay"`` twins; they stay as history.

Each sweep also appends a ``BENCH_e11_abort_heavy.json`` file next to this
module (schema: ``{"experiment", "rows": [...]}``) so the repository's
performance trajectory is recorded run over run.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.scheduler import make_scheduler
from repro.simulation import HotspotWorkload, SimulationEngine

from .harness import append_bench_rows, print_experiment, read_bench_rows

COLUMNS = [
    "undo", "wall_seconds", "aborts", "wasted_steps", "local_steps",
    "makespan", "committed", "gave_up",
]

#: Pure functions of the seeded spec: pinned to the committed rows.
DETERMINISTIC_COLUMNS = (
    "aborts", "wasted_steps", "local_steps", "makespan", "committed", "gave_up",
)

BENCH_JSON = Path(__file__).resolve().parent / "BENCH_e11_abort_heavy.json"


def _workload() -> HotspotWorkload:
    return HotspotWorkload(
        transactions=32,
        hot_objects=2,
        cold_objects=8,
        operations_per_transaction=3,
        hot_probability=0.7,
        seed=1111,
    )


def run_configuration() -> dict:
    base, specs = _workload().build()
    engine = SimulationEngine(base, make_scheduler("nto"), seed=1111)
    engine.submit_all(specs)
    started = time.perf_counter()
    result = engine.run()
    elapsed = time.perf_counter() - started
    metrics = result.metrics
    return {
        "experiment": "e11_abort_heavy",
        "scheduler": "nto",
        "undo": "incremental",
        "wall_seconds": round(elapsed, 6),
        "aborts": metrics.aborted_attempts,
        "wasted_steps": metrics.wasted_steps,
        "local_steps": metrics.local_steps,
        "makespan": metrics.total_ticks,
        "committed": metrics.committed,
        "gave_up": metrics.gave_up,
    }


def run_experiment() -> list[dict]:
    return [run_configuration()]


def committed_row(path: Path = BENCH_JSON) -> dict | None:
    """The first recorded incremental-undo row: the deterministic baseline."""
    return next(
        (row for row in read_bench_rows(path) if row.get("undo") == "incremental"), None
    )


def write_bench_json(rows: list[dict], path: Path = BENCH_JSON) -> None:
    """Append this sweep's rows to the recorded trajectory."""
    append_bench_rows(path, "e11_abort_heavy", rows)


def test_e11_abort_heavy(benchmark):
    baseline = committed_row()
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_experiment("E11: abort path on an abort-heavy workload", rows, COLUMNS)
    write_bench_json(rows)
    (row,) = rows
    assert row["aborts"] > 0, "the workload must be abort-heavy"
    # The repair strategy may change the run's cost, never the run.
    assert baseline is not None, f"no committed incremental row in {BENCH_JSON.name}"
    for key in DETERMINISTIC_COLUMNS:
        assert row[key] == baseline[key], (
            f"{key} drifted from the committed row: {row[key]!r} != {baseline[key]!r}"
        )


if __name__ == "__main__":  # pragma: no cover - manual/CI smoke entry point
    experiment_rows = run_experiment()
    print_experiment("E11: abort path on an abort-heavy workload", experiment_rows, COLUMNS)
    write_bench_json(experiment_rows)
