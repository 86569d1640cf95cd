"""E13 — sweep fan-out scaling: serial vs multiprocessing wall-clock.

PR 3 introduced the declarative sweep subsystem (:mod:`repro.sweep`).
This benchmark drives its headline guarantees on a 20-scenario hotspot
contention grid (4 contention levels × 5 scheduler configurations —
including the optimistic certifier under the ``backoff`` restart policy,
re-admitted to the grid once PR 4's restart policies tamed its cascade
storms; under ``immediate`` restarts its storm wall-clock used to
dominate the comparison):

1. **determinism** — the 4-worker multiprocessing run must produce
   metrics rows *identical* to the serial run of the same seeded
   :class:`~repro.sweep.spec.SweepSpec`, and the grid's per-scheduler
   summary is pinned to the golden ``BENCH_e13_sweep_scaling.json``;
2. **scaling** — recorded, never asserted.  With 4 workers the sweep
   should complete in at most 0.6× of the serial wall-clock on a host
   with ≥4 free CPUs (0.85× with 2-3; a CPU-bound fan-out cannot beat
   serial on one core).  The row carries both wall-clocks, the speedup
   and the host's CPU count, so it always states the hardware it was
   measured on.
"""

from __future__ import annotations

import time

from repro.sweep import Axis, AxisPoint, ScenarioSpec, SweepRunner, SweepSpec, sweep_report

from .harness import Experiment, cpu_count

WORKERS = 4

HOT_PROBABILITIES = (0.05, 0.1, 0.2, 0.3)
SCHEDULERS = (
    "n2pl",
    "n2pl-step",
    "nto",
    "single-active",
    AxisPoint(
        "certifier-backoff",
        {
            "scheduler": "certifier",
            "scheduler_kwargs.restart_policy": "backoff",
        },
    ),
)

SWEEP = SweepSpec(
    name="e13_sweep_scaling",
    base=ScenarioSpec(
        workload="hotspot",
        scheduler="n2pl",
        seed=1313,
        workload_params={
            "transactions": 28,
            "hot_objects": 3,
            "cold_objects": 48,
            "operations_per_transaction": 4,
            "seed": 1313,
        },
    ),
    axes=(
        Axis("hot_probability", HOT_PROBABILITIES, target="workload_params.hot_probability"),
        Axis("scheduler", SCHEDULERS),
    ),
)


def run_experiment(sizing=None) -> list[dict]:
    started = time.perf_counter()
    serial_rows = SweepRunner(SWEEP, workers=0).run_rows()
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    parallel_rows = SweepRunner(SWEEP, workers=WORKERS).run_rows()
    parallel_seconds = time.perf_counter() - started

    row = {
        "scenarios": len(SWEEP),
        "workers": WORKERS,
        "cpu_count": cpu_count(),
        "serial_seconds": round(serial_seconds, 6),
        "parallel_seconds": round(parallel_seconds, 6),
        "parallel_fraction": round(parallel_seconds / max(serial_seconds, 1e-9), 4),
        "speedup": round(serial_seconds / max(parallel_seconds, 1e-9), 2),
        "rows_identical": serial_rows == parallel_rows,
        "grid": sweep_report(
            SWEEP.name,
            serial_rows,
            group_by=("scheduler",),
            metrics=("committed", "aborts", "makespan"),
        ),
    }
    return [row]


EXPERIMENT = Experiment(
    name="e13_sweep_scaling",
    title="E13: sweep fan-out — serial vs 4-worker wall-clock",
    columns=(
        "scenarios", "workers", "cpu_count", "serial_seconds", "parallel_seconds",
        "parallel_fraction", "speedup", "rows_identical",
    ),
    key_fields=("scenarios", "workers"),
    run=run_experiment,
    pinned=("rows_identical", "grid"),
)


def test_e13_sweep_scaling(benchmark):
    rows = EXPERIMENT.execute(benchmark)
    (row,) = rows
    assert row["rows_identical"], "parallel sweep rows diverged from the serial run"


if __name__ == "__main__":  # pragma: no cover - manual/CI smoke entry point
    EXPERIMENT.execute()
