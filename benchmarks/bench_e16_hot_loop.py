"""E16 — hot-loop throughput: the event-driven engine against its own history.

Every benchmark before this one measured *policies* (which scheduler wins,
how restart policies recover).  E16 measures the *engine*: how many
scheduling decisions per second the hot loop can resolve on the E15
hotspot configuration, closed and streamed, across the three headline
schedulers.  It exists to lock in the PR-6 raw-speed pass (ROADMAP item
3): the ready queue that made ``_choose_frame`` O(1), the unified event
heap that made idle-tick handling a single heap probe, the slotted record
types, and the O(1) ``HistoryBuilder`` step index that killed the
quadratic ``_find_step`` scan.

Two kinds of rows accumulate in ``BENCH_e16_hot_loop.json``:

* ``engine="pre_pr"`` — the committed pre-optimisation baseline, recorded
  once before the hot-loop rewrite landed.  The bench asserts the current
  engine clears **5x** its ``decisions_per_second`` on every
  configuration (the acceptance floor; the measured factor is recorded in
  ``speedup_vs_baseline``, which ``compare_bench.py`` trend-watches).
  This is a same-machine comparison when the trajectory is regenerated
  locally and a cross-machine one in CI, which is why the floor leaves
  room and the wall is a best-of-``REPRO_E16_REPEATS``.
* ``engine="event"`` — the current engine.  A full-size row must be
  **bit-identical** to the ``pre_pr`` row of its configuration on every
  machine-independent column (decisions, makespan, commits): the rewrite
  changed how fast the engine runs, never what it computes.

What it no longer does is time the same scenario on the per-tick scan
loop: that loop lives in ``tests/oracles/engines.py``, where
``tests/simulation/test_hot_loop.py`` holds the event loop bit-identical to
it across schedulers, policies and seeds.  Rows recorded before carry
``speedup_scan`` / ``wall_seconds_scan``; they stay as history.

``REPRO_E16_TXNS`` / ``REPRO_E16_ARRIVALS`` shorten the scenarios for
local iteration; shortened runs are never appended to the trajectory.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.scheduler import make_scheduler
from repro.simulation import SimulationEngine
from repro.simulation.workloads import make_workload

from .harness import append_bench_rows, print_experiment, read_bench_rows

COLUMNS = [
    "scheduler", "mode", "engine", "transactions", "decisions", "makespan",
    "committed", "commit_rate", "wall_seconds", "decisions_per_second",
    "ticks_per_second", "speedup_vs_baseline",
]

BENCH_JSON = Path(__file__).resolve().parent / "BENCH_e16_hot_loop.json"

#: Closed-batch size (the E15 hotspot workload submitted at tick 0: every
#: transaction in flight at once, so frame choice is under maximum load).
DEFAULT_TXNS = 300
#: Streamed size at the near-capacity E15 arrival point (lambda = 0.055).
DEFAULT_ARRIVALS = 2000
STREAM_RATE = 0.055

TXNS = int(os.environ.get("REPRO_E16_TXNS", DEFAULT_TXNS))
ARRIVALS = int(os.environ.get("REPRO_E16_ARRIVALS", DEFAULT_ARRIVALS))
#: Timing repeats per configuration; the best (minimum) wall is kept, which
#: filters scheduler-noise spikes out of sub-second measurements.
REPEATS = max(1, int(os.environ.get("REPRO_E16_REPEATS", 2)))

SEED = 1515
SCHEDULERS = ("n2pl", "nto-step", "certifier")

#: Acceptance floor: decisions/second versus the recorded pre-PR baseline.
BASELINE_SPEEDUP_FLOOR = 5.0

#: Columns that must be bit-identical to the committed ``pre_pr`` rows
#: (pure functions of the spec; wall-clock columns are excluded).
DETERMINISTIC_COLUMNS = (
    "transactions", "decisions", "makespan", "committed", "commit_rate",
)


def _build_engine(scheduler: str, mode: str, size: int):
    workload = make_workload(
        "hotspot",
        transactions=size,
        hot_objects=2,
        cold_objects=128,
        operations_per_transaction=2,
        hot_probability=0.05,
        use_service_layer=False,
        seed=SEED,
    )
    base, specs = workload.build()
    engine = SimulationEngine(
        base, make_scheduler(scheduler, restart_policy="backoff"), seed=SEED
    )
    if mode == "stream":
        engine.submit_stream(specs, {"name": "poisson", "rate": STREAM_RATE})
    else:
        engine.submit_all(specs)
    return engine


def measure(scheduler: str, mode: str) -> dict:
    """Run one configuration and report its throughput row.

    The scenario runs ``REPEATS`` times (engines are single-use, so each
    timing gets a fresh engine) and the fastest wall is reported; every
    run computes identical results, so only the timing varies.
    """
    size = ARRIVALS if mode == "stream" else TXNS
    wall = float("inf")
    for _ in range(REPEATS):
        engine = _build_engine(scheduler, mode, size)
        started = time.perf_counter()
        result = engine.run()
        wall = min(wall, time.perf_counter() - started)
    metrics = result.metrics
    decisions = metrics.decisions
    return {
        "experiment": "e16_hot_loop",
        "scheduler": scheduler,
        "mode": mode,
        "engine": "event",
        "transactions": size,
        "decisions": decisions,
        "makespan": metrics.total_ticks,
        "committed": metrics.committed,
        "commit_rate": metrics.commit_rate,
        "wall_seconds": wall,
        "decisions_per_second": decisions / max(wall, 1e-9),
        "ticks_per_second": metrics.total_ticks / max(wall, 1e-9),
    }


def _baseline_rows(path: Path = BENCH_JSON) -> dict[tuple, dict]:
    """The recorded ``pre_pr`` row per ``(scheduler, mode)``."""
    baselines: dict[tuple, dict] = {}
    for row in read_bench_rows(path):
        if row.get("engine") == "pre_pr":
            baselines.setdefault((row.get("scheduler"), row.get("mode")), row)
    return baselines


def run_experiment() -> list[dict]:
    """Measure every configuration against its committed ``pre_pr`` row."""
    baselines = _baseline_rows()
    rows: list[dict] = []
    for mode in ("closed", "stream"):
        for scheduler in SCHEDULERS:
            row = measure(scheduler, mode)
            baseline = baselines.get((scheduler, mode))
            row["speedup_vs_baseline"] = (
                row["decisions_per_second"] / baseline["decisions_per_second"]
                if baseline
                else None
            )
            if baseline and _full_size([row]):
                for column in DETERMINISTIC_COLUMNS:
                    assert row[column] == baseline[column], (
                        f"{scheduler}/{mode}: {column} drifted from the committed "
                        f"pre_pr row: {row[column]!r} != {baseline[column]!r}"
                    )
            rows.append(row)
    return rows


def _full_size(rows: list[dict]) -> bool:
    return all(
        row["transactions"] == (DEFAULT_ARRIVALS if row["mode"] == "stream" else DEFAULT_TXNS)
        for row in rows
    )


def write_bench_json(rows: list[dict], path: Path = BENCH_JSON) -> None:
    """Append full-size sweeps to the trajectory (shortened runs never)."""
    if rows and _full_size(rows):
        append_bench_rows(path, "e16_hot_loop", rows)


def test_e16_hot_loop(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_experiment("E16: hot-loop decision throughput", rows, COLUMNS)
    write_bench_json(rows)
    for row in rows:
        label = f"{row['scheduler']}/{row['mode']}"
        assert row["committed"] == row["transactions"], (
            f"{label}: only {row['committed']}/{row['transactions']} commits"
        )
        # The acceptance gate: >=5x decision throughput over the recorded
        # pre-PR baseline (the measured factor is ~an order of magnitude;
        # the floor absorbs machine variance between the recording host
        # and CI runners).
        speedup = row["speedup_vs_baseline"]
        if speedup is not None:
            assert speedup >= BASELINE_SPEEDUP_FLOOR, (
                f"{label}: decision throughput only {speedup:.1f}x the "
                f"recorded pre-PR baseline (floor {BASELINE_SPEEDUP_FLOOR}x)"
            )


if __name__ == "__main__":  # pragma: no cover - manual/CI smoke entry point
    experiment_rows = run_experiment()
    print_experiment("E16: hot-loop decision throughput", experiment_rows, COLUMNS)
    write_bench_json(experiment_rows)
