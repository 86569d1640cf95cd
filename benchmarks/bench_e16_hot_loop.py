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

Two kinds of rows live in the golden ``BENCH_e16_hot_loop.json``:

* ``engine="pre_pr"`` — the pre-optimisation reference, recorded once
  before the hot-loop rewrite landed.  The bench asserts the current
  engine clears **5x** its ``decisions_per_second`` on every
  configuration (the acceptance floor; the measured factor is recorded in
  ``speedup_vs_baseline``, which ``compare_bench.py`` trend-watches).
  This is a same-machine comparison when the golden is regenerated
  locally and a cross-machine one in CI, which is why the floor leaves
  room and the wall is a best-of-``REPRO_E16_REPEATS``.
* ``engine="event"`` — the current engine.  A full-size row must be
  **bit-identical** to the golden row of its configuration — itself
  identical to the ``pre_pr`` one, which ``tests/benchmarks/`` holds — on
  every machine-independent column (decisions, makespan, commits): the
  rewrite changed how fast the engine runs, never what it computes.

What it no longer does is time the same scenario on the per-tick scan
loop: that loop lives in ``tests/oracles/engines.py``, where
``tests/simulation/test_hot_loop.py`` holds the event loop bit-identical to
it across schedulers, policies and seeds.  The golden rows carry the
``speedup_scan`` / ``wall_seconds_scan`` columns of the time it did.

``REPRO_E16_TXNS`` / ``REPRO_E16_ARRIVALS`` shorten the scenarios for
local iteration; a shortened run is written to ``benchmarks/out/`` marked
as such and is neither pinned to nor compared with the golden.
"""

from __future__ import annotations

from repro.sweep import build_engine

from .harness import Experiment, hotspot_spec, timed_best

#: Closed-batch size (the E15 hotspot workload submitted at tick 0: every
#: transaction in flight at once, so frame choice is under maximum load)
#: and streamed size at the near-capacity E15 arrival point (lambda = 0.055).
SIZE = {"closed": "REPRO_E16_TXNS", "stream": "REPRO_E16_ARRIVALS"}
STREAM_RATE = 0.055

SEED = 1515
SCHEDULERS = ("n2pl", "nto-step", "certifier")

#: Acceptance floor: decisions/second versus the recorded pre-PR baseline.
BASELINE_SPEEDUP_FLOOR = 5.0


def measure(scheduler: str, mode: str, sizing) -> dict:
    """Run one configuration and report its throughput row."""
    size = sizing[SIZE[mode]]
    spec = hotspot_spec(scheduler, size, SEED, rate=STREAM_RATE if mode == "stream" else None)
    wall, result, _ = timed_best(sizing.repeats, lambda: build_engine(spec))
    metrics = result.metrics
    decisions = metrics.decisions
    return {
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


def run_experiment(sizing) -> list[dict]:
    """Measure every configuration against its golden ``pre_pr`` row."""
    golden = EXPERIMENT.golden_rows()
    rows: list[dict] = []
    for mode in ("closed", "stream"):
        for scheduler in SCHEDULERS:
            row = measure(scheduler, mode, sizing)
            baseline = golden[(scheduler, mode, "pre_pr")]
            row["speedup_vs_baseline"] = (
                row["decisions_per_second"] / baseline["decisions_per_second"]
            )
            rows.append(row)
    return rows


EXPERIMENT = Experiment(
    name="e16_hot_loop",
    title="E16: hot-loop decision throughput",
    columns=(
        "scheduler", "mode", "engine", "transactions", "decisions", "makespan",
        "committed", "commit_rate", "wall_seconds", "decisions_per_second",
        "ticks_per_second", "speedup_vs_baseline",
    ),
    # ``engine`` in the key keeps the ``pre_pr`` reference rows apart from
    # the ``event`` rows a run produces.
    key_fields=("scheduler", "mode", "engine"),
    run=run_experiment,
    full_sizes={SIZE["closed"]: 300, SIZE["stream"]: 2000},
    repeats=("REPRO_E16_REPEATS", 2),
    # Pure functions of the spec; wall-clock columns are excluded.
    pinned=("transactions", "decisions", "makespan", "committed", "commit_rate"),
    watched=("speedup_vs_baseline",),
    # Stream scenarios finish in about half a second; anything quicker
    # than the floor is timing jitter, not signal.
    noise_floor=("wall_seconds", 0.25),
)


def test_e16_hot_loop(benchmark):
    rows = EXPERIMENT.execute(benchmark)
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
        assert speedup >= BASELINE_SPEEDUP_FLOOR, (
            f"{label}: decision throughput only {speedup:.1f}x the "
            f"recorded pre-PR baseline (floor {BASELINE_SPEEDUP_FLOOR}x)"
        )


if __name__ == "__main__":  # pragma: no cover - manual/CI smoke entry point
    EXPERIMENT.execute()
