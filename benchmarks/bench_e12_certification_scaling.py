"""E12 — post-hoc certification across run lengths, pinned to its committed rows.

Post-run certification is near-linear: histories carry persistent indexes
(per-object step lists, cached ancestor chains, sorted-interval sweeps) and
the serialisation-graph builders enumerate only actually-ordered
conflicting pairs.  This experiment certifies the committed projection of
the same low-contention hotspot workload across run lengths and two
schedulers (blocking n2pl produces long committed histories; the
optimistic certifier exercises commit-time validation during the run
itself), records a setup/run/certify wall breakdown per configuration, and
asserts that every deterministic column (commits, committed steps, SG
edges, the serialisability verdict) equals the committed rows.

What it no longer gates is a wall ratio against the from-scratch
permutation builders: those live in ``tests/oracles/graphs.py`` as the
reference the property tests compare against, and the scaling claim is
held exactly, as call counts, by ``tests/analysis/test_certification_cost.py``.
Rows recorded before carry ``certify_legacy_seconds`` / ``speedup_*`` /
``*_incremental*`` / ``commit_conflict_calls`` columns; they stay as history.

Each sweep appends to ``BENCH_e12_certification_scaling.json`` (schema:
``{"experiment", "rows": [...]}``) so the repository's performance
trajectory is recorded run over run.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.analysis import certify_history
from repro.scheduler import make_scheduler
from repro.simulation import HotspotWorkload, SimulationEngine

from .harness import append_bench_rows, print_experiment, read_bench_rows

COLUMNS = [
    "scheduler", "transactions", "committed", "committed_steps",
    "sg_edges", "serialisable", "setup_seconds", "run_seconds", "certify_seconds",
]

#: Pure functions of the seeded spec: pinned to the committed rows.
DETERMINISTIC_COLUMNS = ("committed", "committed_steps", "sg_edges", "serialisable")

LENGTHS = (12, 24, 48)
SCHEDULERS = ("n2pl", "certifier")

BENCH_JSON = Path(__file__).resolve().parent / "BENCH_e12_certification_scaling.json"


def _workload(transactions: int) -> HotspotWorkload:
    # Low contention so most transactions commit: post-run certification
    # cost is driven by the *committed* history's length.
    return HotspotWorkload(
        transactions=transactions,
        hot_objects=2,
        cold_objects=max(24, transactions),
        operations_per_transaction=4,
        hot_probability=0.05,
        seed=2202,
    )


def run_configuration(scheduler_name: str, transactions: int) -> dict:
    started = time.perf_counter()
    base, specs = _workload(transactions).build()
    scheduler = make_scheduler(scheduler_name)
    engine = SimulationEngine(base, scheduler, seed=2202)
    engine.submit_all(specs)
    setup_seconds = time.perf_counter() - started

    started = time.perf_counter()
    result = engine.run()
    run_seconds = time.perf_counter() - started

    committed = result.committed_history()
    started = time.perf_counter()
    report = certify_history(committed, check_legality=False)
    certify_seconds = time.perf_counter() - started

    return {
        "experiment": "e12_certification_scaling",
        "scheduler": scheduler_name,
        "transactions": transactions,
        "committed": result.metrics.committed,
        "committed_steps": len(committed.local_steps()),
        "sg_edges": report.sg_edges,
        "serialisable": report.serialisable,
        "setup_seconds": round(setup_seconds, 6),
        "run_seconds": round(run_seconds, 6),
        "certify_seconds": round(certify_seconds, 6),
    }


def run_experiment() -> list[dict]:
    return [
        run_configuration(scheduler_name, transactions)
        for scheduler_name in SCHEDULERS
        for transactions in LENGTHS
    ]


def committed_rows(path: Path = BENCH_JSON) -> dict[tuple, dict]:
    """The first recorded row per ``(scheduler, transactions)``: the baseline."""
    baselines: dict[tuple, dict] = {}
    for row in read_bench_rows(path):
        baselines.setdefault((row.get("scheduler"), row.get("transactions")), row)
    return baselines


def write_bench_json(rows: list[dict], path: Path = BENCH_JSON) -> None:
    """Append this sweep's rows to the recorded trajectory."""
    append_bench_rows(path, "e12_certification_scaling", rows)


def test_e12_certification_scaling(benchmark):
    baselines = committed_rows()
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_experiment("E12: post-hoc certification across run lengths", rows, COLUMNS)
    write_bench_json(rows)
    longest = max(
        (row for row in rows if row["transactions"] == max(LENGTHS)),
        key=lambda row: row["committed_steps"],
    )
    assert longest["committed_steps"] >= 100, "workload must produce a long committed history"
    for row in rows:
        label = f"{row['scheduler']}/{row['transactions']}"
        assert row["serialisable"], f"{label}: committed projection is not serialisable"
        baseline = baselines.get((row["scheduler"], row["transactions"]))
        assert baseline is not None, f"{label}: no committed row in {BENCH_JSON.name}"
        for key in DETERMINISTIC_COLUMNS:
            assert row[key] == baseline[key], (
                f"{label}: {key} drifted from the committed row: "
                f"{row[key]!r} != {baseline[key]!r}"
            )


if __name__ == "__main__":  # pragma: no cover - manual/CI smoke entry point
    experiment_rows = run_experiment()
    print_experiment(
        "E12: post-hoc certification across run lengths", experiment_rows, COLUMNS
    )
    write_bench_json(experiment_rows)
