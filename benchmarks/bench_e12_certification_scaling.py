"""E12 — certification cost scaling: indexed vs from-scratch.

PR 2 made post-run certification near-linear: histories carry persistent
indexes (per-object step lists, cached ancestor chains, sorted-interval
sweeps) and the serialisation-graph builders enumerate only
actually-ordered conflicting pairs.  The original permutation builders
are retained as ``sg_mode="legacy"`` — this experiment certifies the same
committed projection under both modes and times them, across run lengths
and two schedulers (blocking n2pl produces long committed histories; the
optimistic certifier exercises the incremental commit-time validation
during the run itself).  Rows recorded before the ``"incremental"`` mode
was deleted keep their ``*_incremental*`` columns as history.

Each sweep appends to ``BENCH_e12_certification_scaling.json`` (schema:
``{"experiment", "rows": [...]}``) with a setup/run/certify timing
breakdown per configuration, so the repository's performance trajectory is
recorded run over run; CI diffs the file against the committed baseline
and warns on >30% wall-time regressions (``benchmarks/compare_bench.py``).
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.analysis import certify_history
from repro.scheduler import make_scheduler
from repro.simulation import HotspotWorkload, SimulationEngine

from .harness import append_bench_rows, print_experiment

COLUMNS = [
    "scheduler", "transactions", "committed", "committed_steps",
    "setup_seconds", "run_seconds",
    "certify_legacy_seconds", "certify_indexed_seconds",
    "speedup_indexed",
]

LENGTHS = (12, 24, 48)
SCHEDULERS = ("n2pl", "certifier")
SPEEDUP_FLOOR = 5.0

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
    timings: dict[str, float] = {}
    reports = {}
    for sg_mode in ("legacy", "indexed"):
        started = time.perf_counter()
        reports[sg_mode] = certify_history(committed, check_legality=False, sg_mode=sg_mode)
        timings[sg_mode] = time.perf_counter() - started
    verdicts = {
        (report.serialisable, report.theorem5_holds, report.sg_edges)
        for report in reports.values()
    }
    if len(verdicts) != 1:
        raise AssertionError(f"certification modes disagree: {verdicts!r}")

    row = {
        "experiment": "e12_certification_scaling",
        "scheduler": scheduler_name,
        "transactions": transactions,
        "committed": result.metrics.committed,
        "committed_steps": len(committed.local_steps()),
        "sg_edges": reports["indexed"].sg_edges,
        "serialisable": reports["indexed"].serialisable,
        "setup_seconds": round(setup_seconds, 6),
        "run_seconds": round(run_seconds, 6),
        "certify_legacy_seconds": round(timings["legacy"], 6),
        "certify_indexed_seconds": round(timings["indexed"], 6),
        "speedup_indexed": round(timings["legacy"] / max(timings["indexed"], 1e-9), 2),
    }
    if scheduler_name == "certifier":
        description = scheduler.describe()
        row["commit_conflict_calls"] = description.get("commit_conflict_calls", 0)
    return row


def run_experiment() -> list[dict]:
    return [
        run_configuration(scheduler_name, transactions)
        for scheduler_name in SCHEDULERS
        for transactions in LENGTHS
    ]


def write_bench_json(rows: list[dict], path: Path = BENCH_JSON) -> None:
    """Append this sweep's rows to the recorded trajectory."""
    append_bench_rows(path, "e12_certification_scaling", rows)


def test_e12_certification_scaling(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_experiment("E12: certification cost — legacy vs indexed", rows, COLUMNS)
    write_bench_json(rows)
    # The online certifier must never re-enumerate step pairs at commit.
    for row in rows:
        if row["scheduler"] == "certifier":
            assert row["commit_conflict_calls"] == 0
    # At the longest run length the indexed path must beat the from-scratch
    # builders by at least SPEEDUP_FLOOR on the scheduler with the longest
    # committed history.
    longest = max(
        (row for row in rows if row["transactions"] == max(LENGTHS)),
        key=lambda row: row["committed_steps"],
    )
    assert longest["committed_steps"] >= 100, "workload must produce a long committed history"
    assert longest["speedup_indexed"] >= SPEEDUP_FLOOR, (
        f"indexed certification only {longest['speedup_indexed']}x faster than legacy "
        f"at {longest['transactions']} transactions"
    )


if __name__ == "__main__":  # pragma: no cover - manual/CI smoke entry point
    experiment_rows = run_experiment()
    print_experiment(
        "E12: certification cost — legacy vs indexed", experiment_rows, COLUMNS
    )
    write_bench_json(experiment_rows)
