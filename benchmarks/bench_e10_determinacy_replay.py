"""E10 — determinacy of legal histories (Theorem 1) under replay.

Theorem 1 guarantees that the final state of every object is independent of
which conflict-consistent topological sort of its local steps is replayed.
This benchmark replays recorded histories under many randomly tie-broken
sorts and measures the cost of the determinacy check, confirming the
theorem on every instance.
"""

from __future__ import annotations

import time

from repro.core import check_determinacy
from repro.sweep import ScenarioSpec, build_engine

from .harness import print_experiment

TRANSACTION_COUNTS = [6, 12, 24]
REPLAYS_PER_OBJECT = 8
COLUMNS = ["transactions", "local_steps", "objects", "replays_per_object", "deterministic", "check_seconds"]


def _committed_history(transactions: int):
    spec = ScenarioSpec(
        workload="banking",
        scheduler="n2pl",
        seed=909,
        workload_params={"accounts": 8, "transactions": transactions, "seed": 909},
    )
    return build_engine(spec).run().committed_history()


def run_experiment() -> list[dict]:
    rows = []
    for transactions in TRANSACTION_COUNTS:
        history = _committed_history(transactions)
        started = time.perf_counter()
        deterministic = check_determinacy(history, attempts=REPLAYS_PER_OBJECT, seed=1)
        elapsed = time.perf_counter() - started
        rows.append(
            {
                "transactions": transactions,
                "local_steps": len(history.local_steps()),
                "objects": len(history.object_names()),
                "replays_per_object": REPLAYS_PER_OBJECT,
                "deterministic": deterministic,
                "check_seconds": elapsed,
            }
        )
    return rows


def test_e10_determinacy_replay(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_experiment("E10: Theorem 1 — replay determinacy of recorded histories", rows, COLUMNS)
    assert all(row["deterministic"] for row in rows)
