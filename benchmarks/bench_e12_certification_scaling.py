"""E12 — post-hoc certification across run lengths, pinned to its golden rows.

Post-run certification is near-linear: histories carry persistent indexes
(per-object step lists, cached ancestor chains, sorted-interval sweeps) and
the serialisation-graph builders enumerate only actually-ordered
conflicting pairs.  This experiment certifies the committed projection of
the same low-contention hotspot workload across run lengths and two
schedulers (blocking n2pl produces long committed histories; the
optimistic certifier exercises commit-time validation during the run
itself), and asserts that every column (commits, committed steps, SG
edges, the serialisability verdict) equals the golden rows.

It times nothing.  The from-scratch permutation builders live in
``tests/oracles/graphs.py`` as the reference the property tests compare
against, the scaling claim is held exactly, as call counts, by
``tests/analysis/test_certification_cost.py``, and the certification wall
is ``bench/``'s ``analysis.certify.certify_run_s`` on the
``banking-closed-certifier`` workload.
"""

from __future__ import annotations

from repro.analysis import certify_history
from repro.sweep import ScenarioSpec, build_engine

from .harness import Experiment

LENGTHS = (12, 24, 48)
SCHEDULERS = ("n2pl", "certifier")


def _spec(scheduler_name: str, transactions: int) -> ScenarioSpec:
    # Low contention so most transactions commit: post-run certification
    # cost is driven by the *committed* history's length.
    return ScenarioSpec(
        workload="hotspot",
        scheduler=scheduler_name,
        seed=2202,
        workload_params={
            "transactions": transactions,
            "hot_objects": 2,
            "cold_objects": max(24, transactions),
            "operations_per_transaction": 4,
            "hot_probability": 0.05,
            "seed": 2202,
        },
        certify=False,
    )


def run_configuration(scheduler_name: str, transactions: int) -> dict:
    result = build_engine(_spec(scheduler_name, transactions)).run()
    committed = result.committed_history()
    report = certify_history(committed, check_legality=False)
    return {
        "scheduler": scheduler_name,
        "transactions": transactions,
        "committed": result.metrics.committed,
        "committed_steps": len(committed.local_steps()),
        "sg_edges": report.sg_edges,
        "serialisable": report.serialisable,
    }


def run_experiment(sizing=None) -> list[dict]:
    return [
        run_configuration(scheduler_name, transactions)
        for scheduler_name in SCHEDULERS
        for transactions in LENGTHS
    ]


PINNED = ("committed", "committed_steps", "sg_edges", "serialisable")

EXPERIMENT = Experiment(
    name="e12_certification_scaling",
    title="E12: post-hoc certification across run lengths",
    columns=("scheduler", "transactions", *PINNED),
    key_fields=("scheduler", "transactions"),
    run=run_experiment,
    pinned=PINNED,
)


def test_e12_certification_scaling(benchmark):
    rows = EXPERIMENT.execute(benchmark)
    longest = max(
        (row for row in rows if row["transactions"] == max(LENGTHS)),
        key=lambda row: row["committed_steps"],
    )
    assert longest["committed_steps"] >= 100, "workload must produce a long committed history"
    for row in rows:
        label = f"{row['scheduler']}/{row['transactions']}"
        assert row["serialisable"], f"{label}: committed projection is not serialisable"


if __name__ == "__main__":  # pragma: no cover - manual/CI smoke entry point
    EXPERIMENT.execute()
