"""Certification cost, held as counts rather than walls.

Definition 6 condition 2c used to be enumerated over every ordered step
pair × both descendant sets, and ``SG_mesg`` rebuilt per object by
rescanning every ``SG_local`` edge of every object; both are now one pass
(DESIGN.md "Certification complexity", *Legality*).  The counts below are
exact at a fixed seed, so the test holds the growth law itself instead of
a timing that a busy host can blur.

The streaming certifier checks ``SG(h)`` on its top-level projection while
the run is going and builds the execution-level graphs only in
``finalise`` (DESIGN.md "Streaming certification"); its test pins the
projection's kernel counters on a fixed stream.
"""

from __future__ import annotations

import pytest

import repro
from repro.analysis import certify_history
from repro.core import History
from repro.core.dag import PrecedenceDag
from repro.sweep import ScenarioSpec, build_engine


def committed_banking_history(transactions: int) -> History:
    """The committed projection of a closed banking batch under the certifier.

    Accounts and branches grow with the batch, so contention per object
    stays put: at a fixed object count the conflicting pairs per object —
    the ``k`` of ``O(n log n + k)`` that condition 2b and ``SG_local`` must
    look at whatever the algorithm — are themselves quadratic in ``n``.
    """
    result = repro.run(
        "banking",
        workload_params={
            "transactions": transactions,
            "accounts": 32 * transactions // 120,
            "branches": 2 * transactions // 120,
            "seed": 12,
        },
        scheduler="certifier",
        scheduler_kwargs={"restart_policy": "backoff"},
        seed=12,
        certify=False,
    )
    return result.committed_history()


def count_calls(monkeypatch: pytest.MonkeyPatch, name: str) -> list[int]:
    """Wrap ``History.<name>`` so that it counts its calls into the returned cell."""
    original = getattr(History, name)
    calls = [0]

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(History, name, counted)
    return calls


def test_certification_work_grows_with_the_history_not_its_square(monkeypatch):
    # ``precedes`` is the unit of work of the legality check (nothing else
    # in certify_history calls it); an ancestor chain is fetched twice per
    # SG_local edge mapped up into SG_mesg and twice per conflict witness
    # of SG(h), so ``ancestors`` counts edge visits.
    precedes = count_calls(monkeypatch, "precedes")
    ancestors = count_calls(monkeypatch, "ancestors")
    steps, comparisons, visits = [], [], []
    for transactions in (120, 240):
        history = committed_banking_history(transactions)
        precedes[0] = ancestors[0] = 0
        report = certify_history(history)
        assert report.correct and report.committed_transactions == transactions
        steps.append(len(history.steps()))
        comparisons.append(precedes[0])
        visits.append(ancestors[0])

    assert steps[1] >= 1.9 * steps[0], steps
    assert all(calls <= 3 * count for calls, count in zip(comparisons, steps)), comparisons
    assert comparisons[1] <= 2.5 * comparisons[0], comparisons
    assert visits[1] <= 2.5 * visits[0], visits


def test_streaming_certifier_checks_the_top_level_projection_only():
    # The zipf-stream-modular benchmark's configuration, cut to 300 arrivals.
    spec = ScenarioSpec(
        workload="zipf-stream",
        workload_params={
            "inner_params": {
                "transactions": 300,
                "objects": 48,
                "skew": 1.1,
                "operations_per_transaction": 3,
                "seed": 12,
            },
            "arrival": "poisson",
            "arrival_params": {"rate": 0.012},
        },
        scheduler="modular",
        scheduler_kwargs={"restart_policy": "backoff"},
        seed=12,
        engine_params={"gc_interval": 16},
        certify="stream",
        check_legality=True,
    )
    engine = build_engine(spec)
    certifier = engine._certifier
    note_commit = certifier.note_commit
    held = set()

    def checked_note_commit(*args, **kwargs):
        note_commit(*args, **kwargs)
        # Until finalise, the one graph is the projection, over top-level ids.
        held.update(
            id(value) for value in vars(certifier).values() if isinstance(value, PrecedenceDag)
        )
        assert not any("." in node for node in certifier._projection.nodes())

    certifier.note_commit = checked_note_commit
    result = engine.run()
    assert held == {id(certifier._projection)}
    assert result.metrics.committed == 300 and result.streaming_report.correct
    assert certifier._projection.counters() == {
        "edge_inserts": 1207,
        "dfs_visits": 938,
        "rollbacks": 0,
    }
