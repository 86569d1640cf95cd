"""Certification cost, held as counts rather than walls.

Definition 6 condition 2c used to be enumerated over every ordered step
pair × both descendant sets, and ``SG_mesg`` rebuilt per object by
rescanning every ``SG_local`` edge of every object; legality is now one
pass, and post-hoc certification is the streaming certifier fed the whole
history (DESIGN.md "Certification complexity").  The counts below are
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
from repro.analysis import StreamingCertifier, certify_history
from repro.core import History, PerObjectConflicts
from repro.core.dag import PrecedenceDag
from repro.sweep import ScenarioSpec, build_engine


def committed_banking_history(transactions: int) -> History:
    """The committed projection of a closed banking batch under the certifier.

    Accounts and branches grow with the batch, so contention per object
    stays put: at a fixed object count the conflicting pairs per object —
    the ``k`` of ``O(n log n + k)`` that condition 2b and the certifier's
    window must look at whatever the algorithm — are themselves quadratic
    in ``n``.
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


class CountingConflicts(PerObjectConflicts):
    """A conflict registry whose specs count their ``steps_conflict`` calls."""

    def __init__(self, inner: PerObjectConflicts):
        super().__init__()
        self.inner = inner
        self.calls = 0

    def __getitem__(self, object_name):
        registry, spec = self, self.inner[object_name]

        class Counted:
            def steps_conflict(self, first, second):
                registry.calls += 1
                return spec.steps_conflict(first, second)

        return Counted()


def test_certification_work_grows_with_the_history_not_its_square(monkeypatch):
    # ``precedes`` is the unit of work of the legality check (the certifier
    # never calls it).  The certifier's work is its conflict-spec calls —
    # the window scan at each commit and its replay in ``finalise`` — and
    # the projection's kernel counters.
    built: list[tuple[StreamingCertifier, CountingConflicts]] = []
    certifier_init = StreamingCertifier.__init__

    def counting_init(self, conflicts, initial_states=None):
        counting = CountingConflicts(conflicts)
        certifier_init(self, counting, initial_states)
        built.append((self, counting))

    monkeypatch.setattr(StreamingCertifier, "__init__", counting_init)
    precedes = count_calls(monkeypatch, "precedes")
    steps, comparisons, work = [], [], []
    for transactions in (120, 240):
        history = committed_banking_history(transactions)
        precedes[0] = 0
        report = certify_history(history)
        assert report.correct and report.committed_transactions == transactions
        ((certifier, counting),) = built
        built.clear()
        steps.append(len(history.steps()))
        comparisons.append(precedes[0])
        work.append({"conflict_calls": counting.calls, **certifier._projection.counters()})

    assert steps == [824, 1672]
    # 204 and 408 of these are condition 2a's, one per generating pair of
    # programme order; no execution here has three steps in sequence, so
    # storing sequential steps as a chain (k - 1 pairs) moved neither.
    assert comparisons == [1592, 3278]
    assert work == [
        {"conflict_calls": 4199, "edge_inserts": 1000, "dfs_visits": 908, "rollbacks": 0},
        {"conflict_calls": 9003, "edge_inserts": 2205, "dfs_visits": 2508, "rollbacks": 0},
    ]
    assert all(calls <= 3 * count for calls, count in zip(comparisons, steps)), comparisons
    assert comparisons[1] <= 2.5 * comparisons[0], comparisons
    for counter in ("conflict_calls", "edge_inserts"):
        assert work[1][counter] <= 2.5 * work[0][counter], counter
    # A cycle check walks what the new edges reach, which lengthens with the
    # batch; the visits still grow well short of the 4x of a square.
    assert work[1]["dfs_visits"] <= 3 * work[0]["dfs_visits"]


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
