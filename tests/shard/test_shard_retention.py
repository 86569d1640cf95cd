"""Shard workers that do not certify keep only in-flight history.

Only committed projections are ever judged (Definitions 6 and 10), and
only a worker that certifies its shard post hoc reads one.  Every other
shard engine's :class:`~repro.core.history.HistoryBuilder` forgets each
transaction's subtree once it commits or aborts, home roots and remote
sessions alike.  The tests pin that down:

* retention, exactly: after every barrier an uncertified worker's builder
  holds the executions of its live transactions and nothing else, and at
  the end of the run it holds nothing;
* the twin: the same spec run with and without certification is one run
  (per-shard commits and aborts, merged metrics, final states, the
  coordinator's counters and the round count all agree);
* a certified run still keeps each shard's whole history and returns
  per-shard verdicts;
* the shard's step tracker forgets a transaction by its own records only,
  and emits exactly the edges, in exactly the order, of the list-scanning
  tracker it replaced (the reference below).
"""

from __future__ import annotations

import pytest

from repro.shard import ShardMap, ShardStepTracker, ShardWorker, ShardedEngine
from repro.sweep import ScenarioSpec

SCHEDULERS = ("n2pl", "nto-step", "certifier", "modular")

#: A hotspot stream and a closed batch of nested register work.
WORKLOADS = {
    "hotspot-stream": {
        "inner_params": {
            "transactions": 30,
            "hot_objects": 2,
            "cold_objects": 16,
            "operations_per_transaction": 2,
            "hot_probability": 0.25,
            "use_service_layer": False,
        },
        "arrival": "poisson",
        "arrival_params": {"rate": 0.05},
    },
    "random-ops": {
        "transactions": 24,
        "registers": 12,
        "operations_per_transaction": 2,
        "write_fraction": 0.5,
        "nesting_depth": 2,
    },
}


def make_spec(workload: str, scheduler: str, seed: int, *, certify: bool) -> ScenarioSpec:
    params = dict(WORKLOADS[workload])
    if "inner_params" in params:
        params["inner_params"] = {**params["inner_params"], "seed": seed}
    else:
        params["seed"] = seed
    return ScenarioSpec(
        workload=workload,
        scheduler=scheduler,
        seed=seed,
        workload_params=params,
        scheduler_kwargs={"restart_policy": "backoff"},
        certify=certify,
    )


def run(workload: str, scheduler: str, shards: int, *, certify: bool, seed: int = 3):
    spec = make_spec(workload, scheduler, seed, certify=certify)
    return ShardedEngine(spec, ShardMap(shards=shards)).run()


def live_executions(engine) -> set[str]:
    return {eid for ids in engine._executions_by_transaction.values() for eid in ids}


@pytest.fixture
def checked_workers(monkeypatch):
    """Check every uncertified worker's builder at each barrier and at the end."""
    checks = {"barriers": 0, "finalized": 0, "settled": 0}
    round_, finalize = ShardWorker.round, ShardWorker.finalize

    def checked_round(worker, directives, now, horizon):
        report = round_(worker, directives, now, horizon)
        if not worker._certify:
            assert set(worker._builder._executions) == live_executions(worker)
            checks["barriers"] += 1
        return report

    def checked_finalize(worker):
        payload = finalize(worker)
        builder = worker._builder
        if not worker._certify:
            assert not builder._executions and not builder._intervals
            assert not builder._open_messages and not builder._child_counters
            checks["finalized"] += 1
            checks["settled"] += len(payload["committed"]) + len(payload["aborted"])
        return payload

    monkeypatch.setattr(ShardWorker, "round", checked_round)
    monkeypatch.setattr(ShardWorker, "finalize", checked_finalize)
    return checks


class TestUncertifiedWorkersForget:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("shards", (2, 3))
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_builder_holds_only_live_executions(
        self, checked_workers, scheduler, shards, workload
    ):
        result = run(workload, scheduler, shards, certify=False)
        metrics = result.metrics
        assert metrics.committed + metrics.gave_up == metrics.submitted
        assert metrics.remote_invocations > 0, "no work crossed a shard"
        assert result.serialisable is None
        assert checked_workers["finalized"] == shards
        assert checked_workers["barriers"] >= shards * result.rounds
        assert checked_workers["settled"] > metrics.submitted


class TestCertifiedAndUncertifiedTwins:
    """Forgetting settled history never steers the run."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("shards", (2, 3))
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_the_two_runs_are_one_run(self, scheduler, shards, workload):
        certified = run(workload, scheduler, shards, certify=True)
        plain = run(workload, scheduler, shards, certify=False)
        for kept, forgot in zip(certified.shards, plain.shards):
            assert kept.committed == forgot.committed
            assert kept.aborted == forgot.aborted
            assert kept.tracker_live_records == forgot.tracker_live_records
        assert certified.metrics.as_dict() == plain.metrics.as_dict()
        assert certified.final_states() == plain.final_states()
        assert certified.coordinator == plain.coordinator
        assert certified.rounds == plain.rounds


class TestCertifiedShardedRun:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_each_shard_returns_its_verdicts(self, scheduler):
        spec = make_spec("hotspot-stream", scheduler, 5, certify=True)
        result = ShardedEngine(spec, ShardMap(shards=2), check_legality=True).run()
        assert [outcome.serialisable for outcome in result.shards] == [True, True]
        assert [outcome.legal for outcome in result.shards] == [True, True]
        assert result.serialisable is True and result.legal is True


class ScanningTracker:
    """The reference: one record list per object, rebuilt on every forget."""

    def __init__(self, step_conflicts):
        self._conflicts = step_conflicts
        self._steps: dict[str, list] = {}
        self._emitted: set[tuple[str, str]] = set()
        self._edges: list[tuple[str, str]] = []

    def note_step(self, info, step) -> None:
        gid = info.top_level_id
        spec = self._conflicts[step.object_name]
        records = self._steps.setdefault(step.object_name, [])
        for other_gid, other_step in records:
            if other_gid != gid and spec.steps_conflict(other_step, step):
                edge = (other_gid, gid)
                if edge not in self._emitted:
                    self._emitted.add(edge)
                    self._edges.append(edge)
        records.append((gid, step))

    def forget(self, gid: str) -> None:
        for object_name in list(self._steps):
            kept = [entry for entry in self._steps[object_name] if entry[0] != gid]
            if kept:
                self._steps[object_name] = kept
            else:
                del self._steps[object_name]
        self._emitted = {edge for edge in self._emitted if gid not in edge}

    def drain_edges(self) -> list[tuple[str, str]]:
        edges, self._edges = self._edges, []
        return edges

    def live_records(self) -> int:
        return sum(len(records) for records in self._steps.values())


class TestTrackerForget:
    @pytest.mark.parametrize("scheduler", ("nto-step", "certifier"))
    def test_indexed_tracker_matches_the_scanning_reference(self, monkeypatch, scheduler):
        """Same edges, same order, same live records at every barrier."""
        shadows: dict[int, ScanningTracker] = {}
        drains = []
        note_step, forget = ShardStepTracker.note_step, ShardStepTracker.forget
        drain_edges = ShardStepTracker.drain_edges

        def shadow(tracker) -> ScanningTracker:
            if id(tracker) not in shadows:
                shadows[id(tracker)] = ScanningTracker(tracker._conflicts)
            return shadows[id(tracker)]

        def shadowed_note_step(tracker, info, step):
            shadow(tracker).note_step(info, step)
            note_step(tracker, info, step)

        def shadowed_forget(tracker, gid):
            shadow(tracker).forget(gid)
            forget(tracker, gid)

        def shadowed_drain(tracker):
            edges, reference = drain_edges(tracker), shadow(tracker)
            assert edges == reference.drain_edges()
            assert tracker.live_records() == reference.live_records()
            assert tracker._emitted == reference._emitted
            drains.append(len(edges))
            return edges

        monkeypatch.setattr(ShardStepTracker, "note_step", shadowed_note_step)
        monkeypatch.setattr(ShardStepTracker, "forget", shadowed_forget)
        monkeypatch.setattr(ShardStepTracker, "drain_edges", shadowed_drain)
        run("hotspot-stream", scheduler, 2, certify=False)
        assert sum(drains) > 0, "the tracker emitted no edge"
