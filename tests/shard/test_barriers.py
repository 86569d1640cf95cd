"""Barriers fall where a message is due, so every message lands when it is sent.

Each shard reports a lower bound on the tick of its next message or note;
each round a shard catches up to the barrier tick, applies its
directives, then runs to the least bound of the other shards and stops
after its first message or note.  No shard passes a tick at which another
sends, which these tests pin down on running fleets:

* causality: a remote invocation or result is consumed at a tick no
  earlier than the tick it was sent, on every workload, scheduler and
  shard count — and exactly at that tick on the end-to-end benchmark's
  2-shard stream and on E18's split-hot ``cross`` case; an injected crash
  of cross-shard work is reported within a tick of the crash;
* a fleet with no cross-shard work needs at most two barriers, and its
  run is otherwise the one E18's golden records.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import pytest

from benchmarks.bench_e18_sharding import (
    COLOCATED_HOT,
    CROSS_TRANSACTIONS,
    SPLIT_HOT,
    _cross_spec,
    _scaling_spec,
)
from repro.shard import ShardMap, ShardWorker, ShardedEngine
from repro.sweep import summarise_sharded_run
from tests.shard.test_commit_protocol import hotspot_2shard_spec
from tests.shard.test_shard_retention import SCHEDULERS, WORKLOADS, make_spec

E18_GOLDEN = Path(__file__).resolve().parents[2] / "benchmarks" / "BENCH_e18_sharding.json"


@pytest.fixture
def message_ticks(monkeypatch):
    """``(kind, remote id) -> {"send": tick, "consume": tick}`` on the engine clocks."""
    log: dict[tuple[str, str], dict[str, int]] = defaultdict(dict)
    send_invoke = ShardWorker._send_remote_invoke
    admit_remote = ShardWorker.admit_remote
    deliver_to_parent = ShardWorker._deliver_to_parent
    deliver_result = ShardWorker.deliver_remote_result

    def sent_invoke(engine, frame, invocation):
        remote_id = send_invoke(engine, frame, invocation)
        log["invoke", remote_id]["send"] = engine._tick
        return remote_id

    def admitted(engine, gid, remote_id, *args):
        log["invoke", remote_id]["consume"] = engine._tick
        return admit_remote(engine, gid, remote_id, *args)

    def sent_result(engine, child, value):
        remote_id = engine._reply_to.get(child.execution_id)
        if remote_id is not None:
            log["result", remote_id]["send"] = engine._tick
        return deliver_to_parent(engine, child, value)

    def delivered(engine, remote_id, value):
        log["result", remote_id]["consume"] = engine._tick
        return deliver_result(engine, remote_id, value)

    monkeypatch.setattr(ShardWorker, "_send_remote_invoke", sent_invoke)
    monkeypatch.setattr(ShardWorker, "admit_remote", admitted)
    monkeypatch.setattr(ShardWorker, "_deliver_to_parent", sent_result)
    monkeypatch.setattr(ShardWorker, "deliver_remote_result", delivered)
    return log


def delivered_pairs(log) -> list[tuple[int, int]]:
    """``(send, consume)`` of every message the coordinator delivered."""
    pairs = [(ticks["send"], ticks["consume"]) for ticks in log.values() if "consume" in ticks]
    assert pairs, "no message crossed a shard"
    return pairs


class TestCausality:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("shards", (2, 3))
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_no_message_is_consumed_before_it_is_sent(
        self, message_ticks, scheduler, shards, workload
    ):
        spec = make_spec(workload, scheduler, 3, certify=False)
        ShardedEngine(spec, ShardMap(shards=shards)).run()
        assert all(consume >= send for send, consume in delivered_pairs(message_ticks))

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_an_injected_crash_reports_its_abort_at_once(
        self, message_ticks, monkeypatch, scheduler
    ):
        notes = []
        round_ = ShardWorker.round

        def drained(worker, *args):
            report = round_(worker, *args)
            notes.extend(
                (report.tick, note)
                for note in report.notes
                if "fault" in note[-1] and note[1].startswith(worker.id_prefix)
            )
            return report

        monkeypatch.setattr(ShardWorker, "round", drained)
        spec = make_spec("hotspot-stream", scheduler, 3, certify=False)
        # A sparse stream, so a crash often leaves its shard nothing to run.
        spec = replace(
            spec,
            workload_params={**spec.workload_params, "arrival_params": {"rate": 0.01}},
            engine_params={"fault_plan": {"name": "crash", "period": 37}},
        )
        result = ShardedEngine(spec, ShardMap(shards=2)).run()
        assert result.metrics.faults_injected > 0
        assert all(consume >= send for send, consume in delivered_pairs(message_ticks))
        # A crash of cross-shard work ends the round: the victim's home
        # shard reports the abort within a tick of the crash, a multiple of
        # the period (a session's share re-notes it when the abort arrives).
        assert notes, "no crash hit cross-shard work"
        assert all(tick % 37 <= 1 for tick, _ in notes), notes

    @pytest.mark.parametrize(
        "case",
        ("hotspot-stream-2shard-nto", "e18-cross-n2pl", "e18-cross-certifier"),
    )
    def test_every_message_lands_at_its_send_tick(self, message_ticks, case):
        if case == "hotspot-stream-2shard-nto":
            spec, shard_map = hotspot_2shard_spec(transactions=120), ShardMap(shards=2)
        else:
            spec = _cross_spec(case.rsplit("-", 1)[1], CROSS_TRANSACTIONS)
            shard_map = ShardMap(shards=2, assignment=SPLIT_HOT)
        ShardedEngine(spec, shard_map).run()
        pairs = delivered_pairs(message_ticks)
        assert [pair for pair in pairs if pair[0] != pair[1]] == []


#: The E18 row columns a local-only fleet must reproduce from the golden.
SCALING_COLUMNS = (
    "committed",
    "gave_up",
    "commit_rate",
    "throughput",
    "makespan",
    "remote_invocations",
    "cross_commits",
    "cross_aborts",
    "serialisable",
)


class TestLocalOnlyFleet:
    @pytest.mark.parametrize("shards", (2, 4))
    def test_finishes_in_two_barriers_with_the_golden_run(self, shards):
        spec = _scaling_spec(400)
        result = ShardedEngine(spec, ShardMap(shards=shards, assignment=COLOCATED_HOT)).run()
        # One barrier collects the first bounds (nobody sends, ever), the
        # second runs every shard to completion.
        assert result.rounds <= 2
        row = summarise_sharded_run(result, spec.scheduler)
        golden = next(
            entry
            for entry in json.loads(E18_GOLDEN.read_text())["rows"]
            if (entry["case"], entry["mode"], entry["shards"]) == ("scaling", "inprocess", shards)
        )
        assert {column: row[column] for column in SCALING_COLUMNS} == {
            column: golden[column] for column in SCALING_COLUMNS
        }
        assert golden["shard_rounds"] == result.rounds
