"""The sharded two-phase commit, barrier by barrier, and dead shard workers.

A barrier with an open ballot applies the coordinator's directives, takes
the participants' votes, decides, and only then runs the next round, so
on every shard a vote and the decision it settles happen at the same
engine tick.  These tests pin that down on a running fleet (recorders on
the engine's vote and decision entry points) and on the coordinator alone
(``polls`` / ``settle``).  A shard worker that dies or raises must
surface as a :class:`SimulationError` naming the shard, never as a bare
pipe error or a hang.  Every precedence edge a shard reports reaches the
coordinator's graph, whether or not its requester has sent a message yet.
"""

from __future__ import annotations

import contextlib
import os
import signal
from collections import defaultdict

import pytest

from repro.core.errors import SimulationError
from repro.shard import ShardMap, ShardReport, ShardWorker, ShardedEngine
from repro.shard.coordinator import InterShardCoordinator
from repro.sweep import ScenarioSpec
from tests.shard.test_sharded_engine import COLOCATED_HOT, make_spec


def hotspot_2shard_spec(transactions: int = 160, seed: int = 12) -> ScenarioSpec:
    """The end-to-end benchmark's 2-shard NTO hotspot stream, shortened."""
    inner = {
        "transactions": transactions,
        "hot_objects": 2,
        "cold_objects": 128,
        "operations_per_transaction": 2,
        "hot_probability": 0.05,
        "use_service_layer": False,
        "seed": seed,
    }
    return ScenarioSpec(
        workload="hotspot-stream",
        scheduler="nto-step",
        seed=seed,
        workload_params={
            "inner_params": inner,
            "arrival": "poisson",
            "arrival_params": {"rate": 0.01},
        },
        scheduler_kwargs={"restart_policy": "backoff"},
        shards=2,
    )


@pytest.fixture
def protocol_log(monkeypatch):
    """Record prepares, votes and decisions as ``(shard, gid, tick[, verdict])``."""
    log = defaultdict(list)

    def record(name, with_verdict=False):
        method = getattr(ShardWorker, name)

        def recorded(engine, gid, *args):
            result = method(engine, gid, *args)
            entry = (engine.index, gid, engine._tick)
            log[name].append(entry + (result[0],) if with_verdict else entry)
            return result

        monkeypatch.setattr(ShardWorker, name, recorded)

    record("commit_vote", with_verdict=True)
    record("apply_global_commit")
    record("apply_global_abort")
    hold_commit = ShardWorker._hold_commit

    def recorded_hold(engine, frame, value):
        log["prepared"].append((engine.index, frame.execution_id, engine._tick))
        return hold_commit(engine, frame, value)

    monkeypatch.setattr(ShardWorker, "_hold_commit", recorded_hold)
    ShardedEngine(hotspot_2shard_spec(), ShardMap(shards=2)).run()
    return log


class TestDecisionsAtTheVotingBarrier:
    def test_each_decision_lands_at_the_tick_of_the_votes_it_settles(self, protocol_log):
        last_vote = {}
        voted_abort = set()
        for shard, gid, tick, verdict in protocol_log["commit_vote"]:
            last_vote[shard, gid] = (tick, verdict)
            if verdict == "abort":
                voted_abort.add(gid)
        assert protocol_log["apply_global_commit"], "no cross-shard commit was decided"
        for shard, gid, tick in protocol_log["apply_global_commit"]:
            assert last_vote[shard, gid] == (tick, "commit"), (shard, gid)
        for shard, gid, tick in protocol_log["apply_global_abort"]:
            if gid in voted_abort:
                assert last_vote[shard, gid][0] == tick, (shard, gid)

    def test_a_unanimous_first_ballot_commits_at_the_prepare_tick(self, protocol_log):
        # Every voter is polled at the same barriers, so each shard's first
        # vote on a gid belongs to the ballot's first barrier.
        first_votes = defaultdict(dict)
        for shard, gid, _, verdict in protocol_log["commit_vote"]:
            first_votes[gid].setdefault(shard, verdict)
        prepared = {gid: (shard, tick) for shard, gid, tick in protocol_log["prepared"]}
        committed = {
            (shard, gid): tick for shard, gid, tick in protocol_log["apply_global_commit"]
        }
        unanimous = [
            gid for gid, votes in first_votes.items() if set(votes.values()) == {"commit"}
        ]
        assert unanimous, "no ballot was unanimous at its first barrier"
        for gid in unanimous:
            home, prepare_tick = prepared[gid]
            # The prepare note is due at once: the barrier falls at its tick.
            assert committed[home, gid] == prepare_tick, gid


def _ballot(*participants: int) -> InterShardCoordinator:
    """A 3-shard coordinator with one prepared transaction ``g`` homed on shard 0."""
    coordinator = InterShardCoordinator(ShardMap(shards=3, assignment={"a": 0, "b": 1, "c": 2}))
    invokes = [
        ("invoke", f"g/r{n}", "g", "abc"[shard], "m", ())
        for n, shard in enumerate(participants)
    ]
    for messages, notes in ((invokes, []), ([], [("prepared", "g")])):
        coordinator.process_round(
            [ShardReport(index=0, decisions=1, tick=10, busy=True, messages=messages, notes=notes)]
            + [ShardReport(index=i, decisions=0, tick=10, busy=False) for i in (1, 2)]
        )
    return coordinator


class TestPollsAndSettle:
    def test_polls_name_every_voter(self):
        assert _ballot(1).polls() == [["g"], ["g"], []]
        assert _ballot(2, 1).polls() == [["g"], ["g"], ["g"]]

    def test_a_unanimous_ballot_commits_every_voter_in_shard_order(self):
        coordinator = _ballot(2, 1)
        answers = [[("g", "commit", "")] for _ in range(3)]
        assert coordinator.settle(answers) == [[("commit", "g")]] * 3
        assert coordinator.commits_decided == 1
        assert coordinator.polls() == [[], [], []]

    def test_any_abort_vote_aborts_every_voter(self):
        coordinator = _ballot(1)
        answers = [[("g", "commit", "")], [("g", "abort", "vetoed")], []]
        abort = [("abort", "g", "vetoed")]
        assert coordinator.settle(answers) == [abort, abort, []]
        assert coordinator.aborts_decided == 1
        assert coordinator.polls() == [[], [], []]

    def test_a_defer_vote_sends_nothing_and_is_polled_again(self):
        coordinator = _ballot(1)
        answers = [[("g", "commit", "")], [("g", "defer", "busy")], []]
        assert coordinator.settle(answers) == [[], [], []]
        # The next barrier: nothing moved, and an open ballot sends nothing.
        directives = coordinator.process_round(
            [ShardReport(index=i, decisions=0, tick=10, busy=i == 0) for i in range(3)]
        )
        assert directives == [[], [], []]
        assert coordinator.polls() == [["g"], ["g"], []]
        answers = [[("g", "commit", "")], [("g", "commit", "")], []]
        assert coordinator.settle(answers) == [[("commit", "g")], [("commit", "g")], []]


class TestEdgesAreKept:
    """Every precedence edge a shard reports reaches the global graph.

    A report's messages are ingested before its edges, and a requester
    whose first message is still to come registers on its first edge
    (home from its id prefix), so no edge is dropped for want of a
    registration (ROADMAP 9(b), defect 1).
    """

    def test_an_edge_ahead_of_its_requesters_first_message_is_kept(self):
        coordinator = InterShardCoordinator(ShardMap(shards=2, assignment={"a": 0, "b": 1}))
        edge = ("s1:T1", "s0:T2")
        coordinator.process_round(
            [
                ShardReport(index=0, decisions=1, tick=8, busy=True, edges=[edge]),
                ShardReport(index=1, decisions=0, tick=8, busy=False),
            ]
        )
        assert coordinator.describe()["precedence_nodes"] == 2
        # The requester registered on its edge, homed by its prefix: its
        # later invoke joins the same transaction.
        invoke = ("invoke", "s0:T2/r1", "s0:T2", "b", "m", ())
        coordinator.process_round(
            [
                ShardReport(index=0, decisions=1, tick=9, busy=True, messages=[invoke]),
                ShardReport(index=1, decisions=0, tick=9, busy=False),
            ]
        )
        assert coordinator.describe()["cross_transactions"] == 1
        # Prepared, it is polled on its home and on the invoked owner.
        coordinator.process_round(
            [
                ShardReport(
                    index=0, decisions=1, tick=10, busy=True, notes=[("prepared", "s0:T2")]
                ),
                ShardReport(index=1, decisions=0, tick=10, busy=False),
            ]
        )
        assert coordinator.polls() == [["s0:T2"], ["s0:T2"]]

    def test_a_small_two_shard_stream_registers_every_requester_first(self, monkeypatch):
        # A report's messages are ingested before its edges, so on this
        # stream no edge names a requester the coordinator has not yet
        # registered (27 of its 63 edges would, edges first).
        reported, unregistered = [], []
        note_edge = InterShardCoordinator._note_edge

        def checked(coordinator, edge, directives):
            reported.append(edge)
            if edge[1] not in coordinator._txns:
                unregistered.append(edge)
            return note_edge(coordinator, edge, directives)

        monkeypatch.setattr(InterShardCoordinator, "_note_edge", checked)
        ShardedEngine(hotspot_2shard_spec(transactions=120), ShardMap(shards=2)).run()
        assert reported
        assert unregistered == []


@contextlib.contextmanager
def time_limit(seconds: int):
    """Fail instead of hanging when a dead worker goes unnoticed."""

    def expire(signum, frame):
        raise TimeoutError(f"sharded run still blocked after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _on_shard_one(monkeypatch, name: str, action, call: int) -> None:
    """Make shard 1's ``call``-th ``ShardWorker.<name>`` call run ``action`` first."""
    original = getattr(ShardWorker, name)

    def patched(worker, *args):
        calls = worker.__dict__.setdefault("test_calls", defaultdict(int))
        calls[name] += 1
        if worker.index == 1 and calls[name] == call:
            action()
        return original(worker, *args)

    monkeypatch.setattr(ShardWorker, name, patched)


def _run_forked_fleet() -> None:
    spec = make_spec("n2pl", seed=404, assignment=COLOCATED_HOT)
    shard_map = ShardMap(shards=2, assignment=COLOCATED_HOT)
    with time_limit(60):
        ShardedEngine(spec, shard_map, mode="multiprocess", mp_context="fork").run()


class TestDeadShardWorker:
    @pytest.mark.parametrize("command", ("round", "vote"))
    def test_a_worker_that_exits_names_its_shard_and_exit_code(self, monkeypatch, command):
        _on_shard_one(monkeypatch, command, lambda: os._exit(3), call=5)
        expected = rf"shard 1 worker died \(exit code 3\) during {command}"
        with pytest.raises(SimulationError, match=expected):
            _run_forked_fleet()

    def test_a_relayed_failure_names_its_shard(self, monkeypatch):
        def fail():
            raise RuntimeError("injected")

        _on_shard_one(monkeypatch, "vote", fail, call=1)
        expected = r"shard 1 worker failed during vote: RuntimeError\('injected'\)"
        with pytest.raises(SimulationError, match=expected):
            _run_forked_fleet()
