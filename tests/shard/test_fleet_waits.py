"""One waits-for relation across the fleet: rings through several shards end.

Each shard's waits-for relation (``repro.core.waits``) sees only the waits
parked on that shard, so a ring whose edges sit on different shards is
acyclic on every one of them.  Each shard therefore reports its records,
projected onto top-level gids, after its round and with its ballot
answers, and the coordinator keeps their union: a new record that closes
a cycle aborts its waiter's transaction with the single engine's labels
(``validation`` for a ring of commit waits, ``deadlock`` otherwise).  A
barrier at which nothing moves and the union has no cycle is a wedge and
raises at once.

The three witnesses below spun for minutes under the stall breaker the
union replaced (it aborted the youngest cross transaction, never a ring
member).  They run with a ``max_ticks`` of a few thousand, so a
regression fails in well under a second instead of spinning.  The
liveness grid holds four schedulers to the same rule on 192 small runs.

The grid also holds each run to the merged verdict: every shard
serialisable and the union of the shards' top-level ``SG(h)`` edges
acyclic.  Defect 2 (ROADMAP 9(c)) breaks it on 18 cells: an order that
runs through shard-local transactions reaches neither the coordinator nor
any one shard's certificate, so the union is cyclic while every shard
certifies clean.  Those cells are strict xfails until it is closed.
"""

from __future__ import annotations

import functools

import pytest

from repro.core.errors import SimulationError
from repro.core.waits import VALIDATION
from repro.shard import ShardMap, ShardReport, ShardWorker, ShardedEngine
from repro.shard.coordinator import InterShardCoordinator
from repro.simulation.metrics import RunMetrics
from repro.sweep import ScenarioSpec

GRID_SCHEDULERS = ("certifier", "nto", "n2pl", "modular")
#: (registers, nesting depth) of the grid's two object bases.
GRID_BASES = ((24, 1), (12, 2))
GRID_SEEDS = range(12)
TRANSACTIONS = 40


def random_ops_spec(
    scheduler: str,
    seed: int,
    *,
    registers: int = 24,
    depth: int = 1,
    max_ticks: int = 3_000,
    write_fraction: float = 0.5,
) -> ScenarioSpec:
    return ScenarioSpec(
        workload="random-ops",
        scheduler=scheduler,
        seed=seed,
        workload_params={
            "registers": registers,
            "transactions": TRANSACTIONS,
            "operations_per_transaction": 2,
            "write_fraction": write_fraction,
            "nesting_depth": depth,
            "seed": seed,
        },
        scheduler_kwargs={"restart_policy": "backoff"},
        engine_params={"max_ticks": max_ticks},
        certify=True,
    )


#: (scheduler, seed, shards) of the runs that stalled under the breaker.
WITNESSES = {
    "A": ("certifier", 8, 3),
    "B": ("nto", 11, 3),
    "C": ("certifier", 11, 2),
}


class TestWitnesses:
    @pytest.mark.parametrize("name", sorted(WITNESSES))
    def test_witness_commits_every_transaction(self, name):
        scheduler, seed, shards = WITNESSES[name]
        result = ShardedEngine(random_ops_spec(scheduler, seed), ShardMap(shards=shards)).run()
        assert result.metrics.committed == TRANSACTIONS
        assert result.coordinator["wait_cycle_aborts"] > 0
        for outcome in result.shards:
            assert outcome.serialisable is True
        assert result.serialisable is True

    def test_witness_is_bit_identical_across_transports(self):
        scheduler, seed, shards = WITNESSES["C"]
        spec, shard_map = random_ops_spec(scheduler, seed), ShardMap(shards=shards)
        inproc = ShardedEngine(spec, shard_map).run()
        multi = ShardedEngine(spec, shard_map, mode="multiprocess", mp_context="fork").run()
        assert inproc.rounds == multi.rounds
        assert inproc.coordinator == multi.coordinator
        assert inproc.metrics.as_dict() == multi.metrics.as_dict()
        assert inproc.committed_transaction_ids == multi.committed_transaction_ids
        assert inproc.final_states() == multi.final_states()


class TestFleetUnion:
    """The coordinator's union, driven with hand-made reports."""

    @staticmethod
    def coordinator_with_sessions() -> InterShardCoordinator:
        # s0:T1 has a session on shard 1 and s1:T16 one on shard 0.
        coordinator = InterShardCoordinator(ShardMap(shards=2, assignment={"a": 0, "b": 1}))
        invokes = [
            [("invoke", "s0:T1/r0.1", "s0:T1", "b", "m", ())],
            [("invoke", "s1:T16/r1.1", "s1:T16", "a", "m", ())],
        ]
        coordinator.process_round(
            [ShardReport(shard, 1, 100, True, messages=invokes[shard]) for shard in (0, 1)]
        )
        return coordinator

    def test_a_ring_of_commit_waits_over_two_shards_fails_validation(self):
        # Witness C's ring at tick 123: s1:T6 -> s1:T16 -> s0:T1 -> s1:T6,
        # its commit waits reported from shards 1, 0 and 1.  Each shard's
        # own records are acyclic.
        coordinator = self.coordinator_with_sessions()
        shard_0 = {"s1:T16": ("s1:T16", (("s1:T16", "s0:T1"),), True)}
        shard_1 = {
            "s1:T6": ("s1:T6", (("s1:T6", "s1:T16"),), True),
            "s0:T1": ("s0:T1", (("s0:T1", "s1:T6"),), True),
        }
        directives = coordinator.process_round(
            [
                ShardReport(0, 0, 123, True, waits=shard_0),
                ShardReport(1, 0, 123, True, waits=shard_1),
            ]
        )
        reason = f"{VALIDATION} s0:T1 -> s1:T6 -> s1:T16 -> s0:T1"
        # The record that closed the ring aborts its waiter on every voter.
        assert directives == [[("abort", "s0:T1", reason)], [("abort", "s0:T1", reason)]]
        assert coordinator.wait_cycle_aborts == 1
        metrics = RunMetrics()
        metrics.note_abort(reason)
        assert dict(metrics.aborts_by_reason) == {"validation": 1}

    def test_a_ring_closed_at_the_ballot_aborts_a_local_waiter_on_its_home(self):
        # The same ring with a lock wait in it, closed by shard 1's vote:
        # its waiter s1:T6 is local to shard 1.
        coordinator = self.coordinator_with_sessions()
        session_waits = {"s0:T1": ("s0:T1", (("s0:T1", "s1:T6"),), True)}
        lock_wait = {"s1:T16": ("s1:T16", (("s1:T16", "s0:T1"),), False)}
        coordinator.process_round(
            [
                ShardReport(0, 0, 123, True, waits=lock_wait),
                ShardReport(1, 0, 123, True, waits=session_waits),
            ]
        )
        closing = {"s1:T6.1": ("s1:T6", (("s1:T6", "s1:T16"),), False)}
        directives = coordinator.settle([[], []], [None, closing])
        reason = "deadlock: wait cycle s1:T6 -> s1:T16 -> s0:T1 -> s1:T6"
        assert directives == [[], [("abort", "s1:T6", reason)]]

    def test_a_record_its_shard_no_longer_reports_closes_no_ring(self):
        coordinator = self.coordinator_with_sessions()
        ring = {"s1:T16": ("s1:T16", (("s1:T16", "s0:T1"),), False)}
        back = {"s0:T1": ("s0:T1", (("s0:T1", "s1:T16"),), False)}
        # Shard 0 reports a wait, then its end (``None``) at the barrier
        # where shard 1 reports the closing one.
        coordinator.process_round(
            [ShardReport(0, 0, 5, True, waits=ring), ShardReport(1, 0, 5, True)]
        )
        directives = coordinator.process_round(
            [
                ShardReport(0, 1, 6, True, waits={"s1:T16": None}),
                ShardReport(1, 0, 6, True, waits=back),
            ]
        )
        assert directives == [[], []]
        assert coordinator.wait_cycle_aborts == 0


class ScriptedTransport:
    """Stands in for the shard workers: replays round reports, records the directives."""

    def __init__(self, rounds):
        self.rounds = iter(rounds)
        self.directives = []

    def exchange(self, command, arguments):
        if command == "parked":
            return ["s0:T1 on s1:T2", "none"]
        self.directives.append([entries for entries, *_ in arguments])
        return next(self.rounds)

    def close(self):
        pass


def test_a_barrier_that_produces_or_applies_a_directive_is_not_wedged(monkeypatch):
    def idle(waits=(None, None)):
        return [ShardReport(shard, 0, 5, True, waits=waits[shard]) for shard in (0, 1)]

    ring = {"s0:T1": ("s0:T1", (("s0:T1", "s1:T2"),), False)}
    closing = {"s1:T2": ("s1:T2", (("s1:T2", "s0:T1"),), False)}
    transport = ScriptedTransport(
        [
            [ShardReport(0, 1, 5, True, waits=ring), ShardReport(1, 1, 5, True)],
            idle((None, closing)),  # nothing moved, but the union aborts s1:T2
            idle((None, {"s1:T2": None})),  # nothing moved, but the abort was applied
            idle(),
        ]
    )
    monkeypatch.setattr("repro.shard.worker.LocalTransport", lambda payloads: transport)
    spec = random_ops_spec("n2pl", 0)
    with pytest.raises(SimulationError, match="wedged at tick 5: .*shard 0: s0:T1 on s1:T2"):
        ShardedEngine(spec, ShardMap(shards=2)).run()
    abort = ("abort", "s1:T2", "deadlock: wait cycle s1:T2 -> s0:T1 -> s1:T2")
    assert transport.directives == [[[], []], [[], []], [[], [abort]], [[], []]]


def test_a_fleet_that_cannot_move_raises_naming_every_shards_parked_frames():
    # Cut at 60 ticks: every shard stands at max_ticks with work left.
    scheduler, seed, shards = WITNESSES["C"]
    spec = random_ops_spec(scheduler, seed, max_ticks=60)
    wedged = r"sharded run wedged at tick 60: .*shard 0: .*shard 1: "
    with pytest.raises(SimulationError, match=wedged):
        ShardedEngine(spec, ShardMap(shards=shards)).run()


@functools.cache
def grid_cell(scheduler: str, shards: int, registers: int, depth: int, seed: int) -> tuple:
    spec = random_ops_spec(scheduler, seed, registers=registers, depth=depth, max_ticks=20_000)
    result = ShardedEngine(spec, ShardMap(shards=shards)).run()
    metrics = result.metrics
    return (
        metrics.committed,
        metrics.gave_up,
        tuple(sorted(metrics.aborts_by_reason)),
        tuple(outcome.serialisable for outcome in result.shards),
        result.serialisable,
    )


def grid(scheduler: str, shards: int):
    for registers, depth in GRID_BASES:
        for seed in GRID_SEEDS:
            yield (registers, depth, seed), grid_cell(scheduler, shards, registers, depth, seed)


@pytest.mark.parametrize("shards", (2, 3))
@pytest.mark.parametrize("scheduler", GRID_SCHEDULERS)
class TestLivenessGrid:
    """random-ops, 40 transactions of 2 operations, on the CRC map."""

    def test_every_run_commits_every_transaction_serialisably(self, scheduler, shards):
        for cell, (committed, gave_up, _, serialisable, _) in grid(scheduler, shards):
            assert (committed, gave_up) == (TRANSACTIONS, 0), cell
            assert all(serialisable), cell

    def test_no_sharded_abort_is_filed_under_other(self, scheduler, shards):
        for cell, (_, _, categories, _, _) in grid(scheduler, shards):
            assert "other" not in categories, (cell, categories)


#: (scheduler, shards, registers, depth, seed) of the grid runs whose union
#: of top-level edges is cyclic although every shard certifies clean.
DEFECT_2_CELLS = frozenset(
    {
        *(("certifier", 2, 24, 1, seed) for seed in (2, 4, 5, 7, 8, 9)),
        *(("certifier", 3, 24, 1, seed) for seed in (0, 1, 3, 4, 6)),
        ("certifier", 2, 12, 2, 6),
        *((name, 2, 24, 1, seed) for name in ("nto", "nto-step") for seed in (2, 6)),
        *((name, 3, 12, 2, 0) for name in ("nto", "nto-step")),
    }
)


def merged_cells():
    defect_2 = pytest.mark.xfail(
        strict=True,
        reason="defect 2 (ROADMAP 9(c)): orders through shard-local transactions "
        "reach no shard's certificate and not the coordinator",
    )
    for scheduler in (*GRID_SCHEDULERS, "nto-step"):
        for shards in (2, 3):
            for registers, depth in GRID_BASES:
                for seed in GRID_SEEDS:
                    cell = (scheduler, shards, registers, depth, seed)
                    marks = [defect_2] if cell in DEFECT_2_CELLS else []
                    yield pytest.param(*cell, marks=marks, id="-".join(map(str, cell)))


@pytest.mark.parametrize("scheduler, shards, registers, depth, seed", merged_cells())
def test_the_merged_verdict_holds(scheduler, shards, registers, depth, seed):
    *_, serialisable, merged = grid_cell(scheduler, shards, registers, depth, seed)
    assert all(serialisable)
    assert merged is True


class TestMergedVerdict:
    """Scripted runs for the merged verdict, on either side of it."""

    def test_defect_1_witness_is_globally_serialisable(self):
        # An edge reported ahead of its requester's first message was once
        # dropped (ROADMAP 9(b), defect 1); the coordinator's cycle aborts
        # now keep this run's union acyclic.
        spec = random_ops_spec(
            "certifier", 3, registers=6, depth=2, max_ticks=20_000, write_fraction=0.6
        )
        result = ShardedEngine(spec, ShardMap(shards=2)).run()
        assert result.metrics.committed == TRANSACTIONS
        assert result.coordinator["cycle_aborts"] > 0
        assert result.serialisable is True

    @pytest.mark.parametrize("scheduler, seed", [("nto", 2), ("nto", 6), ("certifier", 2)])
    def test_a_cycle_through_two_shards_is_reported(self, scheduler, seed):
        spec = random_ops_spec(scheduler, seed, max_ticks=20_000)
        result = ShardedEngine(spec, ShardMap(shards=2)).run()
        assert [outcome.serialisable for outcome in result.shards] == [True, True]
        assert result.serialisable is False


def test_a_shard_reports_its_waits_between_transactions_once_per_change():
    spec = random_ops_spec("n2pl", 0)
    worker = ShardWorker(
        {"spec": spec.to_json_dict(), "map": ShardMap(shards=2).to_json_dict(), "index": 0}
    )
    records = worker._waits._records
    records["s0:T1.1"] = ("s0:T1", (("s0:T1.1", "s0:T1.2"),), False)  # inside one transaction
    records["s0:T2"] = ("s0:T2", (("s0:T2", "s1:T3"),), True)
    assert worker._changed_waits() == {"s0:T2": ("s0:T2", (("s0:T2", "s1:T3"),), True)}
    assert worker._changed_waits() is None
    del records["s0:T2"]
    assert worker._changed_waits() == {"s0:T2": None}
