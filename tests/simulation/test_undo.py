"""Incremental undo: per-transaction undo segments vs full-history replay.

The abort path does not replay the whole run; it rolls every touched
object back to the snapshot taken before the aborted subtree's first step
and re-applies the surviving suffix.  These tests pin the equivalence
against ``tests/oracles/engines.py`` ``ReplayCheckedEngine``, which
re-derives every object state by full replay of the surviving recorded
steps after *every* abort and raises on any divergence, and pin the cost:
the steps re-applied per abort, counted exactly, do not grow with the
length of the run, while the replay's do.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.analysis import certify_run
from repro.core.errors import SimulationError
from repro.core.operations import LocalOperation, LocalStep
from repro.core.state import ObjectState, UndoLog
from repro.objectbase.adts.register import WriteRegister
from repro.scheduler import Scheduler, make_scheduler
from repro.scheduler.base import SchedulerResponse
from repro.simulation import (
    BankingWorkload,
    HotspotWorkload,
    QueueWorkload,
    SimulationEngine,
    make_workload,
)
from repro.simulation.events import ABORTED

from tests.oracles.engines import ReplayCheckedEngine

ABORT_HEAVY = [
    ("nto", lambda: HotspotWorkload(
        transactions=12, hot_objects=2, cold_objects=6,
        operations_per_transaction=3, hot_probability=0.8, seed=41,
    )),
    ("n2pl", lambda: HotspotWorkload(
        transactions=12, hot_objects=2, cold_objects=6,
        operations_per_transaction=3, hot_probability=0.9, seed=42,
    )),
    ("certifier", lambda: HotspotWorkload(
        transactions=10, hot_objects=2, cold_objects=6,
        operations_per_transaction=3, hot_probability=0.8, seed=43,
    )),
    ("nto-step", lambda: QueueWorkload(
        queues=2, producers=6, consumers=6, initial_depth=4, seed=44,
    )),
    ("modular", lambda: BankingWorkload(accounts=4, transactions=10, seed=45)),
]


def run_engine(workload, scheduler_name, engine_class=SimulationEngine, seed=7):
    base, specs = workload.build()
    engine = engine_class(base, make_scheduler(scheduler_name), seed=seed)
    engine.submit_all(specs)
    return engine.run()


class TestIncrementalUndoEquivalence:
    @pytest.mark.parametrize("scheduler_name,make_workload", ABORT_HEAVY)
    def test_incremental_undo_matches_full_replay_on_every_abort(
        self, scheduler_name, make_workload
    ):
        # The oracle engine re-derives every object state by full replay after
        # each abort and raises SimulationError on the slightest divergence.
        result = run_engine(make_workload(), scheduler_name, ReplayCheckedEngine)
        assert result.metrics.aborted_attempts > 0, (
            f"{scheduler_name}: the workload must actually abort for the "
            "equivalence check to mean anything"
        )
        assert result.metrics.committed + result.metrics.gave_up == result.metrics.submitted

    @pytest.mark.parametrize("scheduler_name,make_workload", ABORT_HEAVY)
    def test_replay_strategy_produces_identical_runs(self, scheduler_name, make_workload):
        # Replaying beside the undo must not influence scheduling decisions:
        # the same seed on either engine yields the same run.
        incremental = run_engine(make_workload(), scheduler_name)
        replay = run_engine(make_workload(), scheduler_name, ReplayCheckedEngine)
        assert incremental.metrics.as_dict() == replay.metrics.as_dict()
        assert incremental.final_states() == replay.final_states()

    def test_replay_oracle_catches_a_skipped_reapply(self, monkeypatch):
        # The differential is live: an undo that rolls back to the snapshot
        # and forgets to re-apply the survivors is caught at the first abort
        # that has any.
        def rollback_only(log, top_level_id, subtree_ids, states):
            subtree = frozenset(subtree_ids)
            removed = 0
            for object_name in sorted(log._touched_by_transaction.pop(top_level_id, ())):
                entries = log._by_object.get(object_name, [])
                doomed = [entry for entry in entries if entry.step.execution_id in subtree]
                if doomed:
                    removed += len(doomed)
                    states[object_name] = doomed[0].pre_state
                    entries[:] = [entry for entry in entries if entry.step.execution_id not in subtree]
            return removed, []

        monkeypatch.setattr(UndoLog, "undo", rollback_only)
        scheduler_name, make_workload = ABORT_HEAVY[0]
        with pytest.raises(SimulationError, match="diverged from full replay"):
            run_engine(make_workload(), scheduler_name, ReplayCheckedEngine)

    def test_committed_state_preserved_across_interleaved_abort(self):
        # A committed write that lands *after* the aborted transaction's
        # first step on the same object must survive the rollback: the
        # surviving suffix is re-applied on top of the snapshot.
        from repro.objectbase import MethodDefinition, ObjectBase
        from repro.simulation import TransactionSpec

        base = ObjectBase()
        from repro.objectbase.adts import register_definition

        base.register(register_definition("cell", 0))

        def write_cell(ctx, value):
            yield ctx.invoke("cell", "write", value)
            yield ctx.invoke("cell", "write", value + 1)
            return value

        base.register_transaction(MethodDefinition("write_cell", write_cell))

        class AbortSecondTransactionLate(Scheduler):
            """Grant everything, but veto the second transaction's commit."""

            def on_commit_request(self, info):
                if info.execution_id == "T2":
                    return SchedulerResponse.abort("validation failed: synthetic")
                return SchedulerResponse.grant()

        engine = ReplayCheckedEngine(
            base,
            AbortSecondTransactionLate(),
            max_restarts=0,
        )
        engine.submit(TransactionSpec("write_cell", (10,)))
        engine.submit(TransactionSpec("write_cell", (20,)))
        result = engine.run()
        assert result.metrics.committed == 1
        assert result.metrics.gave_up == 1
        assert result.final_states()["cell"]["value"] == 11


class TestSurvivorsKeepTheirRecordedValues:
    """No survivor that can change the state stays behind acting differently."""

    @pytest.mark.parametrize("policy", ["immediate", "backoff"])
    def test_btree_certifier_run_commits_a_legal_history(self, policy):
        # T56 deletes key 159 and T63's delete of 159 then fails on that
        # dirty state.  Undoing T56 used to re-apply T63's delete as a
        # survivor that really deletes, while T63 had recorded False and the
        # scheduler had seen a no-op: T68's range scan missed 159 with no
        # dependency on T63, and committed after T63 cascaded and 159 came
        # back.  Now the undo takes T63 with it at once; the oracle engine
        # also replays every surviving return value after each abort.
        base, specs = make_workload("btree", transactions=16, seed=2).build()
        engine = ReplayCheckedEngine(
            base,
            make_scheduler("certifier", restart_policy=policy),
            seed=2,
            record_trace=True,
        )
        engine.submit_all(specs)
        result = engine.run()
        undone = [
            event
            for event in result.trace.of_kind(ABORTED)
            if "changed a step it observed" in event.detail
        ]
        assert undone, "the scenario lost the survivor whose step changes"
        assert certify_run(result, check_legality=True).legal


def _operation_classes(cls=LocalOperation):
    for subclass in cls.__subclasses__():
        yield subclass
        yield from _operation_classes(subclass)


@contextmanager
def counted_applies(monkeypatch):
    """Count ``operation.apply`` calls made inside the two abort repairs.

    Wrapped from here, the way ``test_certification_cost.py`` wraps
    ``History.precedes``: ``counts["undo"]`` is the calls made while
    ``UndoLog.undo`` runs (the survivors it re-applies), ``counts["replay"]``
    those made while the oracle's ``_replay_states`` runs.  No counter lives
    in ``src/``.
    """
    counts = {"undo": 0, "replay": 0}
    inside: list[str] = []

    def counting(apply):
        def wrapper(operation, state):
            if inside:
                counts[inside[-1]] += 1
            return apply(operation, state)

        return wrapper

    def marking(function, label):
        def wrapper(*args, **kwargs):
            inside.append(label)
            try:
                return function(*args, **kwargs)
            finally:
                inside.pop()

        return wrapper

    with monkeypatch.context() as patch:
        for operation_class in set(_operation_classes()):
            if "apply" in vars(operation_class):
                patch.setattr(operation_class, "apply", counting(vars(operation_class)["apply"]))
        patch.setattr(UndoLog, "undo", marking(UndoLog.undo, "undo"))
        patch.setattr(
            ReplayCheckedEngine,
            "_replay_states",
            marking(ReplayCheckedEngine._replay_states, "replay"),
        )
        yield counts


class TestAbortCostIsTheSubtreeFootprint:
    """E11's claim as an exact count instead of a wall ratio.

    The E11 workload (NTO on a two-object hot spot, seed 1111) at two run
    lengths, objects scaled with the transactions so contention per object
    is constant: an abort re-applies the survivors on the objects it
    touched, so the re-applied steps per abort must stay flat as the run
    doubles, while a full replay per abort re-applies the whole surviving
    run so far and grows with it.
    """

    @staticmethod
    def e11_workload(scale):
        return HotspotWorkload(
            transactions=32 * scale,
            hot_objects=2 * scale,
            cold_objects=8 * scale,
            operations_per_transaction=3,
            hot_probability=0.7,
            seed=1111,
        )

    def test_reapplied_steps_per_abort_stay_flat_as_the_run_doubles(self, monkeypatch):
        per_abort = {}
        for scale in (1, 2):
            with counted_applies(monkeypatch) as counts:
                result = run_engine(
                    self.e11_workload(scale), "nto", ReplayCheckedEngine, seed=1111
                )
            aborts = result.metrics.aborted_attempts
            assert aborts >= 500 * scale, "the workload must be abort-heavy"
            per_abort[scale] = {kind: count / aborts for kind, count in counts.items()}
        undo_growth = per_abort[2]["undo"] / per_abort[1]["undo"]
        replay_growth = per_abort[2]["replay"] / per_abort[1]["replay"]
        # Measured: 4.10 -> 3.56 re-applied steps per abort (0.87x) against
        # 32.5 -> 50.8 replayed (1.56x).
        assert 0.75 <= undo_growth <= 1.25, per_abort
        assert replay_growth >= 1.4, per_abort
        assert per_abort[2]["undo"] * 8 < per_abort[2]["replay"], per_abort


class TestUndoLogUnit:
    def apply(self, log, object_name, execution_id, top_level_id, operation, states):
        pre = states.get(object_name, ObjectState())
        value, states[object_name] = operation.apply(pre)
        log.record(LocalStep(execution_id, object_name, operation, value), top_level_id, pre)

    def test_undo_removes_only_subtree_steps_and_repairs_state(self):
        log = UndoLog()
        states = {"A": ObjectState({"value": 0})}
        self.apply(log, "A", "T1.1", "T1", WriteRegister(1), states)
        self.apply(log, "A", "T2.1", "T2", WriteRegister(2), states)
        self.apply(log, "A", "T1.2", "T1", WriteRegister(3), states)
        assert states["A"]["value"] == 3

        removed, stale = log.undo("T1", {"T1", "T1.1", "T1.2"}, states)
        assert (removed, stale) == (2, [])
        # T2's surviving write is re-applied on the pre-T1 snapshot.
        assert states["A"]["value"] == 2
        assert [entry.step.execution_id for entry in log._by_object["A"]] == ["T2.1"]

    def test_snapshots_are_refreshed_for_reapplied_survivors(self):
        # After one undo the survivors' snapshots must be consistent, so a
        # second undo (of the survivor itself) still lands on the right state.
        log = UndoLog()
        states = {"A": ObjectState({"value": 0})}
        self.apply(log, "A", "T1.1", "T1", WriteRegister(1), states)
        self.apply(log, "A", "T2.1", "T2", WriteRegister(2), states)
        log.undo("T1", {"T1", "T1.1"}, states)
        assert states["A"]["value"] == 2
        log.undo("T2", {"T2", "T2.1"}, states)
        assert states["A"]["value"] == 0
        assert not log._by_object.get("A")
        assert log.total_steps() == 0

    def test_untouched_objects_are_left_alone(self):
        log = UndoLog()
        states = {"A": ObjectState({"value": 0}), "B": ObjectState({"value": 9})}
        self.apply(log, "A", "T1.1", "T1", WriteRegister(5), states)
        log.undo("T1", {"T1", "T1.1"}, states)
        assert states["A"]["value"] == 0
        assert states["B"]["value"] == 9

    def test_undo_of_unknown_transaction_is_a_noop(self):
        log = UndoLog()
        states = {"A": ObjectState({"value": 0})}
        self.apply(log, "A", "T1.1", "T1", WriteRegister(5), states)
        assert log.undo("T9", {"T9"}, states) == (0, [])
        assert states["A"]["value"] == 5

    def test_step_level_values_survive_reapplication(self):
        # Operations whose return values depend on the state (a queue's
        # dequeue) still re-apply deterministically.
        from repro.objectbase.adts.fifo_queue import Dequeue, Enqueue

        log = UndoLog()
        states = {"Q": ObjectState({"items": ("seed",)})}
        self.apply(log, "Q", "T1.1", "T1", Enqueue("x"), states)
        self.apply(log, "Q", "T2.1", "T2", Dequeue(), states)
        _, stale = log.undo("T1", {"T1", "T1.1"}, states)
        # The dequeue re-applies against the rolled-back queue: "seed" is
        # still the item removed, and T1's enqueue is gone.
        assert tuple(states["Q"]["items"]) == ()
        assert stale == []

    def test_survivor_whose_step_changes_is_reported(self):
        # T2's dequeue found T1's "x" (the queue was empty before it); once
        # T1 is undone the dequeue comes up empty-handed, so T2 observed
        # undone work and its step now acts differently.
        from repro.objectbase.adts.fifo_queue import Dequeue, Enqueue

        log = UndoLog()
        states = {"Q": ObjectState({"items": ()})}
        self.apply(log, "Q", "T1.1", "T1", Enqueue("x"), states)
        self.apply(log, "Q", "T2.1", "T2", Dequeue(), states)
        self.apply(log, "Q", "T3.1", "T3", Enqueue("y"), states)
        assert log.undo("T1", {"T1", "T1.1"}, states) == (1, ["T2"])

    def test_read_only_survivor_whose_value_changes_is_not_reported(self):
        # A read changes nothing a later step can observe: the commit gate,
        # not the undo, deals with the transaction that read dirty data.
        from repro.objectbase.adts.register import ReadRegister

        log = UndoLog()
        states = {"A": ObjectState({"value": 0})}
        self.apply(log, "A", "T1.1", "T1", WriteRegister(7), states)
        self.apply(log, "A", "T2.1", "T2", ReadRegister(), states)
        assert log.undo("T1", {"T1", "T1.1"}, states) == (1, [])
