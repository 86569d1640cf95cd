"""Event-driven scheduling: parked frames, wake-ups, and no busy-waiting.

The acceptance property of the event-driven core: a frame whose operation
was BLOCKed is parked and never re-issues its request until a wake-up
fires — operationally, a run's trace never shows two consecutive BLOCKED
events for the same frame without an intervening WOKEN event.
"""

from __future__ import annotations

from repro.scheduler import NestedTwoPhaseLocking, make_scheduler
from repro.simulation import HotspotWorkload, MixedWorkload, SimulationEngine
from repro.simulation.events import BLOCKED, WOKEN

from tests.scheduler.conftest import child_of, info, request
from repro.objectbase.adts.register import WriteRegister


def run_workload(workload, scheduler_name, *, seed=0, **engine_kwargs):
    base, specs = workload.build()
    engine = SimulationEngine(base, make_scheduler(scheduler_name), seed=seed, **engine_kwargs)
    engine.submit_all(specs)
    return engine.run()


def contended_workload():
    """An E3-style contended hot-spot workload (many waiters per object)."""
    return HotspotWorkload(
        transactions=16,
        hot_objects=2,
        cold_objects=24,
        operations_per_transaction=3,
        hot_probability=0.9,
        seed=303,
    )


class TestNoBusyWait:
    def assert_no_consecutive_blocked(self, trace):
        last_was_blocked: dict[str, bool] = {}
        for event in trace:
            if event.kind == BLOCKED:
                assert not last_was_blocked.get(event.execution_id, False), (
                    f"frame {event.execution_id} re-issued a BLOCKed request at tick "
                    f"{event.tick} without an intervening wake-up"
                )
                last_was_blocked[event.execution_id] = True
            elif event.kind == WOKEN:
                last_was_blocked[event.execution_id] = False

    def test_n2pl_never_reissues_blocked_requests_without_wakeup(self):
        result = run_workload(contended_workload(), "n2pl", record_trace=True)
        metrics = result.metrics
        assert metrics.parks > 0, "the contended workload must actually block"
        self.assert_no_consecutive_blocked(result.trace)
        # Every park was resolved by an event, never by the stall fallback.
        assert metrics.forced_wakes == 0
        assert metrics.committed + metrics.gave_up == metrics.submitted

    def test_single_active_never_reissues_blocked_requests_without_wakeup(self):
        result = run_workload(
            MixedWorkload(transactions=10, seed=21), "single-active", record_trace=True
        )
        assert result.metrics.parks > 0
        self.assert_no_consecutive_blocked(result.trace)
        assert result.metrics.forced_wakes == 0

    def test_modular_never_reissues_blocked_requests_without_wakeup(self):
        result = run_workload(
            MixedWorkload(transactions=10, seed=22), "modular", record_trace=True
        )
        self.assert_no_consecutive_blocked(result.trace)
        assert result.metrics.forced_wakes == 0

    def test_park_and_wake_counters_are_consistent(self):
        result = run_workload(contended_workload(), "n2pl", record_trace=True)
        metrics = result.metrics
        # A park ends in a wake-up or in the frame's discard at abort; it is
        # never lost.
        assert metrics.wakes <= metrics.parks
        assert len(result.trace.of_kind(WOKEN)) == metrics.wakes
        assert metrics.wait_ticks >= metrics.blocked_ticks
        # NTO on the same workload never blocks an operation: contention
        # shows up as restarts, not waiting.
        nto = run_workload(contended_workload(), "nto")
        assert nto.metrics.blocked_ticks == 0
        assert nto.metrics.forced_wakes == 0


class TestRule5InheritanceWakeups:
    """Parked waiters are re-awakened when a blocker's locks are inherited."""

    def test_sibling_waiter_wakes_when_blocker_transfers_to_common_parent(self):
        # Two parallel siblings of one transaction write the same register:
        # the loser parks behind the winner, and must be woken — and then
        # granted — when the winner completes and its lock is inherited by
        # the common parent (an ancestor of the waiter), rule 5.
        from repro.objectbase import MethodDefinition, ObjectBase
        from repro.objectbase.adts import register_definition
        from repro.simulation import TransactionSpec

        base = ObjectBase()
        base.register(register_definition("cell", 0))

        def double_write(ctx, value):
            results = yield ctx.parallel(
                ctx.call("cell", "write", value),
                ctx.call("cell", "write", value + 1),
            )
            return results

        base.register_transaction(MethodDefinition("double_write", double_write))

        engine = SimulationEngine(
            base,
            make_scheduler("n2pl"),
            record_trace=True,
        )
        engine.submit(TransactionSpec("double_write", (7,)))
        result = engine.run()

        assert result.metrics.committed == 1
        assert result.metrics.aborted_attempts == 0, (
            "sibling contention inside one transaction must resolve by lock "
            "inheritance, not by deadlock"
        )
        assert result.metrics.parks >= 1
        assert result.metrics.wakes >= 1
        assert result.metrics.forced_wakes == 0
        woken = result.trace.of_kind(WOKEN)
        assert woken, "the parked sibling must be explicitly re-awakened"

    def test_n2pl_notes_wakeups_for_transfer_and_release(self):
        # Drive the scheduler directly: the freed owner ids surfaced by
        # LockManager.transfer / release_all must reach drain_wakeups().
        scheduler = NestedTwoPhaseLocking()
        from repro.objectbase import ObjectBase
        from repro.objectbase.adts import register_definition

        base = ObjectBase()
        base.register(register_definition("A", 0))
        scheduler.attach(base)

        top = info("T1")
        blocker_child = child_of(top, "T1.1", "A")
        scheduler.on_transaction_begin(top)
        scheduler.on_invoke(top, blocker_child)
        granted = scheduler.on_operation(request(blocker_child, "A", WriteRegister(1)))
        assert granted.granted

        other = info("T2")
        scheduler.on_transaction_begin(other)
        blocked = scheduler.on_operation(request(other, "A", WriteRegister(2)))
        assert blocked.blocked
        assert "T1.1" in blocked.blockers

        # Rule 5: completing the child transfers its locks to the parent and
        # must produce a wake-up for the child's id — the key the waiter is
        # parked on.
        scheduler.on_execution_complete(blocker_child)
        assert "T1.1" in scheduler.drain_wakeups()
        assert scheduler.drain_wakeups() == frozenset()  # drained exactly once

        # Commit releases the inherited locks.  Transaction-end wake-ups are
        # the engine's job (it always wakes frames parked on an ending
        # transaction), so the scheduler adds no note of its own — only
        # rule-5 transfers carry scheduler-side wake information.
        scheduler.on_transaction_commit(top)
        assert scheduler.drain_wakeups() == frozenset()
        assert scheduler.on_operation(request(other, "A", WriteRegister(2))).granted
