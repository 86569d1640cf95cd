"""Tests for the simulation engine: execution, nesting, aborts, metrics."""

import pytest

from repro.core import ENVIRONMENT_OBJECT
from repro.core.errors import SimulationError, UnknownMethodError
from repro.objectbase import MethodDefinition, ObjectBase, ObjectDefinition
from repro.objectbase.adts import counter_definition, register_definition
from repro.scheduler import NestedTwoPhaseLocking, Scheduler, make_scheduler
from repro.scheduler.base import SchedulerResponse
from repro.scheduler.restart import RestartPolicy
from repro.simulation import SimulationEngine, TransactionSpec
from repro.simulation.events import ABORTED, BEGIN, COMMITTED, RESTARTED


def two_register_base():
    """Two registers plus transactions that exercise nesting and parallelism."""
    base = ObjectBase()
    base.register(register_definition("left", 0))
    base.register(register_definition("right", 0))
    base.register(counter_definition("tally", 0))

    service = ObjectDefinition(name="copier")

    def copy(ctx, source, destination):
        value = yield ctx.invoke(source, "read")
        yield ctx.invoke(destination, "write", value)
        return value

    service.add_method(MethodDefinition("copy", copy))
    base.register(service)

    def set_both(ctx, value):
        yield ctx.invoke("left", "write", value)
        yield ctx.invoke("right", "write", value)
        yield ctx.invoke("tally", "add", 1)
        return value

    def copy_left_to_right(ctx):
        result = yield ctx.invoke("copier", "copy", "left", "right")
        return result

    def read_both(ctx):
        values = yield ctx.parallel(ctx.call("left", "read"), ctx.call("right", "read"))
        return tuple(values)

    base.register_transaction(MethodDefinition("set_both", set_both))
    base.register_transaction(MethodDefinition("copy_left_to_right", copy_left_to_right))
    base.register_transaction(MethodDefinition("read_both", read_both))
    return base


def run_engine(base, specs, scheduler=None, **kwargs):
    engine = SimulationEngine(base, scheduler or Scheduler(), **kwargs)
    engine.submit_all(specs)
    return engine.run()


class TestBasicExecution:
    def test_single_transaction_commits_and_updates_state(self):
        base = two_register_base()
        result = run_engine(base, [TransactionSpec("set_both", (7,))])
        assert result.metrics.committed == 1
        assert result.metrics.aborted_attempts == 0
        finals = result.history.final_states()
        assert finals["left"]["value"] == 7
        assert finals["right"]["value"] == 7
        assert finals["tally"]["count"] == 1

    def test_recorded_history_structure(self):
        base = two_register_base()
        result = run_engine(base, [TransactionSpec("copy_left_to_right")])
        history = result.history
        top_levels = history.top_level_executions()
        assert len(top_levels) == 1
        top = history.execution(top_levels[0])
        assert top.object_name == ENVIRONMENT_OBJECT
        # environment (level 0) -> copier.copy (level 1) -> register methods
        # (level 2): two levels of proper ancestors.
        depths = [history.level(execution_id) for execution_id in history.execution_ids()]
        assert max(depths) == 2
        assert result.metrics.invocations == 3

    def test_return_value_of_nested_call_propagates(self):
        base = two_register_base()
        result = run_engine(
            base,
            [TransactionSpec("set_both", (4,)), TransactionSpec("copy_left_to_right")],
            scheduler=make_scheduler("n2pl"),
        )
        assert result.metrics.committed == 2
        assert result.final_states()["right"]["value"] == 4

    def test_parallel_children_return_values_in_order(self):
        base = two_register_base()
        result = run_engine(base, [TransactionSpec("set_both", (9,)), TransactionSpec("read_both")])
        # The read_both transaction records two parallel message steps whose
        # programme order does not relate them.
        history = result.history
        read_top = [
            execution_id
            for execution_id in history.top_level_executions()
            if history.execution(execution_id).method_name == "read_both"
        ][0]
        messages = history.execution(read_top).message_steps()
        assert len(messages) == 2
        first, second = messages
        assert not history.execution(read_top).program_precedes(first, second)
        assert not history.execution(read_top).program_precedes(second, first)

    def test_submission_validates_method_name(self):
        base = two_register_base()
        engine = SimulationEngine(base, Scheduler())
        with pytest.raises(UnknownMethodError):
            engine.submit("no_such_transaction")

    def test_submit_by_name_and_arguments(self):
        base = two_register_base()
        engine = SimulationEngine(base, Scheduler())
        engine.submit("set_both", 3)
        result = engine.run()
        assert result.metrics.committed == 1
        assert result.history.final_states()["left"]["value"] == 3

    def test_engine_is_single_use(self):
        base = two_register_base()
        engine = SimulationEngine(base, Scheduler())
        engine.submit("set_both", 3)
        engine.run()
        with pytest.raises(SimulationError):
            engine.run()


class TestAbortAndRestart:
    class AbortFirstAttempt(Scheduler):
        """Aborts the very first operation it ever sees, then grants everything."""

        name = "abort-once"

        def __init__(self, restart_policy="immediate"):
            super().__init__(restart_policy)
            self.aborted_once = False

        def on_operation(self, request):
            if not self.aborted_once:
                self.aborted_once = True
                return SchedulerResponse.abort("synthetic failure")
            return SchedulerResponse.grant()

    def test_aborted_transaction_restarts_and_commits(self):
        base = two_register_base()
        result = run_engine(base, [TransactionSpec("set_both", (5,))], scheduler=self.AbortFirstAttempt())
        assert result.metrics.aborted_attempts == 1
        assert result.metrics.restarts == 1
        assert result.metrics.committed == 1
        assert result.final_states()["left"]["value"] == 5
        # The aborted attempt's executions are excluded from the committed
        # projection but present in the full history.
        assert result.aborted_execution_ids
        committed = result.committed_history()
        assert set(committed.execution_ids()).isdisjoint(result.aborted_execution_ids)

    def test_events_due_at_one_tick_release_the_restart_then_arrivals_in_submission_order(self):
        class FixedDelay(RestartPolicy):
            name = "fixed"

            def delay(self, lineage, attempt, reason):
                return 7

        def run(later_arrivals):
            engine = SimulationEngine(
                two_register_base(), self.AbortFirstAttempt(FixedDelay()), record_trace=True
            )
            engine.submit_scheduled(
                [(0, TransactionSpec("set_both", (1,), label="first")), *later_arrivals]
            )
            return engine.run()

        # Alone, the aborted transaction's delayed restart fires at its due tick.
        due = run([]).trace.of_kind(RESTARTED)[0].tick
        result = run(
            [
                (due, TransactionSpec("set_both", (2,), label="a")),
                (due, TransactionSpec("set_both", (3,), label="b")),
            ]
        )
        begun = [
            event.detail
            for event in result.trace
            if event.kind in (BEGIN, RESTARTED) and event.tick == due
        ]
        assert begun == ["first", "a", "b"]
        assert result.metrics.committed == 3

    def test_aborted_effects_are_undone(self):
        base = two_register_base()

        class AbortMidway(Scheduler):
            """Grant the first write, abort the transaction on its second."""

            def __init__(self):
                super().__init__()
                self.granted = 0

            def on_operation(self, request):
                self.granted += 1
                if self.granted == 2:
                    return SchedulerResponse.abort("synthetic failure")
                return SchedulerResponse.grant()

        result = run_engine(base, [TransactionSpec("set_both", (5,))], scheduler=AbortMidway(), max_restarts=0)
        assert result.metrics.committed == 0
        assert result.metrics.gave_up == 1
        # The partially executed write to "left" must not survive in the
        # committed projection.
        committed = result.committed_history()
        assert committed.final_states().get("left", {}).get("value", 0) == 0

    class AlwaysAbort(Scheduler):
        def on_operation(self, request):
            return SchedulerResponse.abort("never succeeds")

    def test_gave_up_after_max_restarts(self):
        base = two_register_base()
        result = run_engine(
            base, [TransactionSpec("set_both", (5,))], scheduler=self.AlwaysAbort(), max_restarts=3
        )
        assert result.metrics.committed == 0
        assert result.metrics.gave_up == 1
        assert result.metrics.aborted_attempts == 4  # initial attempt + 3 restarts
        assert result.metrics.restarts == 3

    class BlockOn(Scheduler):
        """Blocks every operation on a fixed blocker set."""

        def __init__(self, blockers):
            super().__init__()
            self.blockers = blockers

        def on_operation(self, request):
            return SchedulerResponse.block("never grants", blockers=self.blockers)

    @pytest.mark.parametrize("blockers", [(), ("T99",)], ids=["none", "dead"])
    def test_a_block_naming_no_live_blocker_raises(self, blockers):
        with pytest.raises(SimulationError, match=r"BlockOn blocked T1\.1 .*no live blocker"):
            run_engine(
                two_register_base(), [TransactionSpec("set_both", (5,))], self.BlockOn(blockers)
            )

    class ObjectLocks(Scheduler):
        """Each object is locked by its first transaction until that commits.

        Nothing detects deadlock: two transactions that lock the registers
        in opposite orders wait on each other for ever.
        """

        def _reset(self):
            super()._reset()
            self.owners = {}

        def on_operation(self, request):
            owner = self.owners.setdefault(request.object_name, request.info.top_level_id)
            if owner == request.info.top_level_id:
                return SchedulerResponse.grant()
            return SchedulerResponse.block("object locked", blockers={owner})

        def on_transaction_commit(self, info):
            self.owners = {
                name: owner for name, owner in self.owners.items() if owner != info.top_level_id
            }

    def test_a_deadlock_nobody_detects_raises_naming_both_parked_frames(self):
        base = two_register_base()

        def set_right_then_left(ctx, value):
            yield ctx.invoke("right", "write", value)
            yield ctx.invoke("left", "write", value)
            return value

        base.register_transaction(MethodDefinition("set_right_then_left", set_right_then_left))
        specs = [TransactionSpec("set_both", (1,)), TransactionSpec("set_right_then_left", (2,))]
        with pytest.raises(SimulationError, match="ObjectLocks") as raised:
            run_engine(base, specs, self.ObjectLocks(), seed=0)
        message = str(raised.value)
        assert "no frame is ready and no event is due" in message
        assert "T1.2 on T2" in message and "T2.2 on T1" in message

    def test_commit_veto_counts_as_validation_abort(self):
        base = two_register_base()

        class VetoCommit(Scheduler):
            def on_commit_request(self, info):
                return SchedulerResponse.abort("validation failed: synthetic")

        result = run_engine(
            base, [TransactionSpec("set_both", (5,))], scheduler=VetoCommit(), max_restarts=0
        )
        assert result.metrics.committed == 0
        assert result.metrics.aborts_by_reason.get("validation", 0) == 1


class TestTraceAndMetrics:
    def test_trace_records_lifecycle_events(self):
        base = two_register_base()
        result = run_engine(base, [TransactionSpec("set_both", (2,))], record_trace=True)
        kinds = {event.kind for event in result.trace}
        assert COMMITTED in kinds
        assert ABORTED not in kinds
        assert len(result.trace.of_kind(COMMITTED)) == 1

    def test_trace_disabled_by_default(self):
        base = two_register_base()
        result = run_engine(base, [TransactionSpec("set_both", (2,))])
        assert result.trace is None

    def test_metrics_summary_contains_scheduler_name(self):
        base = two_register_base()
        scheduler = NestedTwoPhaseLocking()
        result = run_engine(base, [TransactionSpec("set_both", (2,))], scheduler=scheduler)
        summary = result.summary()
        assert summary["scheduler"] == "n2pl"
        assert summary["committed"] == 1
        assert 0.0 <= summary["throughput"] <= 1.0

    def test_metrics_derived_quantities(self):
        base = two_register_base()
        result = run_engine(base, [TransactionSpec("set_both", (2,))])
        metrics = result.metrics
        assert metrics.abort_rate == 0.0
        assert metrics.blocked_fraction == 0.0
        assert metrics.wasted_fraction == 0.0
        assert metrics.local_steps == 3
        assert metrics.submitted == 1

    def test_determinism_for_fixed_seed(self):
        base_one = two_register_base()
        base_two = two_register_base()
        specs = [TransactionSpec("set_both", (1,)), TransactionSpec("copy_left_to_right")]
        first = run_engine(base_one, specs, scheduler=make_scheduler("n2pl"), seed=42)
        second = run_engine(base_two, specs, scheduler=make_scheduler("n2pl"), seed=42)
        assert first.metrics.as_dict() == second.metrics.as_dict()
