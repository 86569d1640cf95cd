"""Restart policies: registry, policy behaviour, engine integration.

The policy classes themselves are deterministic state machines, tested
directly; the engine integration tests drive
:class:`~repro.simulation.engine.SimulationEngine` with schedulers
carrying a non-immediate policy and check the delayed-restart queue
end-to-end (delays scheduled, restarts released, fast-forward when
nothing else is runnable, trace events).
"""

from __future__ import annotations

import pytest

from repro.objectbase import MethodDefinition, ObjectBase
from repro.objectbase.adts import register_definition
from repro.scheduler import (
    ImmediateRestart,
    OrderedRestart,
    RandomizedBackoff,
    RestartPolicy,
    Scheduler,
    make_restart_policy,
    make_scheduler,
    restart_policy_names,
)
from repro.scheduler import restart
from repro.scheduler.base import ExecutionInfo, SchedulerResponse
from repro.simulation import SimulationEngine, TransactionSpec
from repro.simulation.events import GAVE_UP, RESTARTED, RESTART_SCHEDULED


class TestRegistry:
    def test_names(self):
        assert restart_policy_names() == ["backoff", "immediate", "ordered"]

    def test_make_by_name(self):
        assert isinstance(make_restart_policy("immediate"), ImmediateRestart)
        assert isinstance(make_restart_policy("backoff"), RandomizedBackoff)
        assert isinstance(make_restart_policy("ordered"), OrderedRestart)

    def test_make_by_mapping(self):
        assert isinstance(make_restart_policy({"name": "backoff"}), RandomizedBackoff)

    def test_instance_passes_through(self):
        policy = OrderedRestart()
        assert make_restart_policy(policy) is policy

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown restart policy"):
            make_restart_policy("polite")

    def test_mapping_without_name_raises(self):
        with pytest.raises(TypeError, match="'name' entry"):
            make_restart_policy({"base": 4})

    @pytest.mark.parametrize("name", ("immediate", "backoff", "ordered"))
    def test_keywords_raise(self, name):
        # A policy is a bare name: its constants are module-level.
        with pytest.raises(TypeError):
            make_restart_policy({"name": name, "base": 4})

    def test_unsupported_spec_type_raises(self):
        with pytest.raises(TypeError, match="restart policy must be"):
            make_restart_policy(42)

    def test_every_scheduler_factory_accepts_a_policy(self):
        for name in ("pass-through", "n2pl", "n2pl-step", "nto", "nto-step",
                     "single-active", "certifier", "modular", "modular-intra-only"):
            scheduler = make_scheduler(name, restart_policy="ordered")
            assert scheduler.restart_policy.name == "ordered"
            assert scheduler.describe()["restart_policy"] == "ordered"

    def test_factory_accepts_mapping_policy(self):
        scheduler = make_scheduler("certifier", restart_policy={"name": "backoff"})
        assert isinstance(scheduler.restart_policy, RandomizedBackoff)


class TestImmediate:
    def test_zero_delay_always(self):
        policy = ImmediateRestart()
        policy.bind(99)
        assert policy.delay(0, 1, "any") == 0
        assert policy.delay(5, 20, "any") == 0


class TestBackoff:
    def test_deterministic_given_bind_seed(self):
        first, second = RandomizedBackoff(), RandomizedBackoff()
        first.bind(42)
        second.bind(42)
        sequence = [(lineage, attempt) for lineage in range(3) for attempt in range(1, 6)]
        assert [first.delay(l, a, "r") for l, a in sequence] == [
            second.delay(l, a, "r") for l, a in sequence
        ]

    def test_different_seeds_diverge(self):
        first, second = RandomizedBackoff(), RandomizedBackoff()
        first.bind(1)
        second.bind(2)
        draws_first = [first.delay(0, 1, "r") for _ in range(32)]
        draws_second = [second.delay(0, 1, "r") for _ in range(32)]
        assert draws_first != draws_second

    def test_delay_within_the_exponential_window(self):
        policy = RandomizedBackoff()
        policy.bind(7)
        for attempt in range(1, 12):
            window = restart.BACKOFF_BASE << min(attempt - 1, restart.BACKOFF_CAP)
            for _ in range(50):
                delay = policy.delay(0, attempt, "r")
                assert 1 <= delay <= window


class TestConstants:
    def test_delays_are_in_range(self):
        assert restart.BACKOFF_BASE >= 1
        assert restart.BACKOFF_CAP >= 0
        assert restart.ORDERED_STRIDE >= 1


class TestOrdered:
    def test_oldest_unfinished_lineage_never_waits(self):
        policy = OrderedRestart()
        policy.bind(0)
        for lineage in range(4):
            policy.on_submit(lineage)
        assert policy.delay(0, 3, "r") == 0

    def test_rank_scales_with_older_unfinished_lineages(self):
        policy = OrderedRestart()
        policy.bind(0)
        for lineage in range(4):
            policy.on_submit(lineage)
        assert policy.delay(3, 1, "r") == 3 * restart.ORDERED_STRIDE
        policy.on_finished(0)
        policy.on_finished(2)
        assert policy.delay(3, 1, "r") == restart.ORDERED_STRIDE  # only lineage 1 is older now
        assert policy.delay(1, 1, "r") == 0  # ...and is itself the oldest

    def test_bind_resets_state(self):
        policy = OrderedRestart()
        policy.on_submit(0)
        policy.on_submit(1)
        policy.bind(0)
        assert policy.delay(1, 1, "r") == 0  # no unfinished lineages recorded


# ---------------------------------------------------------------------------
# engine integration
# ---------------------------------------------------------------------------


class AbortFirstAttempts(Scheduler):
    """Vetoes the first ``attempts_to_kill`` commit requests per transaction label."""

    name = "abort-first-attempts"

    def __init__(self, attempts_to_kill: int = 1, restart_policy="immediate"):
        super().__init__(restart_policy=restart_policy)
        self.attempts_to_kill = attempts_to_kill
        self._kills: dict[str, int] = {}

    def on_commit_request(self, info: ExecutionInfo) -> SchedulerResponse:
        killed = self._kills.get(info.method_name, 0)
        if killed < self.attempts_to_kill:
            self._kills[info.method_name] = killed + 1
            return SchedulerResponse.abort("validation failed: synthetic veto")
        return SchedulerResponse.grant()


def single_register_base(transactions: int = 1) -> ObjectBase:
    base = ObjectBase()
    base.register(register_definition("cell", 0))

    def bump(ctx, delta):
        value = yield ctx.invoke("cell", "read")
        yield ctx.invoke("cell", "write", (value or 0) + delta)
        return value

    # One method per submission: the veto counter in AbortFirstAttempts is
    # keyed by method name, so every transaction's first attempts are
    # vetoed independently of the interleaving.
    for index in range(transactions):
        base.register_transaction(MethodDefinition(f"bump-{index}", bump))
    return base


def run_with_policy(policy, *, attempts_to_kill=1, transactions=1, max_restarts=25, seed=3):
    base = single_register_base(transactions)
    scheduler = AbortFirstAttempts(attempts_to_kill, restart_policy=policy)
    engine = SimulationEngine(base, scheduler, seed=seed, record_trace=True,
                              max_restarts=max_restarts)
    for index in range(transactions):
        engine.submit(TransactionSpec(f"bump-{index}", (1,)))
    return engine.run()


class TestEngineIntegration:
    def test_immediate_policy_schedules_no_delays(self):
        result = run_with_policy("immediate")
        assert result.metrics.committed == 1
        assert result.metrics.restarts == 1
        assert result.metrics.delayed_restarts == 0
        assert result.metrics.restart_delay_ticks == 0
        assert not result.trace.of_kind(RESTART_SCHEDULED)

    def test_backoff_policy_delays_and_still_commits(self):
        result = run_with_policy("backoff")
        assert result.metrics.committed == 1
        assert result.metrics.restarts == 1
        assert result.metrics.delayed_restarts == 1
        assert result.metrics.restart_delay_ticks >= 1
        scheduled = result.trace.of_kind(RESTART_SCHEDULED)
        restarted = result.trace.of_kind(RESTARTED)
        assert len(scheduled) == 1 and len(restarted) == 1
        # The restart fired no earlier than its scheduled due tick (the
        # lone transaction forces a fast-forward of the idle clock).
        assert restarted[0].tick >= scheduled[0].tick + result.metrics.restart_delay_ticks

    def test_fast_forward_advances_makespan_past_the_delay(self, monkeypatch):
        monkeypatch.setattr(restart, "BACKOFF_BASE", 64)
        monkeypatch.setattr(restart, "BACKOFF_CAP", 0)
        result = run_with_policy("backoff")
        # Nothing else is runnable while the only transaction waits, so the
        # makespan must absorb the scheduled delay.
        assert result.metrics.committed == 1
        assert result.metrics.total_ticks >= result.metrics.restart_delay_ticks

    def test_ordered_policy_lets_the_oldest_restart_first(self):
        result = run_with_policy("ordered", transactions=3, attempts_to_kill=2)
        assert result.metrics.committed == 3
        assert result.metrics.delayed_restarts >= 1
        assert result.metrics.gave_up == 0

    def test_gave_up_ends_the_lineage_despite_delays(self):
        result = run_with_policy("backoff", attempts_to_kill=100, max_restarts=2)
        assert result.metrics.committed == 0
        assert result.metrics.gave_up == 1
        assert result.metrics.restarts == 2
        assert result.trace.of_kind(GAVE_UP)

    def test_attempt_counter_survives_delayed_restarts(self):
        result = run_with_policy("backoff", attempts_to_kill=3)
        # 3 vetoed attempts + 1 committing attempt = 3 restarts performed.
        assert result.metrics.committed == 1
        assert result.metrics.restarts == 3
        assert result.metrics.aborted_attempts == 3

    def test_truncation_clamps_fast_forward_to_max_ticks(self, monkeypatch):
        monkeypatch.setattr(restart, "BACKOFF_BASE", 4096)
        monkeypatch.setattr(restart, "BACKOFF_CAP", 0)
        base = single_register_base()
        scheduler = AbortFirstAttempts(1, restart_policy="backoff")
        engine = SimulationEngine(base, scheduler, seed=3, max_ticks=20)
        engine.submit(TransactionSpec("bump-0", (1,)))
        result = engine.run()
        # The lone delayed restart is due far beyond the tick budget: the
        # fast-forward must clamp to max_ticks, never report a makespan
        # beyond it.
        assert result.metrics.total_ticks <= 20
        assert result.metrics.committed == 0

    def test_runs_are_bit_identical_for_every_policy(self):
        for policy in ("immediate", "backoff", "ordered"):
            first = run_with_policy(policy, transactions=3, attempts_to_kill=2, seed=11)
            second = run_with_policy(policy, transactions=3, attempts_to_kill=2, seed=11)
            assert first.metrics.as_dict() == second.metrics.as_dict()
            assert first.committed_transaction_ids == second.committed_transaction_ids
            assert [
                (event.tick, event.kind, event.execution_id) for event in first.trace
            ] == [(event.tick, event.kind, event.execution_id) for event in second.trace]
