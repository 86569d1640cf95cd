"""Fault injection: deterministic crashes exercising undo + recovery.

An injected crash is an engine-initiated abort of an in-flight top-level
transaction.  The tests pin the contract: the plan is one ascending feed
of crash ticks, faults land exactly where it says, victims recover through
the ordinary undo/restart machinery (verified against full replay by
running on ``ReplayCheckedEngine``), the committed projection stays
serialisable, a pending crash never keeps a finished run alive, and a
faulted run is still a pure function of its seeds.
"""

from __future__ import annotations

import itertools

import pytest

from repro.analysis import certify_run
from repro.scheduler import make_scheduler
from repro.simulation import (
    FAULT_REGISTRY,
    CrashPlan,
    HotspotWorkload,
    SimulationEngine,
    fault_plan_names,
    make_fault_plan,
)
from repro.simulation.events import COMMITTED, FAULT_INJECTED, GAVE_UP

from tests.oracles.engines import ReplayCheckedEngine


def run_with_faults(
    fault_plan, scheduler="n2pl", seed=7, record_trace=False, engine_class=SimulationEngine
):
    workload = HotspotWorkload(
        transactions=24,
        hot_objects=2,
        cold_objects=8,
        operations_per_transaction=4,
        hot_probability=0.6,
        use_service_layer=False,
        seed=seed,
    )
    base, specs = workload.build()
    engine = engine_class(
        base,
        make_scheduler(scheduler, restart_policy="backoff"),
        seed=seed,
        fault_plan=fault_plan,
        record_trace=record_trace,
    )
    engine.submit_all(specs)
    return engine.run()


class TestMakeFaultPlan:
    def test_by_name(self):
        plan = make_fault_plan("crash", at=(100,))
        assert isinstance(plan, CrashPlan)
        assert plan.at == (100,)

    def test_by_mapping(self):
        plan = make_fault_plan({"name": "crash", "period": 50, "max_faults": 3})
        assert plan.period == 50
        assert plan.max_faults == 3

    def test_instance_passthrough(self):
        plan = CrashPlan(at=(10,))
        assert make_fault_plan(plan) is plan

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown fault plan"):
            make_fault_plan("meteor")

    def test_names_cover_registry(self):
        assert fault_plan_names() == sorted(FAULT_REGISTRY)


class TestCrashPlanValidation:
    def test_negative_ticks(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            CrashPlan(at=(-5,))

    def test_bad_period(self):
        with pytest.raises(ValueError, match="period must be >= 1"):
            CrashPlan(period=0)

    def test_bad_max_faults(self):
        with pytest.raises(ValueError, match="max_faults must be >= 1"):
            CrashPlan(max_faults=0)

    def test_each_feed_starts_afresh(self):
        # One plan may serve several runs: a new feed forgets the crashes
        # the last one landed.
        plan = CrashPlan(period=10, max_faults=1)
        ticks = plan.ticks()
        assert next(ticks) == 10
        assert plan.strike(["T1"]) == "T1"
        assert next(ticks, None) is None
        assert list(itertools.islice(plan.ticks(), 3)) == [10, 20, 30]


def first(plan, count):
    return list(itertools.islice(plan.ticks(), count))


class TestCrashFeed:
    """The plan is one ascending feed of crash ticks, read as crashes land."""

    def test_explicit_ticks_merge_into_the_period_schedule(self):
        # An explicit tick starts no schedule of its own.
        assert first(CrashPlan(at=(40, 90), period=150), 6) == [40, 90, 150, 300, 450, 600]

    def test_explicit_ticks_alone_end_the_feed(self):
        assert list(CrashPlan(at=(90, 40)).ticks()) == [40, 90]
        assert list(CrashPlan().ticks()) == []

    def test_duplicate_ticks_fire_twice(self):
        assert list(CrashPlan(at=(7, 7, 3)).ticks()) == [3, 7, 7]
        assert first(CrashPlan(at=(20,), period=20), 3) == [20, 20, 40]

    def test_max_faults_counts_landed_crashes_only(self):
        plan = CrashPlan(period=5, max_faults=2)
        ticks = plan.ticks()
        assert next(ticks) == 5
        assert plan.strike([]) is None  # nobody in flight: the crash passes
        assert next(ticks) == 10
        assert plan.strike(["T1", "T2"]) == "T1"
        assert next(ticks) == 15
        assert plan.strike(["T3"]) == "T3"
        assert next(ticks, None) is None

    def test_the_victim_is_the_oldest(self):
        assert CrashPlan().strike(["T1", "T2", "T3"]) == "T1"


class TestInjection:
    def test_faults_land_and_victims_recover(self):
        # The oracle engine re-derives every object state by full replay
        # after each abort — including the injected ones — and raises on
        # any divergence, so a green run certifies the recovery path.
        result = run_with_faults(
            CrashPlan(at=(40, 90), period=150), engine_class=ReplayCheckedEngine
        )
        assert result.metrics.faults_injected > 0
        assert result.metrics.aborts_by_reason.get("fault", 0) == (
            result.metrics.faults_injected
        )
        assert result.metrics.committed + result.metrics.gave_up == 24
        assert certify_run(result, check_legality=True).serialisable

    def test_fault_events_are_traced(self):
        result = run_with_faults(CrashPlan(at=(40,), period=200), record_trace=True)
        injected = [
            event for event in result.trace.events if event.kind == FAULT_INJECTED
        ]
        assert len(injected) == result.metrics.faults_injected
        assert all("crash injected at tick" in event.detail for event in injected)

    def test_max_faults_caps_injection(self):
        result = run_with_faults(CrashPlan(period=60, max_faults=2))
        assert 0 < result.metrics.faults_injected <= 2

    def test_crashed_runs_complete(self):
        result = run_with_faults(CrashPlan(period=100, max_faults=3))
        assert result.metrics.committed + result.metrics.gave_up == 24

    def test_no_plan_means_no_faults(self):
        result = run_with_faults(None)
        assert result.metrics.faults_injected == 0
        assert "fault" not in result.metrics.aborts_by_reason

    def test_adaptive_scheduler_survives_faults(self):
        result = run_with_faults(
            CrashPlan(period=80, max_faults=3),
            scheduler="adaptive",
            engine_class=ReplayCheckedEngine,
        )
        assert result.metrics.committed + result.metrics.gave_up == 24
        report = certify_run(result, check_legality=True)
        assert report.serialisable
        assert report.legal


def last_settlement(result):
    """The tick at which the run's last lineage committed or gave up."""
    return max(
        event.tick for event in result.trace.events if event.kind in (COMMITTED, GAVE_UP)
    )


class TestIdleCrashTail:
    """A pending crash is not work: the run ends at its last decision."""

    @pytest.mark.parametrize(
        "plan",
        (
            CrashPlan(at=(40, 90), period=150),
            CrashPlan(period=150),
            CrashPlan(at=(100_000,)),
        ),
        ids=("at-and-period", "period", "late-at"),
    )
    def test_makespan_is_the_last_settlement(self, plan):
        result = run_with_faults(plan, record_trace=True)
        assert result.metrics.committed + result.metrics.gave_up == 24
        assert result.metrics.total_ticks == last_settlement(result)

    def test_a_crash_due_after_the_run_never_lands(self):
        plain = run_with_faults(None)
        late = run_with_faults(CrashPlan(at=(100_000,)))
        assert late.metrics.faults_injected == 0
        assert late.metrics.as_dict() == plain.metrics.as_dict()


class TestDeterminism:
    def test_faulted_runs_are_bit_identical(self):
        def outcome():
            result = run_with_faults(CrashPlan(period=70, max_faults=4))
            return (
                result.metrics.as_dict(),
                tuple(result.committed_transaction_ids),
                {n: dict(s) for n, s in result.final_states().items()},
            )

        assert outcome() == outcome()

    def test_engine_params_accepts_plan_mappings(self):
        # The JSON shape a sweep spec carries must resolve identically to
        # a ready instance.
        by_mapping = run_with_faults({"name": "crash", "period": 70, "max_faults": 2})
        by_instance = run_with_faults(CrashPlan(period=70, max_faults=2))
        assert by_mapping.metrics.as_dict() == by_instance.metrics.as_dict()
