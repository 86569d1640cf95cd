"""Adaptive per-object strategy management: config, swaps, determinism.

The claims under test mirror DESIGN.md's correctness argument: swaps only
happen at object-quiescent points, a forced mid-run swap cannot damage
the committed projection, adaptation is a pure function of the run (so
fixed-seed repeats are bit-identical), and contention actually moves hot
objects up the ladder.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import certify_run
from repro.core.errors import UnknownObjectError
from repro.scheduler import adaptive, make_scheduler
from repro.scheduler.adaptive import AdaptiveModularScheduler, DEFAULT_LADDER
from repro.scheduler.modular import INTRA_STRATEGIES, IntraObjectLocking
from repro.simulation import HotspotWorkload, SimulationEngine

from tests.oracles.engines import ReplayCheckedEngine


# Production's threshold, read before the fixture below lowers it.
PRODUCTION_PROMOTE_THRESHOLD = adaptive.PROMOTE_THRESHOLD


@pytest.fixture(autouse=True, scope="module")
def lower_promote_threshold():
    # These runs are small: one contention sample fewer than production's
    # threshold promotes an object.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(adaptive, "PROMOTE_THRESHOLD", 3)
        yield


def contended_workload(seed=11, transactions=40):
    return HotspotWorkload(
        transactions=transactions,
        hot_objects=2,
        cold_objects=8,
        operations_per_transaction=4,
        hot_probability=0.9,
        use_service_layer=False,
        seed=seed,
    )


def adaptive_scheduler(**kwargs):
    kwargs.setdefault("window", 16)
    kwargs.setdefault("restart_policy", "backoff")
    return AdaptiveModularScheduler(**kwargs)


def run_adaptive(workload, scheduler=None, seed=7, engine_class=SimulationEngine):
    base, specs = workload.build()
    scheduler = scheduler or adaptive_scheduler()
    engine = engine_class(base, scheduler, seed=seed)
    engine.submit_all(specs)
    return engine.run(), scheduler


class TestConfiguration:
    def test_factory_registration(self):
        scheduler = make_scheduler("adaptive", window=32)
        assert isinstance(scheduler, AdaptiveModularScheduler)
        assert scheduler.window == 32

    def test_bad_window(self):
        with pytest.raises(ValueError, match="window must be >= 1"):
            AdaptiveModularScheduler(window=0)

    def test_ladder_rungs_are_distinct_known_strategies(self):
        assert DEFAULT_LADDER
        assert len(set(DEFAULT_LADDER)) == len(DEFAULT_LADDER)
        assert all(name in INTRA_STRATEGIES for name in DEFAULT_LADDER)

    def test_thresholds_leave_a_calm_band(self):
        # A window's score cannot both promote and demote its object, and
        # every count the controller waits for is at least one.
        assert 0 <= adaptive.DEMOTE_THRESHOLD < PRODUCTION_PROMOTE_THRESHOLD
        assert adaptive.HYSTERESIS >= 1
        assert adaptive.DRAIN_LIMIT >= 1
        assert adaptive.DRAIN_PATIENCE >= 1

    def test_attach_starts_everyone_on_rung_zero(self):
        base, _ = contended_workload().build()
        scheduler = adaptive_scheduler()
        scheduler.attach(base)
        assert set(scheduler._rungs) == set(scheduler._synchronisers)
        assert set(scheduler._rungs.values()) == {0}

    def test_pinned_objects_never_adapt(self):
        base, _ = contended_workload().build()
        scheduler = adaptive_scheduler(
            per_object_strategy={"hot-0": "locking"}
        )
        scheduler.attach(base)
        assert "hot-0" not in scheduler._rungs
        assert isinstance(scheduler.synchroniser_for("hot-0"), IntraObjectLocking)


class TestUnknownObjectAccess:
    def test_modular_synchroniser_for_raises(self):
        base, _ = contended_workload().build()
        scheduler = make_scheduler("modular")
        scheduler.attach(base)
        with pytest.raises(UnknownObjectError, match="nope"):
            scheduler.synchroniser_for("nope")

    def test_adaptive_synchroniser_for_raises(self):
        base, _ = contended_workload().build()
        scheduler = adaptive_scheduler()
        scheduler.attach(base)
        with pytest.raises(UnknownObjectError):
            scheduler.synchroniser_for("missing-object")


class TestAdaptation:
    def test_contention_promotes_hot_objects(self):
        result, scheduler = run_adaptive(contended_workload())
        description = scheduler.describe()
        assert description["windows_evaluated"] > 0
        assert description["strategy_swaps"] > 0
        # Hot objects must have left the optimistic rung at least once;
        # after the run they sit wherever the decay left them, so assert
        # on the swap counter rather than the final rung.
        assert result.metrics.committed + result.metrics.gave_up == 40

    def test_adaptive_runs_stay_serialisable_and_legal(self):
        result, _ = run_adaptive(contended_workload(seed=23))
        report = certify_run(result, check_legality=True)
        assert report.serialisable
        assert report.legal

    def test_swaps_only_at_quiescent_points(self):
        # The quiescence rule is structural: _try_swap refuses while any
        # live transaction has touched the object.
        base, _ = contended_workload().build()
        scheduler = adaptive_scheduler()
        scheduler.attach(base)
        scheduler._live_on["hot-0"].add("T1")
        scheduler._desired["hot-0"] = 1
        assert scheduler._try_swap("hot-0") is False
        assert scheduler.deferred_swaps == 1
        assert scheduler._rungs["hot-0"] == 0
        scheduler._live_on["hot-0"].clear()
        assert scheduler._try_swap("hot-0") is True
        assert scheduler._rungs["hot-0"] == 1


def force_swap(scheduler, object_name, strategy):
    """Ask for an immediate move of ``object_name`` to a default-ladder rung.

    The diagnostic hook the scheduler used to carry: record the desire the
    way the window evaluation does and try it at once.  The swap still
    honours the quiescence rule; a busy object keeps the desire and swaps
    at its next quiescent point.  Returns True when the swap executed now.
    """
    scheduler._desired[object_name] = DEFAULT_LADDER.index(strategy)
    scheduler._desired_age[object_name] = 0
    return scheduler._try_swap(object_name)


class TestForceSwap:
    def test_quiescent_force_swap_executes_immediately(self):
        base, _ = contended_workload().build()
        scheduler = adaptive_scheduler()
        scheduler.attach(base)
        assert force_swap(scheduler, "hot-0", "locking") is True
        assert scheduler._rungs["hot-0"] == DEFAULT_LADDER.index("locking")

    def test_forced_mid_run_swaps_preserve_legality(self, monkeypatch):
        # Force the hot objects up and back down while transactions are
        # in flight; the quiescence rule defers what it must, and the
        # committed projection has to stay serialisable AND legal.
        class ForcingScheduler(AdaptiveModularScheduler):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                self._force_ops = 0

            def on_operation(self, request):
                self._force_ops += 1
                if self._force_ops == 25:
                    for name in ("hot-0", "hot-1"):
                        force_swap(self, name, "locking")
                elif self._force_ops == 120:
                    for name in ("hot-0", "hot-1"):
                        force_swap(self, name, "certifier")
                return super().on_operation(request)

        monkeypatch.setattr(adaptive, "PROMOTE_THRESHOLD", 10_000)  # natural adaptation off
        scheduler = ForcingScheduler(window=10_000, restart_policy="backoff")
        result, scheduler = run_adaptive(
            contended_workload(seed=31), scheduler=scheduler, engine_class=ReplayCheckedEngine
        )
        assert scheduler.strategy_swaps + scheduler.deferred_swaps > 0
        report = certify_run(result, check_legality=True)
        assert report.serialisable
        assert report.legal
        assert result.metrics.committed + result.metrics.gave_up == 40


def outcome(workload_seed, engine_seed):
    result, scheduler = run_adaptive(
        contended_workload(seed=workload_seed), seed=engine_seed
    )
    return (
        result.metrics.as_dict(),
        tuple(result.committed_transaction_ids),
        {name: dict(state) for name, state in result.final_states().items()},
        scheduler.describe(),
    )


class TestDeterminism:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    def test_fixed_seed_repeats_are_bit_identical(self, workload_seed, engine_seed):
        assert outcome(workload_seed, engine_seed) == outcome(
            workload_seed, engine_seed
        )
