"""Commit-ordered objects: all-locking modular runs check only sibling order.

When every object runs strict locking over the scheduler's own conflicts,
the coordinator compares a step with its own transaction's earlier steps
and the commit gate is skipped (DESIGN.md, "Commit-ordered objects").
The full check is :class:`tests.oracles.modular.FullCheckModularScheduler`;
on the same scenario both must make every decision alike.  Any other
strategy set keeps the full check.
"""

from __future__ import annotations

import pytest

from repro.core.conflicts import ConservativeConflictSpec
from repro.objectbase.adts.register import ReadRegister, WriteRegister
from repro.scheduler import ModularScheduler, make_scheduler
from repro.scheduler.base import Decision
from repro.scheduler.modular import IntraObjectLocking
from repro.simulation import SimulationEngine, make_workload
from repro.simulation.workloads.random_ops import RandomOperationsWorkload

from tests.oracles.modular import FullCheckModularScheduler
from tests.scheduler.conftest import info
from tests.scheduler.test_modular import attach, run_step

#: Decision counters beside RunMetrics: the coordinator's, the waits-for
#: relation's and the commit gate's.
COUNTERS = (
    "ordering_aborts", "deadlocks_detected", "cascading_aborts", "commit_waits", "blocked_reads",
)


def decisions(result):
    metrics = {
        key: value
        for key, value in result.metrics.as_dict().items()
        if not key.startswith("live_state")
    }
    description = result.scheduler_description
    return (
        result.committed_transaction_ids,
        metrics,
        {counter: description[counter] for counter in COUNTERS},
    )


def run_both(build, run, seed, **kwargs):
    """``run`` the scenario ``build()`` makes on the fast path and on the full-check twin."""
    outcomes = []
    for scheduler_class in (ModularScheduler, FullCheckModularScheduler):
        base, specs = build()
        scheduler = scheduler_class(restart_policy="backoff", **kwargs)
        engine = SimulationEngine(base, scheduler, seed=seed, gc_interval=4)
        outcomes.append((scheduler, run(engine, specs)))
    (fast, fast_result), (full, full_result) = outcomes
    assert fast._coordinator.commit_ordered and not full._coordinator.commit_ordered
    return fast_result, full_result


def run_closed(engine, specs):
    engine.submit_all(specs)
    return engine.run()


SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3))  # (nesting depth, parallel fan-out)
SEEDS = range(6)


class TestTheTwinAgrees:
    def test_random_ops_grid(self):
        # Parallel siblings over a few registers, mostly writes: sibling
        # orders break (ordering aborts), locks wait and deadlock, and in
        # aca mode nothing may read from a live writer either way.
        ordering_aborts = 0
        for level in ("step", "operation"):
            for gate_mode in ("cascade", "aca"):
                for depth, fanout in SHAPES:
                    for seed in SEEDS:
                        fast, full = run_both(
                            lambda: RandomOperationsWorkload(
                                registers=6,
                                transactions=8,
                                operations_per_transaction=6,
                                write_fraction=0.6,
                                nesting_depth=depth,
                                parallel_fanout=fanout,
                                seed=seed,
                            ).build(),
                            run_closed,
                            seed,
                            level=level,
                            gate_mode=gate_mode,
                        )
                        cell = (level, gate_mode, depth, fanout, seed)
                        assert decisions(fast) == decisions(full), cell
                        ordering_aborts += full.scheduler_description["ordering_aborts"]
        # The grid reaches the check the fast path keeps.
        assert ordering_aborts > 0

    @pytest.mark.parametrize(
        "workload, params, rate",
        [
            ("hotspot", {"transactions": 120, "hot_probability": 0.6}, 0.05),
            ("zipf", {"transactions": 160, "objects": 8, "skew": 1.1}, 0.04),
        ],
    )
    def test_streams(self, workload, params, rate):
        fast, full = run_both(
            lambda: make_workload(workload, seed=5, **params).build(),
            lambda engine, specs: engine.run_stream(specs, {"name": "poisson", "rate": rate}),
            5,
        )
        assert decisions(fast) == decisions(full)
        assert full.metrics.committed == len(full.committed_transaction_ids) > 0
        # The twin pays for the gate's records and the cross edges.
        assert fast.metrics.live_state_peak < full.metrics.live_state_peak


class TestTheMark:
    def test_all_locking_is_commit_ordered(self, small_object_base):
        for level in ("step", "operation"):
            assert attach(small_object_base, level=level)._coordinator.commit_ordered

    def test_a_mixed_strategy_set_keeps_the_cross_check(self, small_object_base):
        # T reads B (timestamp), U writes B and A (locking) and commits,
        # then T writes A.  Each object alone is serialisable; B orders T
        # before U, A orders U before T, so T must abort.
        scheduler = attach(small_object_base, per_object_strategy={"other-cell": "timestamp"})
        assert not scheduler._coordinator.commit_ordered
        first, second = info("T"), info("U")
        scheduler.on_transaction_begin(first)
        scheduler.on_transaction_begin(second)
        assert run_step(scheduler, first, "other-cell", ReadRegister(), 0).granted
        assert run_step(scheduler, second, "other-cell", WriteRegister(1), None).granted
        assert run_step(scheduler, second, "cell", WriteRegister(1), None).granted
        assert scheduler.on_commit_request(second).granted
        scheduler.on_transaction_commit(second)
        response = run_step(scheduler, first, "cell", WriteRegister(2), None)
        assert response.decision is Decision.ABORT
        assert "inter-object ordering violation" in response.reason

    def test_a_locking_subclass_keeps_the_cross_check(self, small_object_base):
        class Subclass(IntraObjectLocking):
            pass

        spec = small_object_base.conflicts("step")["cell"]
        scheduler = attach(small_object_base, per_object_strategy={"cell": Subclass("cell", spec)})
        assert not scheduler._coordinator.commit_ordered

    def test_locking_over_another_conflict_spec_keeps_the_cross_check(self, small_object_base):
        other = IntraObjectLocking("cell", ConservativeConflictSpec())
        scheduler = attach(small_object_base, per_object_strategy={"cell": other})
        assert not scheduler._coordinator.commit_ordered
        # Bound to the scheduler's own spec, the same instance qualifies.
        own = IntraObjectLocking("cell", small_object_base.conflicts("step")["cell"])
        scheduler = attach(small_object_base, per_object_strategy={"cell": own})
        assert scheduler._coordinator.commit_ordered

    def test_locking_at_another_level_keeps_the_cross_check(self, small_object_base):
        spec = small_object_base.conflicts("step")["cell"]
        coarse = IntraObjectLocking("cell", spec, step_level=False)
        scheduler = attach(small_object_base, per_object_strategy={"cell": coarse})
        assert not scheduler._coordinator.commit_ordered

    def test_no_coordinator_no_mark(self, small_object_base):
        assert attach(small_object_base, inter_object_checks=False)._coordinator is None

    def test_adaptive_never_sets_it(self, small_object_base):
        # Every object pinned to locking: the strategy set qualifies, but a
        # swap could move an object off locking, so adaptive keeps the check.
        names = small_object_base.object_names(include_environment=True)
        pinned = {name: "locking" for name in names}
        scheduler = make_scheduler("adaptive", per_object_strategy=pinned)
        scheduler.attach(small_object_base)
        assert set(scheduler.describe()["strategies"].values()) == {"locking"}
        assert not scheduler._coordinator.commit_ordered
