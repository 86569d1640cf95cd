"""Runner layer: determinism (serial == parallel), ordering, row shape."""

from __future__ import annotations

import multiprocessing
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduler import make_scheduler
from repro.simulation import SimulationEngine, make_workload
from repro.sweep import (
    Axis,
    ScenarioSpec,
    SweepRunner,
    SweepSpec,
    run_scenario,
    summarise_run,
)

# ``fork`` keeps the worker-pool tests fast where available; the dedicated
# spawn test below exercises the portable default start method.
FAST_CONTEXT = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def tiny_spec(**overrides) -> ScenarioSpec:
    data = dict(
        workload="hotspot",
        scheduler="n2pl",
        seed=9,
        workload_params={
            "transactions": 4,
            "hot_objects": 2,
            "cold_objects": 6,
            "operations_per_transaction": 2,
            "hot_probability": 0.5,
            "seed": 9,
        },
    )
    data.update(overrides)
    return ScenarioSpec(**data)


def tiny_sweep(schedulers=("n2pl", "nto"), seeds=(1, 2)) -> SweepSpec:
    return SweepSpec(
        name="unit",
        base=tiny_spec(),
        axes=(Axis("scheduler", tuple(schedulers)), Axis("seed", tuple(seeds))),
    )


# ---------------------------------------------------------------------------
# row shape and single-scenario behaviour
# ---------------------------------------------------------------------------


def test_run_scenario_matches_direct_engine_run():
    """The sweep path reports exactly what a hand-built engine run reports."""
    spec = tiny_spec(tags={"grid": "unit"})
    workload = make_workload(spec.workload, **spec.workload_params)
    base, transaction_specs = workload.build()
    engine = SimulationEngine(base, make_scheduler(spec.scheduler), seed=spec.seed)
    engine.submit_all(transaction_specs)
    expected = summarise_run(engine.run(), spec.scheduler)
    expected.update(spec.tags)

    result = run_scenario(spec, index=3)
    assert result.row == expected
    assert list(result.row.keys()) == list(expected.keys())
    assert result.index == 3
    assert result.spec == spec
    assert result.worker_pid == os.getpid()
    assert result.elapsed_seconds >= 0
    # Timing and process facts never leak into the deterministic row.
    assert "elapsed_seconds" not in result.row
    assert "worker_pid" not in result.row


def test_engine_params_and_certify_flag_are_honoured():
    spec = tiny_spec(engine_params={"max_restarts": 1, "max_ticks": 7}, certify=False)
    row = run_scenario(spec).row
    assert "serialisable" not in row
    assert row["scheduler"] == "n2pl"
    # The tick cap cut the run short of its first commit.
    assert row["makespan"] == 7
    assert row["committed"] == 0


def test_modular_strategy_from_workload_builds_in_worker():
    spec = ScenarioSpec(
        workload="mixed",
        scheduler="modular",
        seed=4,
        workload_params={"customers": 3, "transactions": 6, "seed": 4},
        modular_strategy_from_workload=True,
    )
    row = run_scenario(spec).row
    assert row["scheduler"] == "modular"
    assert row["serialisable"] is True


# ---------------------------------------------------------------------------
# sweep execution
# ---------------------------------------------------------------------------


def test_serial_runs_are_repeatable():
    sweep = tiny_sweep()
    assert SweepRunner(sweep).run_rows() == SweepRunner(sweep).run_rows()


def test_empty_scenario_list_is_fine():
    assert SweepRunner([]).run() == []
    assert SweepRunner([], workers=4).run_rows() == []


def test_negative_workers_rejected():
    with pytest.raises(ValueError, match="workers must be >= 0"):
        SweepRunner([], workers=-1)


def test_results_come_back_in_grid_order():
    sweep = tiny_sweep(schedulers=("n2pl", "nto", "single-active"), seeds=(1, 2))
    results = SweepRunner(sweep, workers=2, mp_context=FAST_CONTEXT).run()
    assert [r.index for r in results] == list(range(6))
    assert [r.spec.tags["scheduler"] for r in results] == [
        "n2pl", "n2pl", "nto", "nto", "single-active", "single-active",
    ]


def test_parallel_rows_identical_to_serial_fork():
    sweep = tiny_sweep()
    serial = SweepRunner(sweep, workers=0).run_rows()
    parallel = SweepRunner(sweep, workers=2, mp_context=FAST_CONTEXT).run_rows()
    assert parallel == serial


def test_parallel_rows_identical_to_serial_spawn():
    """The portable default start method: specs pickled, engines built in-worker."""
    sweep = SweepSpec(
        name="spawn-unit",
        base=tiny_spec(),
        axes=(Axis("scheduler", ("n2pl", "nto")), Axis("seed", (7, 8))),
    )
    serial = SweepRunner(sweep, workers=0).run_rows()
    parallel = SweepRunner(sweep, workers=4, mp_context="spawn").run_rows()
    assert parallel == serial


def test_spawn_from_non_importable_main_fails_fast(monkeypatch):
    """A `python -` heredoc parent must get a clear error, not an endless
    worker-respawn hang (spawn re-imports __main__ by path)."""
    import sys

    monkeypatch.setattr(sys.modules["__main__"], "__file__", "/tmp/<stdin>", raising=False)
    runner = SweepRunner(tiny_sweep(), workers=2, mp_context="spawn")
    with pytest.raises(RuntimeError, match="not an importable file"):
        runner.run()


def test_workers_use_distinct_processes():
    sweep = tiny_sweep(schedulers=("n2pl",), seeds=(1, 2, 3, 4))
    results = SweepRunner(sweep, workers=2, mp_context=FAST_CONTEXT).run()
    assert all(r.worker_pid != os.getpid() for r in results)


@settings(max_examples=6, deadline=None)
@given(
    hot_probability=st.sampled_from((0.0, 0.25, 0.75, 1.0)),
    schedulers=st.lists(
        st.sampled_from(("n2pl", "nto", "single-active", "n2pl-step")),
        min_size=1, max_size=2, unique=True,
    ),
    seeds=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=2, unique=True),
    engine_seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_parallel_equals_serial(hot_probability, schedulers, seeds, engine_seed):
    """Serial and multiprocessing runs of one seeded SweepSpec agree exactly."""
    sweep = SweepSpec(
        name="property",
        base=tiny_spec(
            seed=engine_seed,
            workload_params={
                "transactions": 3,
                "hot_objects": 2,
                "cold_objects": 4,
                "operations_per_transaction": 2,
                "hot_probability": hot_probability,
                "seed": engine_seed,
            },
        ),
        axes=(
            Axis("scheduler", tuple(schedulers)),
            Axis("workload_seed", tuple(seeds), target="workload_params.seed"),
        ),
    )
    serial = SweepRunner(sweep, workers=0).run_rows()
    parallel = SweepRunner(sweep, workers=2, mp_context=FAST_CONTEXT).run_rows()
    assert parallel == serial
