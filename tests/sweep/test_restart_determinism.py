"""Determinism guard for the restart/contention policy axes.

A full engine run must be a pure function of ``(workload seed, engine
seed, scheduler configuration)`` — including the PR-4 delayed-restart
wake-ups, whose randomized backoff draws come from a policy RNG seeded
off the engine seed.  The hypothesis property below re-runs sampled
``scheduler × restart policy × gate mode × seed`` scenarios twice and
demands bit-identical results; the sweep test additionally fans the full
policy grid out over worker processes and demands rows identical to the
serial run.
"""

from __future__ import annotations

import multiprocessing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SweepSpecError
from repro.sweep import Axis, AxisPoint, ScenarioSpec, SweepRunner, SweepSpec
from repro.sweep.runner import build_engine, summarise_run

FAST_CONTEXT = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"

#: Schedulers that run a CommitGate (so both axes apply) plus n2pl, which
#: only restarts on deadlocks but must honour the policy all the same.
SCHEDULERS = ("certifier", "nto", "modular", "n2pl")
POLICIES = ("immediate", "backoff", "ordered")
GATE_MODES = ("cascade", "aca")


def storm_spec(scheduler: str, policy: str, gate_mode: str, seed: int) -> ScenarioSpec:
    scheduler_kwargs = {"restart_policy": policy}
    if scheduler in ("certifier", "nto", "modular"):
        scheduler_kwargs["gate_mode"] = gate_mode
    return ScenarioSpec(
        workload="hotspot",
        scheduler=scheduler,
        seed=seed,
        workload_params={
            "transactions": 8,
            "hot_objects": 2,
            "cold_objects": 6,
            "operations_per_transaction": 3,
            "hot_probability": 0.8,
            "seed": seed,
        },
        scheduler_kwargs=scheduler_kwargs,
        engine_params={"max_restarts": 6},
    )


def run_once(spec: ScenarioSpec) -> tuple[dict, dict, tuple]:
    engine = build_engine(spec)
    result = engine.run()
    row = summarise_run(result, spec.scheduler)
    return row, result.metrics.as_dict(), result.committed_transaction_ids


@settings(max_examples=30, deadline=None)
@given(
    scheduler=st.sampled_from(SCHEDULERS),
    policy=st.sampled_from(POLICIES),
    gate_mode=st.sampled_from(GATE_MODES),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_runs_are_bit_identical_across_repeats(scheduler, policy, gate_mode, seed):
    spec = storm_spec(scheduler, policy, gate_mode, seed)
    first_row, first_metrics, first_committed = run_once(spec)
    second_row, second_metrics, second_committed = run_once(spec)
    assert first_row == second_row
    assert first_metrics == second_metrics
    assert first_committed == second_committed


def policy_grid() -> SweepSpec:
    """The full policy × gate grid over the contended certifier scenario."""
    return SweepSpec(
        name="restart_determinism",
        base=storm_spec("certifier", "immediate", "cascade", seed=31),
        axes=(
            Axis(
                "restart_policy",
                POLICIES,
                target="scheduler_kwargs.restart_policy",
            ),
            Axis("gate_mode", GATE_MODES, target="scheduler_kwargs.gate_mode"),
            Axis("seed", (31, 32)),
        ),
    )


def test_serial_and_parallel_sweeps_agree_on_delayed_restarts():
    sweep = policy_grid()
    serial = SweepRunner(sweep, workers=0).run_rows()
    parallel = SweepRunner(sweep, workers=2, mp_context=FAST_CONTEXT).run_rows()
    assert serial == parallel
    # The grid genuinely exercised the delayed-restart queue...
    assert any(row["delayed_restarts"] > 0 for row in serial)
    # ...and both axes appear as row columns with their point labels.
    assert {row["restart_policy"] for row in serial} == set(POLICIES)
    assert {row["gate_mode"] for row in serial} == set(GATE_MODES)


def test_policy_axis_values_validate_eagerly():
    """Bad policy names, keywords or gate modes fail at spec construction,
    never inside a worker process."""

    def spec_with(**scheduler_kwargs) -> ScenarioSpec:
        return ScenarioSpec(
            workload="hotspot",
            scheduler="certifier",
            workload_params={"transactions": 4},
            scheduler_kwargs=scheduler_kwargs,
        )

    with pytest.raises(SweepSpecError, match="invalid restart policy"):
        spec_with(restart_policy="polite")
    with pytest.raises(SweepSpecError, match="invalid restart policy"):
        spec_with(restart_policy={"name": "backoff", "bse": 4})  # typo'd kwarg
    with pytest.raises(SweepSpecError, match="invalid restart policy"):
        spec_with(restart_policy={"name": "backoff", "base": 4})  # a policy takes none
    with pytest.raises(SweepSpecError, match="invalid restart policy"):
        spec_with(restart_policy={"base": 4})  # missing name
    with pytest.raises(SweepSpecError, match="unknown gate mode"):
        spec_with(gate_mode="optimism")
    # The valid shapes still construct.
    spec_with(restart_policy={"name": "backoff"}, gate_mode="aca")


def test_axis_points_can_couple_policy_and_gate_mode():
    """One AxisPoint sets the policy (mapping shape) and the gate mode together."""
    couples = (("backoff", "aca"), ("ordered", "cascade"))
    sweep = SweepSpec(
        name="coupled_policy_gate",
        base=storm_spec("certifier", "immediate", "cascade", seed=7),
        axes=(
            Axis(
                "policy",
                tuple(
                    AxisPoint(
                        f"{policy}-{gate_mode}",
                        {
                            "scheduler_kwargs.restart_policy": {"name": policy},
                            "scheduler_kwargs.gate_mode": gate_mode,
                        },
                    )
                    for policy, gate_mode in couples
                ),
            ),
        ),
    )
    rows = SweepRunner(sweep, workers=0).run_rows()
    assert [row.pop("policy") for row in rows] == ["backoff-aca", "ordered-cascade"]
    # Each point ran exactly the scenario its two overrides name.
    assert rows == [
        run_once(storm_spec("certifier", policy, gate_mode, seed=7))[0]
        for policy, gate_mode in couples
    ]
