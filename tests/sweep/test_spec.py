"""Specification layer: validation, JSON round-trip, grid expansion."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SweepSpecError
from repro.scheduler import scheduler_names
from repro.simulation.workloads import workload_names
from repro.sweep import Axis, AxisPoint, ScenarioSpec, SweepSpec
from repro.sweep.spec import RESERVED_ROW_COLUMNS


def hotspot_spec(**overrides) -> ScenarioSpec:
    data = dict(
        workload="hotspot",
        scheduler="n2pl",
        seed=5,
        workload_params={"transactions": 4, "operations_per_transaction": 2, "seed": 5},
    )
    data.update(overrides)
    return ScenarioSpec(**data)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_unknown_workload_rejected():
    with pytest.raises(SweepSpecError, match="unknown workload"):
        hotspot_spec(workload="no-such-workload")


def test_unknown_scheduler_rejected():
    with pytest.raises(SweepSpecError, match="unknown scheduler"):
        hotspot_spec(scheduler="no-such-scheduler")


def test_unknown_workload_parameter_rejected():
    with pytest.raises(SweepSpecError, match="unexpected keyword argument 'wrong_knob'"):
        hotspot_spec(workload_params={"transactions": 4, "wrong_knob": 1})


def test_unknown_engine_parameter_rejected():
    with pytest.raises(SweepSpecError, match="unknown engine parameters"):
        hotspot_spec(engine_params={"not_an_engine_option": True})


def test_unknown_scheduler_kwargs_rejected_eagerly():
    # The factory signatures are explicit, so a typo'd keyword fails at
    # spec construction, not inside a worker process mid-sweep.
    with pytest.raises(SweepSpecError, match="rejects scheduler_kwargs"):
        hotspot_spec(scheduler_kwargs={"levle": "step"})
    with pytest.raises(SweepSpecError, match="rejects scheduler_kwargs"):
        hotspot_spec(scheduler="single-active", scheduler_kwargs={"level": "step"})
    # Valid keywords still pass.
    assert hotspot_spec(scheduler_kwargs={"level": "step"}).scheduler_kwargs == {"level": "step"}


def test_bad_intra_object_strategy_rejected_eagerly():
    # The modular scheduler builds each strategy spec at construction, so
    # a typo'd name or keyword fails here, before any object base exists.
    with pytest.raises(SweepSpecError, match="unknown intra-object strategy 'nope'"):
        hotspot_spec(scheduler="modular", scheduler_kwargs={"default_strategy": "nope"})
    with pytest.raises(SweepSpecError, match="unexpected keyword argument 'x'"):
        hotspot_spec(
            scheduler="modular",
            scheduler_kwargs={"per_object_strategy": {"hot-0": {"name": "locking", "x": 1}}},
        )


def test_tags_shadowing_metric_columns_rejected():
    # row.update(tags) must never overwrite a *measured* column; the
    # corruption would be serial/parallel-identical and undetectable.
    with pytest.raises(SweepSpecError, match="overwrite measured metrics-row columns"):
        hotspot_spec(tags={"aborts": "low"})
    from repro.sweep import Axis, SweepSpec

    with pytest.raises(SweepSpecError, match="overwrite measured metrics-row columns"):
        SweepSpec(
            name="shadow",
            base=hotspot_spec(),
            axes=(Axis("makespan", (1, 2), target="workload_params.transactions"),),
        )
    # The scheduler axis legitimately labels rows with the scheduler name.
    hotspot_spec(tags={"scheduler": "n2pl"})


def test_seed_must_be_int():
    with pytest.raises(SweepSpecError, match="seed must be an int"):
        hotspot_spec(seed="7")
    with pytest.raises(SweepSpecError, match="seed must be an int"):
        hotspot_spec(seed=True)


def test_non_json_values_rejected():
    with pytest.raises(SweepSpecError, match="JSON-serialisable"):
        hotspot_spec(tags={"callback": print})


def test_nan_and_infinity_rejected():
    # Python's json would happily emit NaN/Infinity literals that strict
    # RFC 8259 parsers reject; the spec layer refuses them up front.
    with pytest.raises(SweepSpecError, match="JSON-serialisable"):
        hotspot_spec(workload_params={"transactions": 4, "hot_probability": float("nan")})
    with pytest.raises(SweepSpecError, match="JSON-serialisable"):
        hotspot_spec(tags={"bound": float("inf")})


def test_modular_strategy_requires_workload_support():
    # The hotspot workload has no modular_strategy_map(); mixed does.
    with pytest.raises(SweepSpecError, match="modular_strategy_map"):
        hotspot_spec(modular_strategy_from_workload=True)
    spec = ScenarioSpec(
        workload="mixed",
        scheduler="modular",
        workload_params={"transactions": 4, "seed": 1},
        modular_strategy_from_workload=True,
    )
    assert spec.modular_strategy_from_workload


def test_axis_rejects_bad_paths_and_shapes():
    with pytest.raises(SweepSpecError, match="does not start with a ScenarioSpec field"):
        Axis("bogus", (1, 2), target="not_a_field")
    with pytest.raises(SweepSpecError, match="must name exactly one key"):
        Axis("x", (1, 2), target="workload_params")
    with pytest.raises(SweepSpecError, match="must not nest"):
        Axis("x", (1, 2), target="scheduler.nested")
    with pytest.raises(SweepSpecError, match="at least one point"):
        Axis("empty", ())
    with pytest.raises(SweepSpecError, match="applies no overrides"):
        Axis("x", (AxisPoint("label", {}),))


def test_sweep_rejects_duplicate_axis_names():
    with pytest.raises(SweepSpecError, match="duplicate axis names"):
        SweepSpec(
            name="dup",
            base=hotspot_spec(),
            axes=(Axis("seed", (1, 2)), Axis("seed", (3, 4))),
        )


def test_sweep_rejects_grid_that_expands_invalid():
    # The base is valid, but one grid point writes an unknown workload name;
    # expansion at construction surfaces it immediately.
    with pytest.raises(SweepSpecError, match="unknown workload"):
        SweepSpec(
            name="bad-grid",
            base=hotspot_spec(),
            axes=(Axis("workload", ("hotspot", "no-such-workload")),),
        )


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


def test_scenario_spec_json_roundtrip():
    spec = hotspot_spec(
        scheduler_kwargs={"level": "step"},
        engine_params={"gc_interval": 2, "max_restarts": 3},
        tags={"grid": "unit"},
    )
    assert ScenarioSpec.from_json(spec.to_json()) == spec
    # The JSON form is pure data.
    assert json.loads(spec.to_json())["workload"] == "hotspot"


def test_sweep_spec_json_roundtrip():
    sweep = SweepSpec(
        name="roundtrip",
        base=hotspot_spec(),
        axes=(
            Axis("hot_probability", (0.1, 0.9), target="workload_params.hot_probability"),
            Axis(
                "configuration",
                (
                    AxisPoint("locks", {"scheduler": "n2pl"}),
                    AxisPoint("stamps", {"scheduler": "nto"}),
                ),
            ),
        ),
    )
    rebuilt = SweepSpec.from_json(sweep.to_json())
    assert rebuilt == sweep
    assert rebuilt.scenarios() == sweep.scenarios()


def test_from_json_dict_rejects_unknown_fields():
    data = hotspot_spec().to_json_dict()
    data["surprise"] = 1
    with pytest.raises(SweepSpecError, match="unknown ScenarioSpec fields"):
        ScenarioSpec.from_json_dict(data)


@settings(max_examples=25, deadline=None)
@given(
    workload=st.sampled_from(workload_names()),
    scheduler=st.sampled_from(scheduler_names()),
    seed=st.integers(min_value=-(2**31), max_value=2**31),
    tags=st.dictionaries(
        # A tag named like a measured column is rejected at construction;
        # hypothesis draws such names from the source's string constants.
        st.text(min_size=1, max_size=8).filter(lambda key: key not in RESERVED_ROW_COLUMNS),
        st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=8), st.booleans()),
        max_size=3,
    ),
)
def test_property_scenario_roundtrip(workload, scheduler, seed, tags):
    """Any valid spec survives to_json/from_json exactly (canonicalisation)."""
    spec = ScenarioSpec(workload=workload, scheduler=scheduler, seed=seed, tags=tags)
    assert ScenarioSpec.from_json(spec.to_json()) == spec


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------


def test_expansion_is_nested_loop_order_with_tags():
    sweep = SweepSpec(
        name="grid",
        base=hotspot_spec(),
        axes=(
            Axis("hot_probability", (0.1, 0.5), target="workload_params.hot_probability"),
            Axis("scheduler", ("n2pl", "nto")),
        ),
    )
    scenarios = sweep.scenarios()
    assert len(sweep) == 4 == len(scenarios)
    observed = [
        (s.workload_params["hot_probability"], s.scheduler, s.tags["hot_probability"], s.tags["scheduler"])
        for s in scenarios
    ]
    # First axis outermost, second axis innermost.
    assert observed == [
        (0.1, "n2pl", 0.1, "n2pl"),
        (0.1, "nto", 0.1, "nto"),
        (0.5, "n2pl", 0.5, "n2pl"),
        (0.5, "nto", 0.5, "nto"),
    ]
    # The base spec itself is never mutated by expansion.
    assert "hot_probability" not in sweep.base.workload_params
    assert sweep.base.tags == {}


def test_axispoint_expansion_applies_coupled_overrides():
    sweep = SweepSpec(
        name="coupled",
        base=hotspot_spec(),
        axes=(
            Axis(
                "configuration",
                (
                    AxisPoint("blocking", {"scheduler": "n2pl", "seed": 11}),
                    AxisPoint("restarting", {"scheduler": "nto", "seed": 22}),
                ),
            ),
        ),
    )
    first, second = sweep.scenarios()
    assert (first.scheduler, first.seed, first.tags["configuration"]) == ("n2pl", 11, "blocking")
    assert (second.scheduler, second.seed, second.tags["configuration"]) == ("nto", 22, "restarting")


def test_base_tags_survive_and_axes_append():
    sweep = SweepSpec(
        name="tagged",
        base=hotspot_spec(tags={"experiment": "unit"}),
        axes=(Axis("seed", (1, 2)),),
    )
    for scenario in sweep:
        assert scenario.tags["experiment"] == "unit"
        assert scenario.tags["seed"] == scenario.seed
