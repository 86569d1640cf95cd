"""The stable entry point: one call from scenario description to result.

:func:`run` is the supported way to execute a single scenario
programmatically.  It accepts the same declarative shapes the sweep layer
uses — so anything a :class:`~repro.sweep.spec.ScenarioSpec` can express
(workload and scheduler registry names, engine options, fault plans,
sharding) is reachable without importing from deep module paths — and
returns the engine's :class:`~repro.simulation.metrics.RunResult` (or a
:class:`~repro.shard.engine.ShardedRunResult` when the spec asks for
shards).

For grids of scenarios use :class:`~repro.sweep.spec.SweepSpec` with
:func:`~repro.sweep.runner.run_sweep`; for one-off exploration this
facade is the shortest path::

    import repro

    result = repro.run("hotspot", scheduler="n2pl-step", seed=3)
    result = repro.run(
        "zipf-stream",
        scheduler="adaptive",
        workload_params={
            "inner_params": {"transactions": 200, "skew": 1.2},
            "arrival": "flash-crowd",
        },
        # A crash every 5,000 ticks while transactions are in flight; the
        # plan never keeps a run alive once the last one has settled.
        engine_params={"fault_plan": {"name": "crash", "period": 5000}},
    )
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping

from .sweep.runner import build_engine, run_sharded_scenario
from .sweep.spec import ScenarioSpec

#: Scheduler used when the scenario shape does not name one.
DEFAULT_SCHEDULER = "modular"


def run(spec_or_scenario: Any = "hotspot", **overrides: Any):
    """Run one scenario described by a spec, a mapping, or a workload name.

    Accepted shapes, mirroring the component-spec contract of
    :func:`repro.core.registry.resolve_component`:

    * a workload registry name — ``repro.run("hotspot", seed=3)``;
      ``overrides`` are :class:`~repro.sweep.spec.ScenarioSpec` fields;
    * a mapping of ScenarioSpec fields —
      ``repro.run({"workload": "banking", "scheduler": "nto-step"})``;
      ``overrides`` take precedence over the mapping's entries;
    * a ready :class:`~repro.sweep.spec.ScenarioSpec` — run as is, or
      re-built with ``overrides`` replacing the named fields.

    The scheduler defaults to :data:`DEFAULT_SCHEDULER` when the shape
    does not name one.  Validation is the spec's own eager validation:
    unknown workloads, schedulers, parameters or engine options fail
    before anything runs.

    Returns:
        :class:`~repro.simulation.metrics.RunResult` for plain scenarios;
        :class:`~repro.shard.engine.ShardedRunResult` when the spec sets
        ``shards > 1``.

    Raises:
        TypeError: on an unsupported ``spec_or_scenario`` type.
        SweepSpecError: on invalid scenario fields.
    """
    if isinstance(spec_or_scenario, ScenarioSpec):
        spec = (
            dataclasses.replace(spec_or_scenario, **overrides)
            if overrides
            else spec_or_scenario
        )
    elif isinstance(spec_or_scenario, str):
        fields = {"workload": spec_or_scenario, "scheduler": DEFAULT_SCHEDULER}
        fields.update(overrides)
        spec = ScenarioSpec(**fields)
    elif isinstance(spec_or_scenario, Mapping):
        fields = {"scheduler": DEFAULT_SCHEDULER}
        fields.update(spec_or_scenario)
        fields.update(overrides)
        spec = ScenarioSpec(**fields)
    else:
        raise TypeError(
            "scenario must be a workload name, a mapping of ScenarioSpec "
            f"fields or a ScenarioSpec instance, got {spec_or_scenario!r}"
        )
    if spec.shards > 1:
        return run_sharded_scenario(spec)
    return build_engine(spec).run()
