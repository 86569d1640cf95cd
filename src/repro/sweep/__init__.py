"""Parallel scenario-sweep subsystem.

The sweep layer turns the repository's comparative experiments into
declarative data: a :class:`SweepSpec` names a base scenario (workload ×
scheduler × seed) plus grid axes, :class:`SweepRunner` expands and
executes the grid — serially or fanned out over ``multiprocessing``
workers, with deterministic, order-stable results either way — and
:mod:`repro.sweep.aggregate` merges the per-scenario metrics rows into
grouped tables and JSON reports.

A sweep in five lines::

    from repro.sweep import Axis, ScenarioSpec, SweepRunner, SweepSpec

    sweep = SweepSpec(
        name="contention",
        base=ScenarioSpec(workload="hotspot", scheduler="n2pl", seed=7,
                          workload_params={"transactions": 12, "seed": 7}),
        axes=(Axis("hot_probability", (0.1, 0.5, 0.9),
                   target="workload_params.hot_probability"),
              Axis("scheduler", ("n2pl", "nto", "certifier"))),
    )
    rows = SweepRunner(sweep, workers=4).run_rows()

See the "Scenario sweeps" section of ``DESIGN.md`` for the spec schema,
the worker fan-out model and the determinism guarantees, and
``python -m repro.sweep`` for a self-checking demo.
"""

from ..core.registry import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        ".aggregate": (
            "group_rows",
            "print_report",
            "rows_of",
            "sweep_report",
        ),
        ".runner": (
            "DEFAULT_MP_CONTEXT",
            "ScenarioResult",
            "SweepRunner",
            "build_engine",
            "run_scenario",
            "run_sharded_scenario",
            "summarise_run",
            "summarise_sharded_run",
        ),
        ".spec": ("ENGINE_PARAM_NAMES", "Axis", "AxisPoint", "ScenarioSpec", "SweepSpec"),
    },
)
