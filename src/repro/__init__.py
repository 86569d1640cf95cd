"""repro — reproduction of "Transaction Synchronisation in Object Bases".

The package implements the paper's formal model of object-base histories,
its serialisability theory, the nested two-phase locking and nested
timestamp ordering algorithms whose correctness the paper proves, the
intra-/inter-object decomposition of Theorem 5, and a simulation substrate
(object base, abstract data types, workload generators, metrics) on which
the paper's comparative claims can be measured.

The supported public surface is re-exported here so users never need
deep module paths; each name loads its module on first use, so ``import
repro`` itself is cheap (DESIGN.md, "Import on use"):

* :func:`repro.run` — one scenario, from declarative description to
  :class:`~repro.simulation.metrics.RunResult` /
  :class:`~repro.shard.engine.ShardedRunResult`;
* :class:`~repro.sweep.spec.SweepSpec` / :class:`~repro.sweep.spec.ScenarioSpec`
  — declarative grids of workload × scheduler × seed scenarios, executed
  serially or fanned out over ``multiprocessing`` workers with
  deterministic results (:mod:`repro.sweep`);
* :class:`~repro.shard.map.ShardMap` — object-space partitioning for
  sharded execution;
* the component registries and their uniform ``make_*`` constructors
  (every one accepts ``name | {"name", ...kwargs} | instance`` via
  :func:`repro.core.registry.resolve_component`).

The sub-packages (:mod:`repro.core`, :mod:`repro.objectbase`,
:mod:`repro.scheduler`, :mod:`repro.simulation`, :mod:`repro.analysis`,
:mod:`repro.sweep`, :mod:`repro.shard`) remain importable, but anything
not exported here should be treated as internal: deep imports are
deprecated in favour of this surface and may move between releases.
"""

from .core.registry import lazy_surface

__version__ = "1.0.0"

_exports, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        ".core": (
            "AUTO",
            "ConflictSpec",
            "ConflictTable",
            "ConservativeConflictSpec",
            "ENVIRONMENT_OBJECT",
            "History",
            "HistoryBuilder",
            "IllegalHistoryError",
            "MethodExecution",
            "ObjectState",
            "PerObjectConflicts",
            "ReadWriteConflictSpec",
            "ReproError",
            "check_determinacy",
            "component_names",
            "is_serialisable",
            "resolve_component",
            "serialisation_graph",
            "serialise",
        ),
        ".analysis": ("theorem_5_conditions",),
        ".facade": ("run",),
        ".scheduler": (
            "INTRA_STRATEGIES",
            "RESTART_POLICIES",
            "SCHEDULER_FACTORIES",
            "make_restart_policy",
            "make_scheduler",
            "scheduler_names",
        ),
        ".shard": ("ShardMap",),
        ".simulation": (
            "ARRIVAL_REGISTRY",
            "FAULT_REGISTRY",
            "RunMetrics",
            "RunResult",
            "SimulationEngine",
            "WORKLOAD_REGISTRY",
            "make_arrival_process",
            "make_fault_plan",
            "make_workload",
            "workload_names",
        ),
        ".sweep": ("ScenarioSpec", "SweepSpec"),
    },
)
__all__ = sorted([*_exports, "__version__"])
