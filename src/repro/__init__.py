"""repro — reproduction of "Transaction Synchronisation in Object Bases".

The package implements the paper's formal model of object-base histories,
its serialisability theory, the nested two-phase locking and nested
timestamp ordering algorithms whose correctness the paper proves, the
intra-/inter-object decomposition of Theorem 5, and a simulation substrate
(object base, abstract data types, workload generators, metrics) on which
the paper's comparative claims can be measured.

The supported public surface is re-exported here so users never need
deep module paths:

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

from .core import (
    AUTO,
    ConflictSpec,
    ConflictTable,
    ConservativeConflictSpec,
    ENVIRONMENT_OBJECT,
    History,
    HistoryBuilder,
    IllegalHistoryError,
    MethodExecution,
    ObjectState,
    PerObjectConflicts,
    ReadWriteConflictSpec,
    ReproError,
    check_determinacy,
    is_serialisable,
    serialisation_graph,
    serialise,
)
from .analysis import theorem_5_conditions
from .core.registry import component_names, resolve_component
from .facade import run
from .scheduler import (
    INTRA_STRATEGIES,
    RESTART_POLICIES,
    SCHEDULER_FACTORIES,
    make_restart_policy,
    make_scheduler,
    scheduler_names,
)
from .shard import ShardMap
from .simulation import (
    ARRIVAL_REGISTRY,
    FAULT_REGISTRY,
    RunMetrics,
    RunResult,
    SimulationEngine,
    WORKLOAD_REGISTRY,
    make_arrival_process,
    make_fault_plan,
    make_workload,
    workload_names,
)
from .sweep import ScenarioSpec, SweepSpec

__version__ = "1.0.0"

__all__ = [
    "ARRIVAL_REGISTRY",
    "AUTO",
    "ConflictSpec",
    "ConflictTable",
    "ConservativeConflictSpec",
    "ENVIRONMENT_OBJECT",
    "FAULT_REGISTRY",
    "History",
    "HistoryBuilder",
    "INTRA_STRATEGIES",
    "IllegalHistoryError",
    "MethodExecution",
    "ObjectState",
    "PerObjectConflicts",
    "RESTART_POLICIES",
    "ReadWriteConflictSpec",
    "ReproError",
    "RunMetrics",
    "RunResult",
    "SCHEDULER_FACTORIES",
    "ScenarioSpec",
    "ShardMap",
    "SimulationEngine",
    "SweepSpec",
    "WORKLOAD_REGISTRY",
    "__version__",
    "check_determinacy",
    "component_names",
    "is_serialisable",
    "make_arrival_process",
    "make_fault_plan",
    "make_restart_policy",
    "make_scheduler",
    "make_workload",
    "resolve_component",
    "run",
    "scheduler_names",
    "serialisation_graph",
    "serialise",
    "theorem_5_conditions",
    "workload_names",
]
