"""Concurrency-control schedulers for object bases.

The package provides the algorithms the paper analyses — nested two-phase
locking (Moss) and nested timestamp ordering (Reed) at both conflict
granularities — plus the coarse single-active-object baseline of the
introduction, an optimistic certifier, and the modular intra-/inter-object
scheduler of Section 5.3.  :func:`make_scheduler` builds any of them by
name, which the benchmark harness uses for its parameter sweeps.
"""

from __future__ import annotations

from typing import Any, Callable

from ..core.registry import resolve_component
from .adaptive import DEFAULT_LADDER, AdaptiveModularScheduler
from .base import (
    Decision,
    ExecutionInfo,
    OPERATION_LEVEL,
    OperationRequest,
    STEP_LEVEL,
    Scheduler,
    SchedulerResponse,
)
from .certifier import OptimisticCertifier
from .deadlock import WaitsForGraph
from .locks import LockEntry, LockManager, LockRequestOutcome
from .modular import (
    BTreeKeyLocking,
    INTRA_STRATEGIES,
    InterObjectCoordinator,
    IntraObjectCertifier,
    IntraObjectLocking,
    IntraObjectSynchroniser,
    IntraObjectTimestampOrdering,
    ModularScheduler,
    disjoint_ancestors,
    make_intra_strategy,
)
from .n2pl import NestedTwoPhaseLocking
from .nto import NestedTimestampOrdering
from .recovery import ACA_MODE, CASCADE_MODE, CommitGate, GATE_MODES
from .restart import (
    IMMEDIATE_RESTART,
    ImmediateRestart,
    OrderedRestart,
    RESTART_POLICIES,
    RandomizedBackoff,
    RestartPolicy,
    make_restart_policy,
    restart_policy_names,
)
from .single_active import SingleActiveObjectScheduler
from .timestamps import HierarchicalTimestamp, TimestampAuthority

# Every factory declares its accepted keywords explicitly: a misspelt or
# unsupported keyword raises TypeError here instead of being silently
# ignored, and the sweep layer (repro.sweep) validates spec kwargs against
# these signatures eagerly — before any worker process is spawned.
#
# Two cross-cutting axes appear on (nearly) every factory since PR 4:
# ``restart_policy`` (immediate / backoff / ordered — how aborted
# transactions are resubmitted, see repro.scheduler.restart) on all of
# them, and ``gate_mode`` (cascade / aca — how the CommitGate resolves
# dirty reads) on the non-strict schedulers that run a CommitGate.
SCHEDULER_FACTORIES: dict[str, Callable[..., Scheduler]] = {
    "pass-through": lambda restart_policy=IMMEDIATE_RESTART: Scheduler(
        restart_policy=restart_policy
    ),
    "n2pl": lambda level=OPERATION_LEVEL, restart_policy=IMMEDIATE_RESTART: (
        NestedTwoPhaseLocking(level=level, restart_policy=restart_policy)
    ),
    "n2pl-step": lambda restart_policy=IMMEDIATE_RESTART: NestedTwoPhaseLocking(
        level=STEP_LEVEL, restart_policy=restart_policy
    ),
    "nto": lambda level=OPERATION_LEVEL, restart_policy=IMMEDIATE_RESTART,
    gate_mode=CASCADE_MODE: NestedTimestampOrdering(
        level=level, restart_policy=restart_policy, gate_mode=gate_mode
    ),
    "nto-step": lambda restart_policy=IMMEDIATE_RESTART, gate_mode=CASCADE_MODE: (
        NestedTimestampOrdering(
            level=STEP_LEVEL, restart_policy=restart_policy, gate_mode=gate_mode
        )
    ),
    "single-active": lambda restart_policy=IMMEDIATE_RESTART: SingleActiveObjectScheduler(
        restart_policy=restart_policy
    ),
    "certifier": lambda level=STEP_LEVEL, check=False, restart_policy=IMMEDIATE_RESTART,
    gate_mode=CASCADE_MODE: OptimisticCertifier(
        level=level, check=check, restart_policy=restart_policy, gate_mode=gate_mode
    ),
    "modular": lambda default_strategy="locking", per_object_strategy=None,
    inter_object_checks=True, level=STEP_LEVEL, restart_policy=IMMEDIATE_RESTART,
    gate_mode=CASCADE_MODE: ModularScheduler(
        default_strategy=default_strategy,
        per_object_strategy=per_object_strategy,
        inter_object_checks=inter_object_checks,
        level=level,
        restart_policy=restart_policy,
        gate_mode=gate_mode,
    ),
    "modular-intra-only": lambda default_strategy="locking", per_object_strategy=None,
    level=STEP_LEVEL, restart_policy=IMMEDIATE_RESTART: ModularScheduler(
        default_strategy=default_strategy,
        per_object_strategy=per_object_strategy,
        inter_object_checks=False,
        level=level,
        restart_policy=restart_policy,
    ),
    "adaptive": lambda ladder=DEFAULT_LADDER, window=128, promote_threshold=4,
    demote_threshold=0, hysteresis=2, drain_limit=4, drain_patience=8,
    per_object_strategy=None, inter_object_checks=True, level=STEP_LEVEL,
    restart_policy=IMMEDIATE_RESTART, gate_mode=CASCADE_MODE: (
        AdaptiveModularScheduler(
            ladder=ladder,
            window=window,
            promote_threshold=promote_threshold,
            demote_threshold=demote_threshold,
            hysteresis=hysteresis,
            drain_limit=drain_limit,
            drain_patience=drain_patience,
            per_object_strategy=per_object_strategy,
            inter_object_checks=inter_object_checks,
            level=level,
            restart_policy=restart_policy,
            gate_mode=gate_mode,
        )
    ),
}


def make_scheduler(name: "str | Any", **kwargs: Any) -> Scheduler:
    """Instantiate a scheduler from a name, a config mapping, or an instance.

    Accepted shapes (the uniform component-specification contract of
    :func:`repro.core.registry.resolve_component`):

    * ``"modular"`` — a :data:`SCHEDULER_FACTORIES` key, optionally with
      ``**kwargs`` as factory keywords;
    * ``{"name": "modular", "default_strategy": "timestamp"}`` — a
      factory name plus keywords (``**kwargs`` are merged in);
    * a ready :class:`Scheduler` instance (returned unchanged; keywords
      are rejected).

    Raises:
        KeyError: on an unknown name.
        TypeError: on keywords the chosen factory does not accept, or an
            unsupported specification type.
    """
    return resolve_component(
        SCHEDULER_FACTORIES, name, kind="scheduler", instance_of=Scheduler, **kwargs
    )


def scheduler_names() -> list[str]:
    """Names accepted by :func:`make_scheduler`."""
    return sorted(SCHEDULER_FACTORIES)


__all__ = [
    "ACA_MODE",
    "AdaptiveModularScheduler",
    "BTreeKeyLocking",
    "DEFAULT_LADDER",
    "INTRA_STRATEGIES",
    "CASCADE_MODE",
    "CommitGate",
    "Decision",
    "GATE_MODES",
    "IMMEDIATE_RESTART",
    "ImmediateRestart",
    "OrderedRestart",
    "RESTART_POLICIES",
    "RandomizedBackoff",
    "RestartPolicy",
    "ExecutionInfo",
    "HierarchicalTimestamp",
    "InterObjectCoordinator",
    "IntraObjectCertifier",
    "IntraObjectLocking",
    "IntraObjectSynchroniser",
    "IntraObjectTimestampOrdering",
    "LockEntry",
    "LockManager",
    "LockRequestOutcome",
    "ModularScheduler",
    "NestedTimestampOrdering",
    "NestedTwoPhaseLocking",
    "OPERATION_LEVEL",
    "OperationRequest",
    "OptimisticCertifier",
    "STEP_LEVEL",
    "SCHEDULER_FACTORIES",
    "Scheduler",
    "SchedulerResponse",
    "SingleActiveObjectScheduler",
    "TimestampAuthority",
    "WaitsForGraph",
    "disjoint_ancestors",
    "make_intra_strategy",
    "make_restart_policy",
    "make_scheduler",
    "restart_policy_names",
    "scheduler_names",
]
