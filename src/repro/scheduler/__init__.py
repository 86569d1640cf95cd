"""Concurrency-control schedulers for object bases.

The package provides the algorithms the paper analyses — nested two-phase
locking (Moss) and nested timestamp ordering (Reed) at both conflict
granularities — plus the coarse single-active-object baseline of the
introduction, an optimistic certifier, and the modular intra-/inter-object
scheduler of Section 5.3.  :func:`make_scheduler` builds any of them by
name, which the benchmark harness uses for its parameter sweeps.
"""

from __future__ import annotations

import inspect
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


def _preset(cls: type[Scheduler], **fixed: Any) -> Callable[..., Scheduler]:
    """``cls`` with some keywords fixed: the result no longer accepts them.

    ``functools.partial`` would let a caller override a fixed keyword; here
    passing one is a ``TypeError`` (a second value for the keyword), and
    ``inspect.signature`` does not list it.
    """

    def factory(**kwargs: Any) -> Scheduler:
        return cls(**fixed, **kwargs)

    signature = inspect.signature(cls)
    factory.__signature__ = signature.replace(
        parameters=[p for p in signature.parameters.values() if p.name not in fixed]
    )
    return factory


# The keywords a name accepts, and their defaults, are the signature of the
# class it maps to — nothing is re-declared here.  A misspelt or unsupported
# keyword raises TypeError, and the sweep layer (repro.sweep) binds spec
# kwargs against ``inspect.signature`` of these entries eagerly — before any
# worker process is spawned.
#
# Two cross-cutting axes appear on (nearly) every scheduler since PR 4:
# ``restart_policy`` (immediate / backoff / ordered — how aborted
# transactions are resubmitted, see repro.scheduler.restart) on all of
# them, and ``gate_mode`` (cascade / aca — how the CommitGate resolves
# dirty reads) on the non-strict schedulers that run a CommitGate.
SCHEDULER_FACTORIES: dict[str, Callable[..., Scheduler]] = {
    "pass-through": Scheduler,
    "n2pl": NestedTwoPhaseLocking,
    "n2pl-step": _preset(NestedTwoPhaseLocking, level=STEP_LEVEL),
    "nto": NestedTimestampOrdering,
    "nto-step": _preset(NestedTimestampOrdering, level=STEP_LEVEL),
    "single-active": SingleActiveObjectScheduler,
    "certifier": OptimisticCertifier,
    "modular": ModularScheduler,
    "modular-intra-only": _preset(
        ModularScheduler, inter_object_checks=False, gate_mode=CASCADE_MODE
    ),
    "adaptive": AdaptiveModularScheduler,
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
    "disjoint_ancestors",
    "make_intra_strategy",
    "make_restart_policy",
    "make_scheduler",
    "restart_policy_names",
    "scheduler_names",
]
