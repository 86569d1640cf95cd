"""Concurrency-control schedulers for object bases.

The package provides the algorithms the paper analyses — nested two-phase
locking (Moss) and nested timestamp ordering (Reed) at both conflict
granularities — plus the coarse single-active-object baseline of the
introduction, an optimistic certifier, and the modular intra-/inter-object
scheduler of Section 5.3.  :func:`make_scheduler` builds any of them by
name, which the benchmark harness uses for its parameter sweeps.
"""

from __future__ import annotations

from typing import Any

from ..core.registry import LazyTable, lazy_surface, preset, resolve_component
from .base import CASCADE_MODE, STEP_LEVEL, Scheduler


# The keywords a name accepts, and their defaults, are the signature of the
# class it maps to — nothing is re-declared here.  A misspelt or unsupported
# keyword raises TypeError, and the sweep layer (repro.sweep) binds spec
# kwargs against ``inspect.signature`` of the named entry eagerly — before
# any worker process is spawned.  An entry's module loads when it is named.
#
# Two cross-cutting axes appear on (nearly) every scheduler since PR 4:
# ``restart_policy`` (immediate / backoff / ordered — how aborted
# transactions are resubmitted, see repro.scheduler.restart) on all of
# them, and ``gate_mode`` (cascade / aca — how the CommitGate resolves
# dirty reads) on the non-strict schedulers that run a CommitGate.
SCHEDULER_FACTORIES: LazyTable = LazyTable(
    __name__,
    {
        "pass-through": ".base:Scheduler",
        "n2pl": ".n2pl:NestedTwoPhaseLocking",
        "n2pl-step": preset(".n2pl:NestedTwoPhaseLocking", __name__, level=STEP_LEVEL),
        "nto": ".nto:NestedTimestampOrdering",
        "nto-step": preset(".nto:NestedTimestampOrdering", __name__, level=STEP_LEVEL),
        "single-active": ".single_active:SingleActiveObjectScheduler",
        "certifier": ".certifier:OptimisticCertifier",
        "modular": ".modular:ModularScheduler",
        "modular-intra-only": preset(
            ".modular:ModularScheduler",
            __name__,
            inter_object_checks=False,
            gate_mode=CASCADE_MODE,
        ),
        "adaptive": ".adaptive:AdaptiveModularScheduler",
    },
)


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


_exports, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        ".adaptive": ("DEFAULT_LADDER", "AdaptiveModularScheduler"),
        ".base": (
            "ACA_MODE",
            "CASCADE_MODE",
            "Decision",
            "ExecutionInfo",
            "GATE_MODES",
            "OPERATION_LEVEL",
            "OperationRequest",
            "STEP_LEVEL",
            "Scheduler",
            "SchedulerResponse",
            "disjoint_ancestors",
        ),
        ".certifier": ("OptimisticCertifier",),
        ".locks": ("LockEntry", "LockManager", "LockRequestOutcome"),
        ".modular": (
            "BTreeKeyLocking",
            "INTRA_STRATEGIES",
            "InterObjectCoordinator",
            "IntraObjectCertifier",
            "IntraObjectLocking",
            "IntraObjectSynchroniser",
            "IntraObjectTimestampOrdering",
            "ModularScheduler",
            "make_intra_strategy",
        ),
        ".n2pl": ("NestedTwoPhaseLocking",),
        ".nto": ("NestedTimestampOrdering",),
        ".recovery": ("CommitGate",),
        ".restart": (
            "IMMEDIATE_RESTART",
            "ImmediateRestart",
            "OrderedRestart",
            "RESTART_POLICIES",
            "RandomizedBackoff",
            "RestartPolicy",
            "make_restart_policy",
            "restart_policy_names",
        ),
        ".single_active": ("SingleActiveObjectScheduler",),
        ".timestamps": ("HierarchicalTimestamp", "TimestampAuthority"),
    },
)
__all__ = sorted([*_exports, "SCHEDULER_FACTORIES", "make_scheduler", "scheduler_names"])
