"""Scheduler interface shared by all concurrency-control algorithms.

A scheduler is an *online* arbiter: the simulation engine consults it
before every local operation and at every transaction lifecycle event, and
the scheduler answers with one of three decisions:

* ``GRANT`` — the operation may execute now;
* ``BLOCK`` — the operation must wait.  The response names the *blockers*
  (the owners standing in the way); the engine parks the issuing frame on
  those identifiers and re-issues the request only after a wake-up fires
  for one of them — there is no busy-wait polling loop;
* ``ABORT`` — the issuing top-level transaction must abort (the engine
  undoes its effects and may restart it).

Wake-ups travel through the scheduler: whenever a scheduler releases or
transfers locks (or otherwise resolves the condition some waiter blocked
on) it records the freed owner identifiers with :meth:`Scheduler._note_wakeups`,
and the engine drains them via :meth:`Scheduler.drain_wakeups` after every
lifecycle hook that can free resources — execution completion (lock
inheritance), commit and abort.  The identifiers must be in the same
namespace the scheduler used for ``SchedulerResponse.blockers``.
Independently of the scheduler, the engine always wakes frames parked on a
transaction (or any of its executions) when that transaction commits or
aborts.

``on_commit_request`` may also answer ``BLOCK``: the engine then parks the
completed transaction at its commit point and retries the commit when a
blocker resolves.  Optimistic and timestamp schedulers use this to delay
commits until the transactions whose effects the requester observed have
themselves committed (see :mod:`repro.scheduler.recovery`).

The scheduler sees, with every request, the issuing method execution's
identity and ancestry (:class:`ExecutionInfo`) and the operation together
with the value it *would* return on the current state
(:class:`OperationRequest.provisional_step`).  The provisional value is how
the engine realises the paper's "provisionally issue an operation, observe
the resulting return value, and, having established the actual step,
acquire the necessary lock" implementation of step-level conflict
detection (Section 5.1); schedulers that only use operation-level
conflicts simply ignore it.

Nothing runs between a GRANT and the execution, so the provisional step
*is* the executed step: the engine builds one :class:`LocalStep` per
request and records that same object in the history and the undo log.
:meth:`Scheduler.on_operation_executed` takes only the request, and a
scheduler keeps ``request.lock_item(level)`` — the step itself at step
level — rather than building a step of its own.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping, NamedTuple

from ..core.conflicts import PerObjectConflicts
from ..core.operations import LocalOperation, LocalStep
# disjoint_ancestors is re-exported: the schedulers take it from here.
from ..core.waits import UNBOUND, WaitsFor, disjoint_ancestors  # noqa: F401
from ..objectbase.base import ObjectBase
from .restart import IMMEDIATE_RESTART, RestartPolicy, make_restart_policy

OPERATION_LEVEL = "operation"
STEP_LEVEL = "step"

# The CommitGate's modes (repro.scheduler.recovery), here so that a spec
# names one without loading the gate.
#: Commit-time cascading (the default, legacy behaviour).
CASCADE_MODE = "cascade"
#: Avoid cascading aborts: gate conflicting reads at execution time.
ACA_MODE = "aca"
#: The gate's contention-handling modes, in registry order.
GATE_MODES = (CASCADE_MODE, ACA_MODE)


class ExecutionInfo(NamedTuple):
    """Identity and ancestry of one method execution, as seen by schedulers."""

    execution_id: str
    object_name: str
    method_name: str
    parent_id: str | None
    ancestor_ids: tuple[str, ...]
    top_level_id: str

    @property
    def is_top_level(self) -> bool:
        return self.parent_id is None


class OperationRequest(NamedTuple):
    """A request to execute one local operation on behalf of an execution."""

    info: ExecutionInfo
    object_name: str
    operation: LocalOperation
    provisional_step: LocalStep

    def lock_item(self, level: str) -> LocalOperation | LocalStep:
        """What should be locked / conflict-checked at the given granularity."""
        return self.operation if level == OPERATION_LEVEL else self.provisional_step


class Decision(enum.Enum):
    """The three possible answers of a scheduler."""

    GRANT = "grant"
    BLOCK = "block"
    ABORT = "abort"


@dataclass(slots=True)
class SchedulerResponse:
    """A decision plus a human-readable reason and optional blocker set."""

    decision: Decision
    reason: str = ""
    blockers: frozenset[str] = field(default_factory=frozenset)

    @classmethod
    def grant(cls) -> "SchedulerResponse":
        """The operation (or commit) may proceed now (the shared GRANT)."""
        return _GRANT_RESPONSE

    @classmethod
    def block(cls, reason: str, blockers: frozenset[str] | set[str]) -> "SchedulerResponse":
        """The request must wait.

        Args:
            reason: human-readable explanation recorded in the trace.
            blockers: identifiers of the owners standing in the way, in
                the same namespace this scheduler reports wake-ups in; the
                engine parks the issuing frame on the live ones until one
                of them commits, aborts or transfers its locks.  At least
                one must be live (a running execution or top-level
                transaction): a BLOCK with none is a wait nobody can end,
                and the engine raises
                :class:`~repro.core.errors.SimulationError`.

        Returns:
            The BLOCK response.  A scheduler hands it to the run's
            waits-for relation (:meth:`WaitsFor.block
            <repro.core.waits.WaitsFor.block>`) and answers what that
            returns: this BLOCK, or the requester's ABORT when the wait
            would close a cycle — schedulers keep no waits-for graph.
        """
        return cls(Decision.BLOCK, reason, frozenset(blockers))

    @classmethod
    def abort(cls, reason: str = "") -> "SchedulerResponse":
        """The issuing top-level transaction must abort (``reason`` is recorded)."""
        return cls(Decision.ABORT, reason)

    @property
    def granted(self) -> bool:
        return self.decision is Decision.GRANT

    @property
    def blocked(self) -> bool:
        return self.decision is Decision.BLOCK

    @property
    def aborted(self) -> bool:
        return self.decision is Decision.ABORT


#: The one GRANT response every scheduler hands out (see
#: :meth:`SchedulerResponse.grant`).  Treat as immutable.
_GRANT_RESPONSE = SchedulerResponse(Decision.GRANT)


class Scheduler:
    """Base class: grants everything and tracks nothing.

    Subclasses override the hooks they care about.  The engine calls them
    in this order for a typical transaction::

        on_transaction_begin(T)
        on_invoke(T, T.1) ... on_operation(...) / on_operation_executed(...)
        on_execution_complete(T.1)
        ...
        on_commit_request(T)            # may veto with ABORT
        on_transaction_commit(T)        # or on_transaction_abort(T, subtree)

    ``attach`` is called once before the run starts and provides the object
    base plus the per-object conflict registries at both granularities.

    Every scheduler also carries a *restart policy*
    (:mod:`repro.scheduler.restart`): when the engine aborts a transaction
    it asks ``scheduler.restart_policy`` how many ticks to wait before
    resubmitting it (``"immediate"`` — the default — restarts at once;
    ``"backoff"`` and ``"ordered"`` delay restarts to break cascade
    storms).  The policy is configuration the scheduler transports; the
    engine drives it.

    Three facts are each written once.  The keywords a scheduler accepts
    are its class signature (the registry in :mod:`repro.scheduler` maps
    names to classes).  Its conflict granularity is :attr:`level`: a
    subclass that takes a ``level`` keyword assigns it, with the rest of
    its configuration, *before* calling ``super().__init__``, which
    validates it.  Its fresh per-run state is :meth:`_reset`, which both
    construction and :meth:`attach` end in — so a scheduler attached to a
    second object base starts exactly like a new one.

    Args:
        restart_policy: a policy name, a ``{"name": ..., **kwargs}``
            mapping, or a :class:`~repro.scheduler.restart.RestartPolicy`
            instance (see :func:`~repro.scheduler.restart.make_restart_policy`).
    """

    name = "pass-through"
    #: Conflict granularity, ``"operation"`` or ``"step"``.
    level = STEP_LEVEL
    #: The run's waits-for relation, which every BLOCK is asked of.  The
    #: engine binds its own before :meth:`attach`; a scheduler no engine
    #: runs keeps the unbound one, which never sees a cycle.
    waits: WaitsFor = UNBOUND

    def __init__(
        self, restart_policy: "str | Mapping[str, Any] | RestartPolicy" = IMMEDIATE_RESTART
    ) -> None:
        if self.level not in (OPERATION_LEVEL, STEP_LEVEL):
            raise ValueError(f"unknown conflict level {self.level!r}")
        self.object_base: ObjectBase | None = None
        self.operation_conflicts: PerObjectConflicts = PerObjectConflicts()
        self.step_conflicts: PerObjectConflicts = PerObjectConflicts()
        self.restart_policy: RestartPolicy = make_restart_policy(restart_policy)
        self._reset()

    # -- wiring ---------------------------------------------------------------

    def attach(self, object_base: ObjectBase) -> None:
        """Bind the scheduler to the object base it will arbitrate for."""
        self.object_base = object_base
        self.operation_conflicts = object_base.conflicts(OPERATION_LEVEL)
        self.step_conflicts = object_base.conflicts(STEP_LEVEL)
        self._reset()

    def _reset(self) -> None:
        """Create the per-run state — the one place a class lists it.

        Overrides call ``super()._reset()`` first and may read the
        configuration and the conflict registries, nothing else.
        """
        self._pending_wakeups: set[str] = set()

    def conflicts_for(self, level: str) -> PerObjectConflicts:
        """The per-object conflict registry at ``"operation"`` or ``"step"`` level."""
        return self.operation_conflicts if level == OPERATION_LEVEL else self.step_conflicts

    # -- wake-up notification ----------------------------------------------------

    def _note_wakeups(self, owner_ids) -> None:
        """Record that the given owners released (or transferred) resources.

        The identifiers must match the namespace this scheduler uses for
        ``SchedulerResponse.blockers``; parked frames waiting on any of them
        will be re-awakened when the engine next drains the wake set.
        """
        self._pending_wakeups.update(owner_ids)

    def drain_wakeups(self) -> frozenset[str]:
        """Hand the accumulated wake-up identifiers to the engine (and reset)."""
        if not self._pending_wakeups:
            return frozenset()
        drained = frozenset(self._pending_wakeups)
        self._pending_wakeups.clear()
        return drained

    # -- lifecycle hooks --------------------------------------------------------

    def on_transaction_begin(self, info: ExecutionInfo) -> None:
        """A new top-level transaction (or a restart of one) has started."""

    def on_invoke(self, parent: ExecutionInfo, child: ExecutionInfo) -> None:
        """A message step created the child method execution."""

    def on_operation(self, request: OperationRequest) -> SchedulerResponse:
        """Arbitrate a local operation request.

        Args:
            request: the issuing execution's identity plus the operation
                and its provisional step (return value on current state).

        Returns:
            GRANT to execute now, BLOCK (with blockers) to park the
            frame, or ABORT to abort the issuing top-level transaction.
        """
        return SchedulerResponse.grant()

    def on_operation_executed(self, request: OperationRequest) -> None:
        """The granted operation executed as ``request.provisional_step``."""

    def on_execution_complete(self, info: ExecutionInfo) -> None:
        """A (child) method execution finished normally."""

    def on_commit_request(self, info: ExecutionInfo) -> SchedulerResponse:
        """A top-level transaction asks to commit (certifiers may veto)."""
        return SchedulerResponse.grant()

    def on_transaction_commit(self, info: ExecutionInfo) -> None:
        """A top-level transaction committed."""

    def on_transaction_abort(self, info: ExecutionInfo, subtree: tuple[str, ...]) -> None:
        """A top-level transaction aborted; ``subtree`` lists its executions."""

    # -- live-state garbage collection -------------------------------------------

    def collect_garbage(self) -> int:
        """Drop retained state that nothing live (or future) can depend on.

        Called by the engine on its garbage-collection cadence during long
        (streaming) runs.  Schedulers whose records outlive the issuing
        transaction — the certifier's committed step records, NTO's
        timestamp records — override this to prune what can no longer
        influence any decision; lock-based schedulers release everything
        at transaction end and need not.  Must never change the outcome
        of any future request: garbage collection is invisible except in
        memory and in :meth:`live_state_size`.

        Returns:
            The number of pruned items (0 by default).
        """
        return 0

    def live_state_size(self) -> int:
        """The number of retained per-transaction items, for the gauge.

        The engine samples this (plus its own undo-log and parked-frame
        counts) at every garbage-collection pass; on a bounded-memory
        stream the sample stays proportional to the in-flight population.
        The base scheduler retains nothing.
        """
        return 0

    # -- descriptive ------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """Scheduler description recorded alongside run metrics."""
        return {"name": self.name, "restart_policy": self.restart_policy.name}

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
