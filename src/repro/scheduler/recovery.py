"""Commit-time recoverability gate for non-strict schedulers.

Schedulers that grant operations against uncommitted state — timestamp
ordering, optimistic certifiers, and per-object timestamp synchronisers —
admit *dirty reads*: an execution can observe a return value influenced by
a step of a transaction that later aborts.  If the reader then commits,
its recorded return values contradict any replay of the committed
projection and the history stops being legal (the seed's
``test_committed_projection_is_legal[nto]`` failure).

:class:`CommitGate` closes that hole; *how* is a contention-handling
policy, selected by the gate's ``mode`` axis:

**``mode="cascade"``** (the default) makes committed histories
*recoverable* without ever blocking an operation:

* every executed step is compared against the earlier steps of still-live
  transactions; a conflict records a read-from dependency (the requester
  may have observed the other transaction's effects);
* a commit request is **blocked** while any dependency is still live (the
  engine parks the transaction at its commit point and re-awakens it when
  a dependency commits or aborts);
* a commit request is **aborted** — a cascading abort — when a dependency
  has aborted: the requester observed state that has since been undone;
* mutual commit-waits (a dependency cycle) would stall forever, so every
  commit wait goes to the run's waits-for relation
  (:mod:`repro.core.waits`), which aborts the requester that closes
  a cycle (such a cycle is also a serialisation-graph cycle, so one of the
  participants must die anyway).  A cycle of commit waits alone is a
  ``validation`` failure; one that also runs through a lock wait is a
  ``deadlock``.

**``mode="aca"``** avoids cascading aborts altogether by gating
conflicting reads at *execution* time: :meth:`CommitGate.check_operation`
BLOCKs a step that conflicts with an earlier state-mutating step of a
still-live transaction (the engine parks the issuing frame on those
writers and re-awakens it when they resolve).  By the time a step
executes, every effect it can observe is committed, so no read-from
dependency on a live transaction is ever recorded and commits neither
wait nor cascade.  The price is operation blocking — the scheduler's
"never blocks an operation" property is traded away — and the dirty-read
wait cycles that come with it, which the same waits-for relation detects
and breaks by aborting the requester.

The gate tracks only live transactions: a transaction's records, its
dependency set and — once no live dependent references them — aborted
markers are all dropped as transactions resolve.
"""

from __future__ import annotations

from typing import Any, Callable

from ..core.operations import LocalOperation, LocalStep
from ..core.records import StepRecords
from ..core.waits import UNBOUND, WaitsFor
# The gate modes are re-exported: the schedulers take them from here.
from .base import (  # noqa: F401
    ACA_MODE,
    CASCADE_MODE,
    GATE_MODES,
    STEP_LEVEL,
    ExecutionInfo,
    Scheduler,
    SchedulerResponse,
)


class CommitGate:
    """Tracks read-from dependencies and arbitrates commit requests.

    A commit-ordered modular scheduler calls neither step hook: its locks
    let no step read a live writer (DESIGN.md, "Commit-ordered objects").

    Parameters
    ----------
    conflicts_lookup:
        ``object name -> ConflictSpec`` accessor (matching the owning
        scheduler's conflict granularity).
    step_level:
        When true, dependencies are induced by step conflicts (return-value
        aware); otherwise by operation conflicts.
    mode:
        ``"cascade"`` (default) resolves dirty reads at commit time —
        commit-waits plus cascading aborts; ``"aca"`` prevents them at
        execution time — :meth:`check_operation` blocks conflicting reads
        of uncommitted effects, so commits never cascade.
    waits:
        the run's waits-for relation, which every BLOCK is asked of.
    """

    def __init__(
        self,
        conflicts_lookup: Callable[[str], Any],
        step_level: bool = True,
        mode: str = CASCADE_MODE,
        waits: WaitsFor = UNBOUND,
    ):
        if mode not in GATE_MODES:
            raise ValueError(f"unknown gate mode {mode!r}; available: {', '.join(GATE_MODES)}")
        self._conflicts_lookup = conflicts_lookup
        self._step_level = step_level
        self.mode = mode
        self.waits = waits
        # The item of every executed step of a live transaction, filed
        # under it; finish() drops the transaction's records.
        self._steps = StepRecords()
        self._live: set[str] = set()
        self._aborted: set[str] = set()
        self._dependencies: dict[str, set[str]] = {}
        # Transactions currently inside a blocked commit spell.  A deferred
        # cross-shard ballot calls check_commit again at every barrier, so
        # the counter tracks *spells*, not calls — otherwise commit_waits
        # would scale with how often barriers fall.
        self._commit_waiters: set[str] = set()
        self.cascading_aborts = 0
        self.commit_waits = 0
        self.blocked_reads = 0

    @classmethod
    def for_scheduler(cls, scheduler: Scheduler) -> "CommitGate":
        """A fresh gate at ``scheduler``'s conflict level, ``gate_mode`` and waits-for relation."""
        registry = scheduler.conflicts_for(scheduler.level)
        return cls(
            lambda name: registry[name],
            step_level=scheduler.level == STEP_LEVEL,
            mode=scheduler.gate_mode,
            waits=scheduler.waits,
        )

    # -- life cycle ----------------------------------------------------------

    def begin(self, transaction_id: str) -> None:
        self._live.add(transaction_id)

    def finish(self, transaction_id: str, *, committed: bool) -> frozenset[str]:
        """The transaction resolved; returns the wake-up keys it frees."""
        self._live.discard(transaction_id)
        if not committed:
            self._aborted.add(transaction_id)
        self._steps.drop(transaction_id)
        self._dependencies.pop(transaction_id, None)
        self._commit_waiters.discard(transaction_id)
        if self._aborted:
            # An aborted marker only matters while some live dependent might
            # still observe it; prune the rest to keep the gate bounded.
            referenced: set[str] = set()
            for dependencies in self._dependencies.values():
                referenced.update(dependencies)
            self._aborted &= referenced
        return frozenset({transaction_id})

    # -- recording -----------------------------------------------------------

    @staticmethod
    def _mutates_state(item: LocalOperation | LocalStep) -> bool:
        """False only when the item is provably read-only.

        A read-only step cannot have transferred uncommitted data to a
        later observer, so it never seeds a read-from dependency; an
        operation that does not declare its write set is treated as
        mutating (conservatively).
        """
        operation = item.operation if isinstance(item, LocalStep) else item
        write_set = operation.write_set()
        return write_set is None or bool(write_set)

    def _add_writers(
        self,
        writers: set[str],
        object_name: str,
        item: LocalOperation | LocalStep,
        transaction_id: str,
    ) -> None:
        """Add, in record order, the other transactions with a mutating step on
        ``object_name`` that conflicts with ``item``.

        Every record is a live transaction's: :meth:`record_step` files only
        those, and :meth:`finish` drops them.
        """
        spec = self._conflicts_lookup(object_name)
        for owner, recorded in self._steps.on(object_name):
            if (
                owner != transaction_id
                and self._mutates_state(recorded)
                and spec.conflicting(recorded, item, self._step_level)
            ):
                writers.add(owner)

    def record_step(
        self,
        object_name: str,
        item: LocalOperation | LocalStep,
        transaction_id: str,
    ) -> None:
        """An operation of ``transaction_id`` executed; collect dependencies.

        Earlier conflicting *state-mutating* steps of other live
        transactions may have influenced the observed return value, so each
        contributes a read-from dependency.
        """
        self._add_writers(
            self._dependencies.setdefault(transaction_id, set()), object_name, item, transaction_id
        )
        # A transaction the gate never began (a scheduler driven step by
        # step) leaves no record for others to depend on.
        if transaction_id in self._live:
            self._steps.add(object_name, transaction_id, item)

    # -- operation gating (aca mode) -------------------------------------------

    def check_operation(
        self,
        object_name: str,
        item: LocalOperation | LocalStep,
        info: ExecutionInfo,
    ) -> SchedulerResponse:
        """In ``aca`` mode, keep a step from observing uncommitted effects.

        BLOCKs (naming the live writers as blockers) when the requested
        item conflicts with an earlier state-mutating step of another
        still-live transaction, unless the run's waits-for relation finds
        that the wait closes a cycle — reader and writer each stuck behind
        the other's uncommitted effects — and aborts the requester.  In
        ``cascade`` mode this is a no-op GRANT: dirty reads are resolved at
        commit time instead.

        Args:
            object_name: the object the operation addresses.
            item: the operation (or provisional step, at step granularity)
                about to execute.
            info: the issuing execution (parked per-execution, so parallel
                siblings of one transaction wait independently).
        """
        if self.mode != ACA_MODE:
            return SchedulerResponse.grant()
        writers: set[str] = set()
        self._add_writers(writers, object_name, item, info.top_level_id)
        if not writers:
            return SchedulerResponse.grant()
        response = self.waits.block(
            info.execution_id,
            SchedulerResponse.block(
                f"aca: waiting for uncommitted writers of {object_name} to resolve",
                blockers=writers,
            ),
        )
        if response.blocked:
            self.blocked_reads += 1
        return response

    # -- commit arbitration ----------------------------------------------------

    def check_commit(self, transaction_id: str) -> SchedulerResponse:
        """GRANT, BLOCK (park until dependencies resolve) or ABORT (cascade)."""
        dependencies = self._dependencies.get(transaction_id, set())
        dirty = dependencies & self._aborted
        if dirty:
            self.cascading_aborts += 1
            self._commit_waiters.discard(transaction_id)
            return SchedulerResponse.abort(
                f"cascading abort: observed state written by aborted transaction(s) "
                f"{sorted(dirty)}"
            )
        waiting = dependencies & self._live
        if waiting:
            response = self.waits.block(
                transaction_id,
                SchedulerResponse.block(
                    "waiting for commit of transactions whose effects were observed",
                    blockers=waiting,
                ),
                commit=True,
            )
            if response.aborted:
                self._commit_waiters.discard(transaction_id)
            elif transaction_id not in self._commit_waiters:
                self._commit_waiters.add(transaction_id)
                self.commit_waits += 1
            return response
        self._commit_waiters.discard(transaction_id)
        return SchedulerResponse.grant()

    # -- descriptive ------------------------------------------------------------

    def live_state_size(self) -> int:
        """Retained gate items: step records, dependencies, aborted markers.

        The gate prunes itself as transactions resolve (see
        :meth:`finish`), so this is O(live transactions × their steps) by
        construction; the engine's live-state gauge samples it to assert
        exactly that on long streams.
        """
        return (
            len(self._steps)
            + sum(len(dependencies) for dependencies in self._dependencies.values())
            + len(self._aborted)
        )

    def describe(self) -> dict[str, Any]:
        return {
            "gate_mode": self.mode,
            "cascading_aborts": self.cascading_aborts,
            "commit_waits": self.commit_waits,
            "blocked_reads": self.blocked_reads,
        }
