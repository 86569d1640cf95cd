"""Nested two-phase locking (Moss' algorithm), Section 5.1 of the paper.

Rules enforced for every method execution ``e``:

1. ``e`` issues a step only while owning the corresponding lock.
2. ``e`` may acquire a lock only if every owner of a conflicting lock is an
   ancestor of ``e``.
3. ``e`` acquires no lock after releasing one (automatic here: locks are
   only released when the execution completes or aborts).
4. ``e`` releases no lock before its children have released theirs
   (automatic: children complete before their parent does).
5. When ``e`` releases a lock it is immediately acquired by ``e``'s parent
   (lock inheritance, implemented by :meth:`LockManager.transfer`).

The scheduler supports both conflict granularities of Section 5.1's
"Implementation Considerations": ``level="operation"`` locks operations
(Moss' original, conservative scheme) while ``level="step"`` locks steps,
using the provisional return value the engine supplies — Weihl's
observation that return values can be exploited to enhance concurrency.

Because N2PL blocks, it can deadlock: across transactions, and between
parallel branches of one transaction — by rule 2 a lock passes to an
ancestor of the waiter only when the blocking branch completes, so two
branches that each hold a lock the other needs can never finish.  The
scheduler keeps no waits-for graph for either: it hands each BLOCK to the
run's waits-for relation (:mod:`repro.core.waits`), whose nodes are
exactly the two kinds — top-level transactions, and the children of the
least common ancestor inside one — and which answers the requester's
ABORT when the wait would close a cycle.
"""

from __future__ import annotations

from typing import Any

from .base import (
    OPERATION_LEVEL,
    STEP_LEVEL,
    ExecutionInfo,
    OperationRequest,
    Scheduler,
    SchedulerResponse,
)
from .locks import LockManager


class NestedTwoPhaseLocking(Scheduler):
    """Moss-style nested two-phase locking."""

    name = "n2pl"

    def __init__(self, level: str = OPERATION_LEVEL, restart_policy: Any = "immediate"):
        self.level = level
        super().__init__(restart_policy=restart_policy)

    def _reset(self) -> None:
        super()._reset()
        self.locks = LockManager(
            self.conflicts_for(self.level), step_level=self.level == STEP_LEVEL
        )
        self.deadlocks_detected = 0
        self.blocked_requests = 0

    # -- scheduling ---------------------------------------------------------------

    def on_operation(self, request: OperationRequest) -> SchedulerResponse:
        item = (
            request.operation if self.level == OPERATION_LEVEL else request.provisional_step
        )
        info = request.info
        outcome = self.locks.request(request.object_name, item, info)
        if outcome.granted:
            return SchedulerResponse.grant()
        self.blocked_requests += 1
        # Blockers are reported at execution granularity: a parked waiter is
        # then only re-awakened by events that can actually change its
        # outcome — the blocking execution transfers its locks (rule 5) or
        # its transaction ends — instead of by every release anywhere in the
        # blocking transaction.
        response = self.waits.block(
            info.execution_id,
            SchedulerResponse.block(
                "conflicting locks held by non-ancestors", blockers=outcome.blockers
            ),
        )
        if response.aborted:
            self.deadlocks_detected += 1
        return response

    def on_execution_complete(self, info: ExecutionInfo) -> None:
        if info.parent_id is not None:
            # Rule 5: the parent immediately acquires the released locks.
            freed = self.locks.transfer(info.execution_id, info.parent_id)
            if freed:
                # Waiters blocked on the child must re-check their conflict:
                # the inheriting parent may be their ancestor.
                self._note_wakeups(freed)

    def on_transaction_commit(self, info: ExecutionInfo) -> None:
        # The engine itself wakes every frame parked on an ending
        # transaction (or any of its executions), so the release needs no
        # wake-up note; only rule-5 transfers do.
        self.locks.release_all(info.execution_id)

    def on_transaction_abort(self, info: ExecutionInfo, subtree: tuple[str, ...]) -> None:
        self.locks.release_all_of(subtree)
        self.locks.release_all(info.execution_id)

    # -- live-state garbage collection ---------------------------------------------

    def live_state_size(self) -> int:
        """Retained items: the held locks.

        Strict two-phase locking releases everything at transaction end,
        so no :meth:`collect_garbage` pass is needed — the size is
        O(live) by construction.
        """
        return self.locks.lock_count()

    # -- descriptive ------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "level": self.level,
            "restart_policy": self.restart_policy.name,
            "deadlocks_detected": self.deadlocks_detected,
            "blocked_requests": self.blocked_requests,
        }
