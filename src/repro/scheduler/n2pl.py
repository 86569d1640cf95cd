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

Because N2PL blocks, it can deadlock, in two ways:

* *across transactions*: a waits-for graph at transaction granularity
  detects cycles of transactions waiting on one another;
* *between branches of one transaction*: by rule 2 a lock passes to an
  ancestor of the waiter only when the blocking branch — the child of the
  least common ancestor (lca) on the holder's side — completes and
  transfers it to the lca.  So two parallel branches that each hold a lock
  the other needs can never finish.  For an own-transaction blocker ``h``
  of a waiter ``w``, every ancestor of ``w`` below their lca (``w``
  included) waits on ``h``'s branch.  Around a cycle of such waits each
  wait's lca is at or above the previous one's (a branch only waits
  through a descendant), so all are one lca and the cycle runs through
  its children alone.  A second waits-for graph over executions therefore
  records just ``w``'s branch — the lca's child on ``w``'s side — waiting
  on ``h``'s.

Any cycle can never resolve itself, and the requesting transaction is
chosen as the victim.  A cycle that mixes both kinds leaves the
transaction and comes back, so it is a cycle of the first graph.
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
    disjoint_ancestors,
)
from .deadlock import WaitsForGraph
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
        self.waits = WaitsForGraph()
        # Branch waits inside one transaction, over execution ids.  A parked
        # waiter contributes one record per lca it waits below, keyed
        # (waiter, its branch) and listed under the waiter in _branch_keys.
        self.branch_waits = WaitsForGraph()
        self._branch_keys: dict[str, list[tuple[str, str]]] = {}
        self._info_of: dict[str, ExecutionInfo] = {}
        self._executions_of: dict[str, set[str]] = {}
        self.deadlocks_detected = 0
        self.blocked_requests = 0

    # -- lifecycle --------------------------------------------------------------

    def on_transaction_begin(self, info: ExecutionInfo) -> None:
        self._info_of[info.execution_id] = info
        self._executions_of[info.top_level_id] = {info.execution_id}

    def on_invoke(self, parent: ExecutionInfo, child: ExecutionInfo) -> None:
        self._info_of[child.execution_id] = child
        self._executions_of.setdefault(child.top_level_id, set()).add(child.execution_id)

    def on_operation(self, request: OperationRequest) -> SchedulerResponse:
        item = (
            request.operation if self.level == OPERATION_LEVEL else request.provisional_step
        )
        info = request.info
        outcome = self.locks.request(request.object_name, item, info)
        if outcome.granted:
            self.waits.unpark(info.execution_id)
            self._unpark_branches(info.execution_id)
            return SchedulerResponse.grant()

        self.blocked_requests += 1
        # The transaction graph records waits on other transactions only;
        # waits on one's own transaction go to the branch graph below.
        # Both are maintained incrementally from the parked waiters, keyed
        # by the blocked execution, so parallel siblings of one transaction
        # each contribute their own edges.
        info_of = self._info_of
        blocking_transactions = {
            info_of[owner_id].top_level_id if owner_id in info_of else owner_id
            for owner_id in outcome.blockers
        }
        cross_transaction_blockers = blocking_transactions - {info.top_level_id}
        self.waits.park(info.execution_id, info.top_level_id, cross_transaction_blockers)
        # The graph was acyclic before this park (cycles are broken at the
        # park that closes them), so any new cycle runs through this
        # transaction — which requires an edge *into* it.  No incoming
        # edge, no DFS needed.
        cycle = (
            self.waits.find_cycle_from(info.top_level_id)
            if self.waits.is_waited_on(info.top_level_id)
            else None
        )
        if cycle is not None:
            self.deadlocks_detected += 1
            self.waits.remove_transaction(info.top_level_id)
            return SchedulerResponse.abort(f"deadlock among transactions {sorted(set(cycle))}")
        self._unpark_branches(info.execution_id)
        if info.top_level_id in blocking_transactions:
            cycle = self._park_branches(info, outcome.blockers)
            if cycle is not None:
                self.deadlocks_detected += 1
                return SchedulerResponse.abort(
                    f"deadlock among branches {sorted(set(cycle))} of {info.top_level_id}"
                )
        # Blockers are reported at execution granularity: a parked waiter is
        # then only re-awakened by events that can actually change its
        # outcome — the blocking execution transfers its locks (rule 5) or
        # its transaction ends — instead of by every release anywhere in the
        # blocking transaction.
        return SchedulerResponse.block(
            "conflicting locks held by non-ancestors", blockers=outcome.blockers
        )

    def _park_branches(self, info: ExecutionInfo, blockers) -> list[str] | None:
        """Record the waiter's branch waits; return a cycle they close.

        Every older cycle aborted its transaction, which drops all of that
        transaction's records, so a cycle now runs through a new edge and
        hence through one of the branches waited on.
        """
        waits: dict[str, set[str]] = {}
        for owner_id in blockers:
            owner = self._info_of.get(owner_id)
            if owner is not None and owner.top_level_id == info.top_level_id:
                own_side, owner_side = disjoint_ancestors(info, owner)
                waits.setdefault(own_side, set()).add(owner_side)
        keys = self._branch_keys[info.execution_id] = []
        for own_side, branches in waits.items():
            keys.append((info.execution_id, own_side))
            self.branch_waits.park(keys[-1], own_side, branches)
        for branch in sorted(set().union(*waits.values())):
            cycle = self.branch_waits.find_cycle_from(branch)
            if cycle is not None:
                return cycle
        return None

    def _unpark_branches(self, execution_id: str) -> None:
        for key in self._branch_keys.pop(execution_id, ()):
            self.branch_waits.unpark(key)

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
        self.waits.remove_transaction(info.top_level_id)
        self._forget_top_level(info.top_level_id)

    def on_transaction_abort(self, info: ExecutionInfo, subtree: tuple[str, ...]) -> None:
        self.locks.release_all_of(subtree)
        self.locks.release_all(info.execution_id)
        self.waits.remove_transaction(info.top_level_id)
        self._forget_top_level(info.top_level_id)

    def _forget_top_level(self, top_level_id: str) -> None:
        """Release the resolved transaction's blocker-translation entries.

        Execution ids are never reused, so keeping them would grow the
        translation map with every transaction that ever ran — a leak a
        long arrival stream cannot afford.  The reverse index keeps the
        cleanup O(the transaction's own executions).
        """
        for execution_id in self._executions_of.pop(top_level_id, ()):
            self._info_of.pop(execution_id, None)
            self._unpark_branches(execution_id)

    # -- live-state garbage collection ---------------------------------------------

    def live_state_size(self) -> int:
        """Retained items: held locks plus blocker-translation entries.

        Strict two-phase locking releases everything at transaction end,
        so no :meth:`collect_garbage` pass is needed — the size is
        O(live) by construction.
        """
        return self.locks.lock_count() + len(self._info_of)

    # -- descriptive ------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "level": self.level,
            "restart_policy": self.restart_policy.name,
            "deadlocks_detected": self.deadlocks_detected,
            "blocked_requests": self.blocked_requests,
        }
