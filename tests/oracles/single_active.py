"""The single-active-object baseline as it was written before it became a modular preset.

Kept out of ``src/``: production runs
:class:`repro.scheduler.single_active.SingleActiveObjectScheduler`, a
:class:`~repro.scheduler.modular.ModularScheduler` whose every object runs
strict locking over whole-object conflicts and whose commit-ordered
coordinator checks each transaction's own sibling order (DESIGN.md,
"Commit-ordered objects").  :class:`SingleActiveObjectScheduler` here is
the hand-written version that replaced: its own shared/exclusive lock
table per object and :class:`IntraTransactionOrdering`, a per-transaction
:class:`~repro.core.dag.PrecedenceDag` of sibling edges.  Run on the same
scenario, the two must make every decision alike
(``tests/scheduler/test_single_active_oracle.py``).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from repro.core.dag import PrecedenceDag
from repro.core.records import StepRecords
from repro.scheduler.base import (
    ExecutionInfo,
    OperationRequest,
    Scheduler,
    SchedulerResponse,
    disjoint_ancestors,
)

SHARED = "shared"
EXCLUSIVE = "exclusive"


class IntraTransactionOrdering:
    """Keeps one transaction's sibling-level step orders mutually compatible.

    For every pair of conflicting steps issued by *incomparable* executions
    of the same transaction, the induced edge between their disjoint
    ancestors (children of the least common ancestor) must keep the
    transaction-local precedence graph acyclic; the requesting transaction
    is aborted otherwise.  Sequentially issued siblings always order
    consistently, so only parallel siblings can ever trigger an abort.
    """

    def __init__(self, conflicts_lookup):
        self._conflicts_lookup = conflicts_lookup
        # (step, info) per granted step, until its transaction ends.
        self._steps = StepRecords()
        # top-level id -> its siblings' precedence graph
        self._orders: dict[str, PrecedenceDag] = defaultdict(PrecedenceDag)

    def check_step(self, request: OperationRequest) -> SchedulerResponse:
        transaction_id = request.info.top_level_id
        new_pairs: set[tuple[str, str]] = set()
        for owner, (step, info) in self._steps.on(request.object_name):
            if owner != transaction_id:
                continue
            pair = disjoint_ancestors(info, request.info)
            if pair is None:
                continue  # comparable executions are ordered by nesting
            spec = self._conflicts_lookup(request.object_name)
            if spec.steps_conflict(step, request.provisional_step):
                new_pairs.add(pair)
        if new_pairs and not self._orders[transaction_id].add_edges(new_pairs):
            return SchedulerResponse.abort(
                "inter-object ordering violation among parallel siblings: "
                f"admitting the step would close a cycle in {transaction_id}'s "
                "sibling order"
            )
        return SchedulerResponse.grant()

    def record_step(self, request: OperationRequest) -> None:
        self._steps.add(
            request.object_name,
            request.info.top_level_id,
            (request.provisional_step, request.info),
        )

    def forget_transaction(self, transaction_id: str) -> None:
        self._steps.drop(transaction_id)
        self._orders.pop(transaction_id, None)


class SingleActiveObjectScheduler(Scheduler):
    """Object-granularity strict two-phase locking (GemStone-style baseline)."""

    name = "single-active-object"

    def _reset(self) -> None:
        super()._reset()
        # object name -> {transaction id -> mode}
        self._object_locks: dict[str, dict[str, str]] = defaultdict(dict)
        self.sibling_order = IntraTransactionOrdering(self._sibling_conflicts)
        self.deadlocks_detected = 0
        self.blocked_requests = 0
        self.sibling_ordering_aborts = 0

    def _sibling_conflicts(self, object_name: str):
        return self.step_conflicts[object_name]

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _required_mode(request: OperationRequest) -> str:
        write_set = request.operation.write_set()
        if write_set is not None and not write_set:
            return SHARED
        return EXCLUSIVE

    def _incompatible_holders(self, object_name: str, transaction_id: str, mode: str) -> set[str]:
        holders = self._object_locks[object_name]
        blockers: set[str] = set()
        for holder_id, held_mode in holders.items():
            if holder_id == transaction_id:
                continue
            if mode == EXCLUSIVE or held_mode == EXCLUSIVE:
                blockers.add(holder_id)
        return blockers

    # -- scheduling --------------------------------------------------------------

    def on_operation(self, request: OperationRequest) -> SchedulerResponse:
        transaction_id = request.info.top_level_id
        mode = self._required_mode(request)
        blockers = self._incompatible_holders(request.object_name, transaction_id, mode)
        if not blockers:
            sibling_response = self.sibling_order.check_step(request)
            if not sibling_response.granted:
                self.sibling_ordering_aborts += 1
                return sibling_response
            holders = self._object_locks[request.object_name]
            current = holders.get(transaction_id)
            if current != EXCLUSIVE:
                holders[transaction_id] = mode if current is None else (
                    EXCLUSIVE if EXCLUSIVE in (current, mode) else SHARED
                )
            return SchedulerResponse.grant()

        self.blocked_requests += 1
        response = self.waits.block(
            request.info.execution_id,
            SchedulerResponse.block("object locked by another transaction", blockers=blockers),
        )
        if response.aborted:
            self.deadlocks_detected += 1
        return response

    def on_operation_executed(self, request: OperationRequest) -> None:
        self.sibling_order.record_step(request)

    def _release(self, transaction_id: str) -> None:
        # Object locks only ever free at transaction end, and the engine
        # itself wakes frames parked on an ending transaction — no wake-up
        # note needed here.
        for holders in self._object_locks.values():
            holders.pop(transaction_id, None)
        self.sibling_order.forget_transaction(transaction_id)

    def on_transaction_commit(self, info: ExecutionInfo) -> None:
        self._release(info.top_level_id)

    def on_transaction_abort(self, info: ExecutionInfo, subtree: tuple[str, ...]) -> None:
        self._release(info.top_level_id)

    # -- descriptive ------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "restart_policy": self.restart_policy.name,
            "deadlocks_detected": self.deadlocks_detected,
            "blocked_requests": self.blocked_requests,
            "sibling_ordering_aborts": self.sibling_ordering_aborts,
        }
