"""Nested timestamp ordering (Reed's algorithm), Section 5.2 of the paper.

Rules enforced:

1. If incomparable executions issue conflicting local steps, the step of
   the execution with the smaller hierarchical timestamp must come first;
   an operation arriving "too late" (a conflicting step of a later-stamped
   execution has already been processed) causes the issuing transaction to
   abort.
2. Children created by sequentially issued messages receive increasing
   timestamps; this is realised by drawing each child's last timestamp
   component from a per-parent counter (:class:`TimestampAuthority`).

Both implementation strategies of the paper are available:

* ``level="operation"`` — the conservative scheme: for every local
  operation of every object the scheduler remembers the timestamps of the
  executions that issued it, and a new operation is admitted only when no
  *conflicting operation* carries a larger timestamp.
* ``level="step"`` — the provisional-execution scheme: the recorded
  information is the actual steps (with return values), so only
  *conflicting steps* can force an abort, admitting strictly more
  interleavings (e.g. enqueues and dequeues of different items).

Timestamps of ancestors are prefixes of their descendants' timestamps;
records issued by comparable executions never force an abort.

NTO grants operations against uncommitted state, so a transaction can
observe values influenced by a concurrent transaction that later aborts.
To keep committed histories legal the scheduler runs a
:class:`~repro.scheduler.recovery.CommitGate`.  In the default
``gate_mode="cascade"`` commits wait (the engine parks the transaction at
its commit point) until the transactions whose effects were observed have
committed, and cascade-abort when one of them aborted — Reed's "commit
dependencies" in the terms of this code base.  ``gate_mode="aca"``
instead blocks a conflicting read of uncommitted effects at execution
time, so commits never cascade.  How aborted transactions are
resubmitted is the ``restart_policy`` axis (immediate / backoff /
ordered; see :mod:`repro.scheduler.restart`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.operations import LocalOperation, LocalStep
from ..core.records import StepRecords
from .base import (
    OPERATION_LEVEL,
    STEP_LEVEL,
    ExecutionInfo,
    OperationRequest,
    Scheduler,
    SchedulerResponse,
)
from .recovery import CASCADE_MODE, CommitGate
from .timestamps import HierarchicalTimestamp, TimestampAuthority


@dataclass(slots=True)
class _StepRecord:
    """A processed step (or operation) and the timestamp of its issuer."""

    item: LocalOperation | LocalStep
    timestamp: HierarchicalTimestamp
    issuer_id: str


class NestedTimestampOrdering(Scheduler):
    """Reed-style nested timestamp ordering."""

    name = "nto"

    def __init__(
        self,
        level: str = OPERATION_LEVEL,
        restart_policy: Any = "immediate",
        gate_mode: str = CASCADE_MODE,
    ):
        self.level = level
        self.gate_mode = gate_mode
        super().__init__(restart_policy=restart_policy)

    def _reset(self) -> None:
        super()._reset()
        self.authority = TimestampAuthority()
        # Kept after an abort too: GC alone drops records, by timestamp.
        self._records = StepRecords()
        # First timestamp component per live top-level execution (the
        # garbage-collection watermark) and the execution ids of each live
        # transaction's subtree (so the authority's assignments can be
        # released at commit, when no subtree listing is provided).
        self._live_first: dict[str, int] = {}
        self._members: dict[str, set[str]] = {}
        self.timestamp_aborts = 0
        self.gc_pruned_records = 0
        self.gate = CommitGate.for_scheduler(self)

    # -- lifecycle --------------------------------------------------------------

    def on_transaction_begin(self, info: ExecutionInfo) -> None:
        timestamp = self.authority.assign_top_level(info.execution_id)
        self._live_first[info.execution_id] = timestamp.components[0]
        self._members[info.execution_id] = {info.execution_id}
        self.gate.begin(info.top_level_id)

    def on_invoke(self, parent: ExecutionInfo, child: ExecutionInfo) -> None:
        self.authority.assign_child(parent.execution_id, child.execution_id)
        self._members.setdefault(child.top_level_id, set()).add(child.execution_id)

    def on_operation(self, request: OperationRequest) -> SchedulerResponse:
        timestamp = self.authority.timestamp_of(request.info.execution_id)
        requested = request.lock_item(self.level)
        spec = self.conflicts_for(self.level)[request.object_name]
        step_level = self.level == STEP_LEVEL
        for _, record in self._records.on(request.object_name):
            if record.timestamp.is_prefix_of(timestamp) or timestamp.is_prefix_of(record.timestamp):
                continue  # comparable executions are never reordered by NTO
            if record.timestamp < timestamp:
                continue
            # The recorded step was processed first, so NTO rule 1 cares
            # about "recorded conflicts with requested" only.
            if spec.conflicting(record.item, requested, step_level):
                self.timestamp_aborts += 1
                return SchedulerResponse.abort(
                    f"timestamp order violation: conflicting step of {record.issuer_id} "
                    f"carries {record.timestamp}, requester has {timestamp}"
                )
        # In aca mode the gate may additionally block the step until the
        # uncommitted writers it would observe have resolved (no-op GRANT in
        # cascade mode).
        return self.gate.check_operation(request.object_name, requested, request.info)

    def on_operation_executed(self, request: OperationRequest) -> None:
        timestamp = self.authority.timestamp_of(request.info.execution_id)
        item = request.lock_item(self.level)
        self._records.add(
            request.object_name,
            request.info.top_level_id,
            _StepRecord(item, timestamp, request.info.execution_id),
        )
        self.gate.record_step(request.object_name, item, request.info.top_level_id)

    def on_commit_request(self, info: ExecutionInfo) -> SchedulerResponse:
        return self.gate.check_commit(info.top_level_id)

    def on_transaction_commit(self, info: ExecutionInfo) -> None:
        self._forget_live(info.top_level_id)
        self._note_wakeups(self.gate.finish(info.top_level_id, committed=True))

    def on_transaction_abort(self, info: ExecutionInfo, subtree: tuple[str, ...]) -> None:
        # The aborted executions' records are kept (their timestamps remain a
        # conservative lower bound, as in the paper's max-timestamp scheme),
        # but their timestamp assignments can be forgotten.
        self._members.setdefault(info.top_level_id, set()).update(subtree)
        self._forget_live(info.top_level_id)
        self._note_wakeups(self.gate.finish(info.top_level_id, committed=False))

    def _forget_live(self, top_level_id: str) -> None:
        """A transaction resolved: release its watermark and its timestamps.

        Records keep timestamps *by value*, so dropping the authority's
        assignments (ids are never reused — a restart begins a fresh
        top-level execution with a fresh timestamp) loses nothing.
        """
        self._live_first.pop(top_level_id, None)
        self.authority.forget_subtree(self._members.pop(top_level_id, set()))

    # -- live-state garbage collection ---------------------------------------------

    def collect_garbage(self) -> int:
        """Drop records no live or future execution can violate.

        NTO rule 1 aborts a requester only when a *conflicting* record
        carries a **larger** timestamp.  Top-level timestamps grow with
        begin order — the paper's "if e terminates before e' begins then
        hts(e) < hts(e')", which it notes is what allows step information
        to be garbage-collected — so a record whose first component is
        smaller than every live transaction's first component compares
        below every current and future requester and can never force an
        abort again.  All records of one transaction share its first
        component, so the test runs once per transaction.

        Returns:
            The number of pruned records.
        """
        watermark = min(self._live_first.values(), default=None)
        removed = self._records.retain(
            lambda _, record: watermark is not None and record.timestamp.components[0] >= watermark
        )
        self.gc_pruned_records += removed
        return removed

    def live_state_size(self) -> int:
        """Retained items: timestamp records, assignments, and the gate's state."""
        return (
            len(self._records)
            + self.authority.size()
            + self.gate.live_state_size()
        )

    # -- descriptive ------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "level": self.level,
            "restart_policy": self.restart_policy.name,
            "timestamp_aborts": self.timestamp_aborts,
            "recorded_steps": len(self._records),
            "gc_pruned_records": self.gc_pruned_records,
            **self.gate.describe(),
        }
