"""Optimistic certifier scheduler.

Section 6 of the paper mentions "techniques that resemble certifiers (or
'optimistic' schedulers) in conventional database concurrency control"
which favour unconstrained intra-object execution at the price of
validation aborts.  This scheduler realises that end of the trade-off:

* every local operation is granted immediately (no blocking, no timestamp
  checks);
* when a top-level transaction asks to commit, its conflicts with already
  *committed* transactions are examined — if serialising it after its
  predecessors would close a cycle in the committed-precedence graph, the
  transaction is aborted (backward validation), otherwise it commits and
  its precedence edges become part of the committed graph.

Validation works at *disjoint-ancestor* granularity (the children of the
least common ancestor of the two conflicting executions, or their
top-level transactions when unrelated) — the same sibling-level
projection of the serialisation graph Theorem 5 constrains.  Validating
only whole transactions would miss cycles among the parallel children of
a single nested transaction, whose sibling orders on different objects
must also be mutually compatible.

Validation is **incremental**: every executed step is classified exactly
once, against the steps still recorded on its object
(``on_operation_executed`` — one conflict check per record, counted by
``classified_pairs``), and the resulting candidate edges are filed under
both involved transactions.  A commit request then merely *selects* the filed
edges whose other side has committed — it performs **zero** conflict-spec
calls and never re-enumerates committed-vs-committed step pairs — and
feeds them into the committed precedence graph, a
:class:`~repro.core.dag.PrecedenceDag` (edges are added in place and
rolled back on a cycle; the graph is never copied).  The
revalidate-everything implementation this replaced re-enumerates step
pairs at each commit; it lives in ``tests/oracles/certifier.py``, where
the differential tests hold every commit's edge selection against it.

The committed projection of any run is therefore serialisable, which the
post-hoc certification in :mod:`repro.analysis` verifies.

Serialisable is not yet legal: executing against uncommitted state allows
dirty reads, and a reader that commits before its writer aborts would
record return values no replay of the committed projection can reproduce.
A :class:`~repro.scheduler.recovery.CommitGate` closes that hole; how is
the ``gate_mode`` axis.  The default ``"cascade"`` defers commits (the
engine parks the transaction at its commit point — still never blocking
an *operation*) until every transaction whose effects the candidate
observed has resolved, cascade-aborting when one aborted; ``"aca"``
trades the no-operation-blocking property away and blocks a conflicting
read of uncommitted effects at execution time, so commits never cascade.
How aborted transactions are resubmitted is the scheduler's
``restart_policy`` axis (:mod:`repro.scheduler.restart`) — under the
default immediate policy, contended hotspot workloads degenerate into
cascade storms (aborted readers restart straight back into the unchanged
hot set); ``"backoff"``/``"ordered"`` break the storm, which E14
measures.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Any

from ..core.dag import PrecedenceDag
from ..core.operations import LocalStep
from ..core.records import StepRecords
from .base import (
    STEP_LEVEL,
    ExecutionInfo,
    OperationRequest,
    Scheduler,
    SchedulerResponse,
    disjoint_ancestors,
)
from .recovery import CASCADE_MODE, CommitGate


@dataclass(frozen=True, slots=True)
class _CandidateEdge:
    """A sibling-level precedence edge discovered at step-execution time.

    ``source``/``target`` are the disjoint ancestors the edge joins;
    ``earlier_tx``/``later_tx`` own the two sides (earlier = the side whose
    step executed first).  The edge becomes *active* for a committing
    candidate once the other involved transaction has committed (or both
    sides belong to the candidate itself).
    """

    source: str
    target: str
    earlier_tx: str
    later_tx: str

    def other(self, transaction_id: str) -> str:
        return self.later_tx if self.earlier_tx == transaction_id else self.earlier_tx


class OptimisticCertifier(Scheduler):
    """Execute-then-validate concurrency control (backward validation)."""

    name = "certifier"

    def __init__(
        self,
        level: str = STEP_LEVEL,
        restart_policy: Any = "immediate",
        gate_mode: str = CASCADE_MODE,
    ):
        self.level = level
        self.gate_mode = gate_mode
        super().__init__(restart_policy=restart_policy)

    def _reset(self) -> None:
        super()._reset()
        self._sequence = itertools.count(1)
        # (step, info) per executed step; an abort drops the transaction's,
        # and so does GC once nothing live can reach the committed ones.
        self._steps = StepRecords()
        self._committed_graph = PrecedenceDag()
        self._pending_edges: dict[str, set[_CandidateEdge]] = defaultdict(set)
        # Begun and not yet resolved.  The engine begins a transaction before
        # its first step and an abort un-files its edges, so the other side
        # of a filed edge is either live or committed.
        self._live_transactions: set[str] = set()
        # Per transaction that asked to commit, the graph nodes it owns (for
        # an abort's clean-up and for collect_garbage; a commit leaves only
        # its top-level id), and its begin and resolve stamps (to decide
        # overlap); a committed transaction's go when its records are pruned.
        self._nodes: dict[str, set[str]] = defaultdict(set)
        self._begin_seq: dict[str, int] = {}
        self._resolve_seq: dict[str, int] = {}
        self.commits = 0
        self.validation_aborts = 0
        self.classified_pairs = 0
        self.gc_pruned_records = 0
        self.gate = CommitGate.for_scheduler(self)

    def on_transaction_begin(self, info: ExecutionInfo) -> None:
        transaction_id = info.top_level_id
        self._live_transactions.add(transaction_id)
        self._begin_seq[transaction_id] = next(self._sequence)
        self.gate.begin(transaction_id)

    # -- execution phase ----------------------------------------------------------

    def on_operation(self, request: OperationRequest) -> SchedulerResponse:
        # Unconditional GRANT in cascade mode; in aca mode the gate blocks
        # steps that would observe uncommitted effects.
        item = request.lock_item(self.level)
        return self.gate.check_operation(request.object_name, item, request.info)

    def on_operation_executed(self, request: OperationRequest) -> None:
        step = request.provisional_step
        transaction_id = request.info.top_level_id
        # Classify the new step against the object's recorded suffix exactly
        # once: every earlier step executed first, so only "earlier conflicts
        # with later" can force an edge (the serialisation-graph rule).
        for earlier_id, (earlier_step, earlier_info) in self._steps.on(request.object_name):
            self.classified_pairs += 1
            if not self._conflicting(request.object_name, earlier_step, step):
                continue
            pair = disjoint_ancestors(earlier_info, request.info)
            if pair is None:
                continue  # comparable executions: no ordering constraint
            edge = _CandidateEdge(pair[0], pair[1], earlier_id, transaction_id)
            # A committed predecessor never revalidates (its file was popped
            # at commit), so the edge is filed only under sides that can
            # still reach validation.
            if earlier_id in self._live_transactions:
                self._pending_edges[earlier_id].add(edge)
            if transaction_id != earlier_id:
                self._pending_edges[transaction_id].add(edge)
        self._steps.add(request.object_name, transaction_id, (step, request.info))
        self.gate.record_step(request.object_name, request.lock_item(self.level), transaction_id)

    # -- validation phase ----------------------------------------------------------

    def _conflicting(self, object_name: str, earlier: LocalStep, later: LocalStep) -> bool:
        # Precedence edges follow the serialisation-graph definition: only
        # "earlier conflicts with later" forces the earlier transaction first.
        spec = self.conflicts_for(self.level)[object_name]
        return spec.conflicting(earlier, later, self.level == STEP_LEVEL)

    def _active_edges(self, candidate_id: str) -> list[_CandidateEdge]:
        """The candidate's filed edges whose other side has resolved.

        Pure selection over the pre-classified edge sets: no conflict-spec
        calls, no step-pair enumeration.
        """
        active = []
        for edge in self._pending_edges.get(candidate_id, ()):
            other = edge.other(candidate_id)
            if other == candidate_id or other not in self._live_transactions:
                active.append(edge)
        return active

    def on_commit_request(self, info: ExecutionInfo) -> SchedulerResponse:
        candidate_id = info.top_level_id
        # Recoverability first: wait out (or cascade on) live dependencies,
        # so validation only ever runs against resolved predecessors.
        gate_response = self.gate.check_commit(candidate_id)
        if not gate_response.granted:
            return gate_response
        active = self._active_edges(candidate_id)
        # Trial insertion into the committed graph itself; a batch that
        # would close a cycle leaves the graph exactly as it was.
        graph = self._committed_graph
        if graph.add_edges(sorted({(edge.source, edge.target) for edge in active})):
            graph.add_node(candidate_id)
            # The candidate's side of each edge; the other side committed.
            nodes = self._nodes[candidate_id]
            nodes.add(candidate_id)
            for edge in active:
                if edge.earlier_tx == candidate_id:
                    nodes.add(edge.source)
                if edge.later_tx == candidate_id:
                    nodes.add(edge.target)
            return SchedulerResponse.grant()
        self.validation_aborts += 1
        return SchedulerResponse.abort(
            "validation failed: committing would create a precedence cycle"
        )

    def on_transaction_commit(self, info: ExecutionInfo) -> None:
        transaction_id = info.top_level_id
        self.commits += 1
        self._live_transactions.discard(transaction_id)
        self._resolve_seq[transaction_id] = next(self._sequence)
        # Its sibling nodes name its own executions, which issue no more
        # steps, so no later edge reaches them: they go now.  Its top-level
        # node stays until collect_garbage finds nothing open reaches it.
        # It never revalidates, so its own edge file is done; edges shared
        # with live peers stay filed under them.
        self._committed_graph.remove_nodes(self._nodes[transaction_id] - {transaction_id})
        self._nodes[transaction_id] = {transaction_id}
        self._pending_edges.pop(transaction_id, None)
        self._note_wakeups(self.gate.finish(transaction_id, committed=True))

    def on_transaction_abort(self, info: ExecutionInfo, subtree: tuple[str, ...]) -> None:
        transaction_id = info.top_level_id
        self._live_transactions.discard(transaction_id)
        self._begin_seq.pop(transaction_id, None)
        self._steps.drop(transaction_id)
        # Un-file the aborted transaction's candidate edges on both sides.
        for edge in self._pending_edges.pop(transaction_id, ()):
            other = edge.other(transaction_id)
            if other != transaction_id and other in self._pending_edges:
                self._pending_edges[other].discard(edge)
        # A failed candidate never merged its trial edges, but one that
        # validated and then aborted (a cross-shard abort after its yes vote)
        # did: drop every node it owns.
        self._committed_graph.remove_nodes(self._nodes.pop(transaction_id, ()))
        self._note_wakeups(self.gate.finish(transaction_id, committed=False))

    # -- live-state garbage collection ---------------------------------------------

    def collect_garbage(self) -> int:
        """Prune committed records and graph nodes nothing open can reach.

        The kernel's frontier GC (:meth:`PrecedenceDag.prune_unreachable`,
        DESIGN.md "Precedence DAG kernel") with this scheduler's notion of
        an *open* node — one that can still gain an in-edge.  A new in-edge
        of a committed transaction T needs another transaction with a step
        before one of T's, i.e. one that began before T resolved; so T's
        nodes are open until every such overlapper has resolved.  The open
        nodes are therefore those of the live transactions and of the
        committed ones whose resolve stamp is later than the oldest live
        begin stamp; every other committed transaction is *closed*.

        The kernel drops every node no open node reaches; a closed
        transaction whose top-level node (a commit leaves it no other) is
        not kept loses its step records and its bookkeeping.  Edges already
        *filed* under live peers survive (they were discovered while the
        records existed and re-add a fresh, in-edge-free node at
        validation, which cannot close a cycle), so decisions are
        unchanged — only memory shrinks, which is what keeps week-long
        streams O(in-flight) instead of O(total arrivals).

        Returns:
            The number of pruned step records.
        """
        oldest_live = min((self._begin_seq[t] for t in self._live_transactions), default=None)
        closed = [
            t for t, seq in self._resolve_seq.items() if oldest_live is None or seq < oldest_live
        ]
        if not closed:
            return 0  # every retained transaction is still overlapped
        closing = set(closed)
        _, keep = self._committed_graph.prune_unreachable(
            [node for t, nodes in self._nodes.items() if t not in closing for node in nodes]
        )
        removed = 0
        for transaction_id in closed:
            if transaction_id not in keep:
                removed += self._steps.drop(transaction_id)
                self._nodes.pop(transaction_id, None)
                del self._resolve_seq[transaction_id]
                self._begin_seq.pop(transaction_id, None)
        self.gc_pruned_records += removed
        return removed

    def live_state_size(self) -> int:
        """Retained items: step records, filed edges, graph nodes/edges, gate."""
        return (
            len(self._steps)
            + sum(len(edges) for edges in self._pending_edges.values())
            + self._committed_graph.size()
            + self.gate.live_state_size()
        )

    # -- descriptive ------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "level": self.level,
            "restart_policy": self.restart_policy.name,
            "validation_aborts": self.validation_aborts,
            "committed": self.commits,
            "classified_pairs": self.classified_pairs,
            "gc_pruned_records": self.gc_pruned_records,
            **self.gate.describe(),
        }
