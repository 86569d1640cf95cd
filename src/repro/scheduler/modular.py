"""Modular concurrency control: intra-object plus inter-object synchronisation.

Section 2 and Section 5.3 of the paper propose splitting concurrency
control into two cooperating parts:

* **intra-object synchronisation** — each object serialises the method
  executions operating on its own variables, with whatever algorithm suits
  its semantics best (locking for a register, timestamp ordering for a
  log, key-granularity locking for a B-tree, ...);
* **inter-object synchronisation** — a base-wide mechanism that ensures the
  per-object serialisation orders are mutually compatible, which Theorem 5
  characterises as keeping ``SG_local ∪ SG_mesg`` acyclic for every object
  and the message relation ``->_e`` acyclic for every execution.

:class:`ModularScheduler` realises exactly that split.  Every object is
given its own :class:`IntraObjectSynchroniser` (per-object locking,
per-object timestamp ordering, or a B-tree-specific key-locking variant;
the object definition may name its preference).  The inter-object
coordinator maintains, online, the sibling-level projection of the
serialisation graph: whenever a newly granted step conflicts with an
earlier step of an incomparable execution it adds the induced edge between
their *disjoint ancestors* (the children of their least common ancestor, or
their top-level transactions when they are unrelated) and aborts the
requester if the edge would close a cycle.  The coordinator can be switched
off (``inter_object_checks=False``) to demonstrate experimentally that
intra-object serialisability alone is *not* sufficient — the paper's
Section 2 example and experiment E4.

Waiting is neither half's business.  A blocking synchroniser's BLOCK, an
aca read the commit gate holds back and a commit that waits for its
read-from dependencies all go to the run's one waits-for relation
(:mod:`repro.core.waits`), which aborts the requester whose wait
would close a cycle — so a cycle through a lock wait and a commit wait is
seen as surely as one of lock waits alone, with no graph kept here.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Any, Callable

from ..core.conflicts import ConflictSpec
from ..core.dag import PrecedenceDag
from ..core.errors import UnknownObjectError
from ..core.operations import LocalStep
from ..core.records import StepRecords
from ..core.registry import LazyTable, resolve_component
from ..core.waits import DEADLOCK
from ..objectbase.base import ObjectBase
from .base import (
    STEP_LEVEL,
    ExecutionInfo,
    OperationRequest,
    Scheduler,
    SchedulerResponse,
    disjoint_ancestors,
)
from .recovery import CASCADE_MODE, CommitGate


# ---------------------------------------------------------------------------
# Intra-object synchronisers
# ---------------------------------------------------------------------------


class IntraObjectSynchroniser:
    """Serialises the method executions of a single object.

    One instance guards one object.  It sees only the operations addressed
    to that object and decides GRANT / BLOCK / ABORT; the commit/finish of a
    top-level transaction is forwarded to the synchronisers that saw a
    request from it, so each can release whatever state it keeps per
    transaction (one that never saw the transaction has none).
    """

    strategy = "abstract"

    def __init__(self, object_name: str, conflicts: ConflictSpec, step_level: bool = True):
        self.object_name = object_name
        self.conflicts = conflicts
        self.step_level = step_level

    # -- hooks ------------------------------------------------------------------

    def on_operation(self, request: OperationRequest) -> SchedulerResponse:
        return SchedulerResponse.grant()

    def on_operation_executed(self, request: OperationRequest, value: Any) -> None:
        """The operation executed and returned ``value``."""

    def on_commit_request(self, info: ExecutionInfo) -> SchedulerResponse:
        """The top-level transaction asks to commit (optimistic validation hook).

        Called once per commit request for every synchroniser that
        overrides it (the modular scheduler skips synchronisers that keep
        the default).  Returning an abort response vetoes the commit —
        the certifying strategy's backward-validation point.
        """
        return SchedulerResponse.grant()

    def on_transaction_committed(self, transaction_id: str) -> None:
        """The top-level transaction committed (fires before ``finished``)."""

    def on_transaction_finished(self, transaction_id: str) -> None:
        """The top-level transaction committed or aborted."""

    def collect_garbage(self) -> int:
        """Prune records no live or future transaction's decision can read.

        Called on the engine's garbage-collection cadence via
        :meth:`ModularScheduler.collect_garbage`.  Must be
        decision-invariant: a strategy may only drop state whose presence
        cannot change the outcome of any future :meth:`on_operation`.
        Lock-style strategies release at transaction end and keep nothing
        collectable.

        Returns:
            The number of pruned items (0 by default).
        """
        return 0

    def live_state_size(self) -> int:
        """Retained per-transaction items, for the engine's live-state gauge.

        Every concrete strategy must override this (the modular
        scheduler's gauge sums it polymorphically); the stateless base
        retains nothing.
        """
        return 0

    # -- helpers ------------------------------------------------------------------

    def _items_conflict(self, held, requested) -> bool:
        return self.conflicts.conflicting(held, requested, self.step_level)

    def _item_of(self, request: OperationRequest):
        return request.provisional_step if self.step_level else request.operation

    def describe(self) -> dict[str, Any]:
        return {"object": self.object_name, "strategy": self.strategy}


class IntraObjectLocking(IntraObjectSynchroniser):
    """Per-object two-phase locking, locks held until transaction end.

    Locks belong to top-level transactions (not individual nested
    executions), which keeps the object-local protocol simple: comparable
    executions of the same transaction never block each other, incomparable
    ones do when their operations/steps conflict.
    """

    strategy = "locking"

    def __init__(self, object_name: str, conflicts: ConflictSpec, step_level: bool = True):
        super().__init__(object_name, conflicts, step_level)
        self._held: dict[str, list] = defaultdict(list)

    def on_operation(self, request: OperationRequest) -> SchedulerResponse:
        requested = self._item_of(request)
        transaction_id = request.info.top_level_id
        blockers = {
            holder_id
            for holder_id, items in self._held.items()
            if holder_id != transaction_id
            and any(self._items_conflict(item, requested) for item in items)
        }
        if blockers:
            return SchedulerResponse.block(
                f"intra-object lock conflict on {self.object_name}", blockers=blockers
            )
        self._held[transaction_id].append(requested)
        return SchedulerResponse.grant()

    def on_transaction_finished(self, transaction_id: str) -> None:
        self._held.pop(transaction_id, None)

    def live_state_size(self) -> int:
        return sum(len(items) for items in self._held.values())


class IntraObjectTimestampOrdering(IntraObjectSynchroniser):
    """Per-object timestamp ordering using transaction arrival timestamps."""

    strategy = "timestamp"

    def __init__(self, object_name: str, conflicts: ConflictSpec, step_level: bool = True):
        super().__init__(object_name, conflicts, step_level)
        self._records: list[tuple[Any, int, str]] = []  # (item, timestamp, transaction)
        self._timestamps: dict[str, int] = {}
        self._clock = itertools.count(1)

    def _timestamp_of(self, transaction_id: str) -> int:
        if transaction_id not in self._timestamps:
            self._timestamps[transaction_id] = next(self._clock)
        return self._timestamps[transaction_id]

    def on_operation(self, request: OperationRequest) -> SchedulerResponse:
        transaction_id = request.info.top_level_id
        timestamp = self._timestamp_of(transaction_id)
        requested = self._item_of(request)
        for item, recorded_timestamp, recorded_transaction in self._records:
            if recorded_transaction == transaction_id:
                continue
            if recorded_timestamp > timestamp and self._items_conflict(item, requested):
                return SchedulerResponse.abort(
                    f"intra-object timestamp violation on {self.object_name}"
                )
        return SchedulerResponse.grant()

    def on_operation_executed(self, request: OperationRequest, value: Any) -> None:
        transaction_id = request.info.top_level_id
        timestamp = self._timestamp_of(transaction_id)
        item = (
            LocalStep(request.info.execution_id, request.object_name, request.operation, value)
            if self.step_level
            else request.operation
        )
        self._records.append((item, timestamp, transaction_id))

    def on_transaction_finished(self, transaction_id: str) -> None:
        self._timestamps.pop(transaction_id, None)

    def collect_garbage(self) -> int:
        """Watermark pruning: drop records below every live timestamp.

        ``_timestamps`` holds exactly the unresolved transactions that
        touched this object, and any transaction yet to touch it will draw
        a fresh (strictly larger) timestamp — so a record stamped below
        ``min(live timestamps)`` can never again satisfy the abort
        condition ``recorded_timestamp > requester_timestamp`` and is dead
        weight (the NTO watermark argument, object-locally).
        """
        before = len(self._records)
        watermark = min(self._timestamps.values(), default=None)
        if watermark is None:
            self._records.clear()
        else:
            self._records[:] = [
                record for record in self._records if record[1] >= watermark
            ]
        return before - len(self._records)

    def live_state_size(self) -> int:
        return len(self._records) + len(self._timestamps)


class IntraObjectCertifier(IntraObjectSynchroniser):
    """Per-object optimistic certification (backward validation at commit).

    The optimist's end of the strategy spectrum: operations are granted
    immediately and never block, so an uncontended object pays no lock
    table or timestamp bookkeeping on the hot path.  The price is paid at
    commit: a transaction validates against every transaction that
    committed on this object after it first touched the object, and is
    aborted when any of those installed a conflicting item (classic
    first-committer-wins backward validation, object-locally).  Under
    contention whole executions are wasted at the commit point — exactly
    the trade the adaptive manager (:mod:`repro.scheduler.adaptive`)
    exploits by promoting hot objects towards blocking strategies.

    Global serialisability never rests on this class: with the
    inter-object coordinator on, the precedence-graph check already
    orders every conflicting pair across all objects.  The certifier is
    the object's *local* serialisation discipline, kept honest so the
    modular split's intra-object half still does its job per Section 2.
    """

    strategy = "certifier"

    def __init__(self, object_name: str, conflicts: ConflictSpec, step_level: bool = True):
        super().__init__(object_name, conflicts, step_level)
        self._seq = itertools.count(1)
        self._started: dict[str, int] = {}
        self._items: dict[str, list] = defaultdict(list)
        self._committed: list[tuple[tuple, int]] = []  # (items, commit seq)
        self.certification_aborts = 0

    def on_operation(self, request: OperationRequest) -> SchedulerResponse:
        transaction_id = request.info.top_level_id
        if transaction_id not in self._started:
            self._started[transaction_id] = next(self._seq)
        return SchedulerResponse.grant()

    def on_operation_executed(self, request: OperationRequest, value: Any) -> None:
        item = (
            LocalStep(request.info.execution_id, request.object_name, request.operation, value)
            if self.step_level
            else request.operation
        )
        self._items[request.info.top_level_id].append(item)

    def on_commit_request(self, info: ExecutionInfo) -> SchedulerResponse:
        transaction_id = info.top_level_id
        mine = self._items.get(transaction_id)
        if not mine:
            return SchedulerResponse.grant()
        started = self._started[transaction_id]
        for committed_items, commit_seq in self._committed:
            if commit_seq <= started:
                continue
            for committed_item in committed_items:
                for item in mine:
                    # Conservative both-direction check: any conflict with a
                    # transaction that committed during our window invalidates.
                    if self._items_conflict(committed_item, item) or self._items_conflict(
                        item, committed_item
                    ):
                        self.certification_aborts += 1
                        return SchedulerResponse.abort(
                            f"intra-object certification failure on "
                            f"{self.object_name}: conflicting transaction "
                            f"committed first"
                        )
        return SchedulerResponse.grant()

    def on_transaction_committed(self, transaction_id: str) -> None:
        items = self._items.get(transaction_id)
        if items:
            self._committed.append((tuple(items), next(self._seq)))

    def on_transaction_finished(self, transaction_id: str) -> None:
        self._started.pop(transaction_id, None)
        self._items.pop(transaction_id, None)

    def collect_garbage(self) -> int:
        """Watermark pruning of the committed window.

        A committed entry stamped at or below every live transaction's
        start can never again satisfy ``commit_seq > started`` for any
        current or future validator (future transactions draw strictly
        larger start stamps), so dropping it is decision-invariant.
        """
        before = len(self._committed)
        watermark = min(self._started.values(), default=None)
        if watermark is None:
            self._committed.clear()
        else:
            self._committed[:] = [
                entry for entry in self._committed if entry[1] > watermark
            ]
        return before - len(self._committed)

    def live_state_size(self) -> int:
        return (
            len(self._started)
            + sum(len(items) for items in self._items.values())
            + sum(len(items) for items, _ in self._committed)
        )


class BTreeKeyLocking(IntraObjectLocking):
    """Key-granularity locking for B-tree index objects.

    Structurally this is :class:`IntraObjectLocking`; the concurrency gain
    comes from the B-tree's own conflict specification, which declares
    operations on distinct keys non-conflicting, so the lock table keeps
    key-level entries — the object-specific algorithm the paper's Section 2
    envisages for dictionary objects.
    """

    strategy = "btree-key-locking"


INTRA_STRATEGIES: LazyTable = LazyTable(
    __name__,
    {
        "locking": ":IntraObjectLocking",
        "timestamp": ":IntraObjectTimestampOrdering",
        "certifier": ":IntraObjectCertifier",
        "btree-key-locking": ":BTreeKeyLocking",
        "pass-through": ":IntraObjectSynchroniser",
    },
)


def make_intra_strategy(
    spec: Any, object_name: str, conflicts: ConflictSpec, step_level: bool = True
) -> IntraObjectSynchroniser:
    """Build an intra-object synchroniser from a uniform component spec.

    Accepts the same ``name | {"name", ...kwargs} | instance`` shapes as
    every other registry (:func:`repro.core.registry.resolve_component`),
    so ``default_strategy``, ``per_object_strategy`` maps and the adaptive
    scheduler's policy ladder share one contract.  A ready instance is returned unchanged
    and must already be bound to ``object_name``.

    Raises:
        KeyError: on an unknown strategy name.
        TypeError: on a malformed specification, or an instance bound to
            a different object.
    """
    synchroniser = resolve_component(
        INTRA_STRATEGIES,
        spec,
        kind="intra-object strategy",
        instance_of=IntraObjectSynchroniser,
        construction_args=(object_name, conflicts, step_level),
    )
    if synchroniser.object_name != object_name:
        raise TypeError(
            f"intra-object strategy instance is bound to "
            f"{synchroniser.object_name!r}, not {object_name!r}"
        )
    return synchroniser


# ---------------------------------------------------------------------------
# Inter-object coordination
# ---------------------------------------------------------------------------


class InterObjectCoordinator:
    """Maintains the sibling-level serialisation order across all objects.

    Every granted step is compared against earlier conflicting steps of
    incomparable executions; the induced ordering edges must keep the
    precedence graph acyclic, otherwise the requesting transaction is
    aborted.  This is the "more complex and stringent inter-object
    synchronisation" the paper trades for per-object freedom.
    """

    def __init__(self, conflicts_lookup: Callable[[str], ConflictSpec], step_level: bool = True):
        self._conflicts_lookup = conflicts_lookup
        self._step_level = step_level
        # (step, info) per granted step, until an abort or the GC drops it.
        self._steps = StepRecords()
        self._precedence = PrecedenceDag()
        # Live top-level id -> the precedence nodes it owns: itself and the
        # sibling-level executions its edges name.  These are the graph's
        # *open* nodes, the roots of the frontier GC.
        self._live: dict[str, set[str]] = {}
        self.ordering_aborts = 0

    def check_step(self, request: OperationRequest) -> SchedulerResponse:
        """Decide whether admitting the step keeps the global order acyclic."""
        # In recorded-step order (the kernel skips repeats), so the kernel's
        # work counters are a deterministic function of the run.
        new_edges: list[tuple[str, str]] = []
        sibling_nodes: set[str] = set()
        requester = request.info.top_level_id
        provisional = request.provisional_step
        spec = self._conflicts_lookup(request.object_name)
        for owner, (recorded_step, recorded_info) in self._steps.on(request.object_name):
            pair = disjoint_ancestors(recorded_info, request.info)
            if pair is None:
                continue
            # Only "earlier conflicts with later" induces a serialisation edge.
            if spec.conflicting(recorded_step, provisional, self._step_level):
                new_edges.append(pair)
                if owner == requester:
                    # Two executions of one transaction: the pair names
                    # children of their common ancestor, not top-level ids.
                    sibling_nodes.update(pair)
        if self._precedence.add_edges(new_edges):
            if sibling_nodes and requester in self._live:
                self._live[requester] |= sibling_nodes
            return SchedulerResponse.grant()
        self.ordering_aborts += 1
        return SchedulerResponse.abort(
            "inter-object ordering violation: admitting the step would make the "
            "serialisation orders of different objects incompatible"
        )

    def record_step(self, request: OperationRequest, value: Any) -> None:
        step = LocalStep(
            request.info.execution_id, request.object_name, request.operation, value
        )
        self._steps.add(request.object_name, request.info.top_level_id, (step, request.info))

    def note_begin(self, transaction_id: str) -> None:
        """A top-level transaction became live (tracked for the frontier GC)."""
        self._live[transaction_id] = {transaction_id}

    def note_finished(self, transaction_id: str) -> None:
        """The transaction resolved; its node stays until the GC frontier passes it."""
        self._live.pop(transaction_id, None)

    def collect_garbage(self) -> int:
        """Frontier GC over the precedence graph and the recorded steps.

        Resolved transactions that no live transaction can reach in the
        precedence graph can never participate in a future cycle (the
        frontier argument: DESIGN.md, "Precedence DAG kernel"), so their
        nodes, edges and recorded steps — the only source of new edges
        out of them — are dropped together.  The frontier is every node a
        live transaction owns, not only its top-level id: a child execution
        of a live transaction can still gain an in-edge from a sibling, so
        the order between two siblings must survive a pass.
        Decision-invariant by construction: only the memory profile
        changes, never an abort verdict.
        """
        open_nodes = set().union(*self._live.values())
        removed, keep = self._precedence.prune_unreachable(open_nodes)
        keep |= self._live.keys()
        return removed + self._steps.retain(lambda transaction, _: transaction in keep)

    def live_state_size(self) -> int:
        """Recorded steps plus precedence nodes/edges still retained."""
        return len(self._steps) + self._precedence.size()

    def forget_transaction(self, transaction_id: str, subtree_ids: set[str]) -> None:
        """Drop an aborted transaction's steps and precedence nodes."""
        self._steps.drop(transaction_id)
        self._precedence.remove_nodes(subtree_ids)

    def describe(self) -> dict[str, int]:
        """Decision counters: the verdict count and the kernel's work."""
        return {"ordering_aborts": self.ordering_aborts, **self._precedence.counters()}


# ---------------------------------------------------------------------------
# The modular scheduler
# ---------------------------------------------------------------------------


class ModularScheduler(Scheduler):
    """Per-object intra-object synchronisers plus an inter-object coordinator."""

    name = "modular"

    def __init__(
        self,
        default_strategy: Any = "locking",
        per_object_strategy: dict[str, Any] | None = None,
        inter_object_checks: bool = True,
        level: str = STEP_LEVEL,
        restart_policy: Any = "immediate",
        gate_mode: str = CASCADE_MODE,
    ):
        self.level = level
        self.gate_mode = gate_mode
        self.default_strategy = default_strategy
        self.per_object_strategy = dict(per_object_strategy or {})
        # A strategy spec is valid when it builds; an object's own conflict
        # specification is needed only at attach, so try an inert one now.
        for strategy_spec in (default_strategy, *self.per_object_strategy.values()):
            if not isinstance(strategy_spec, IntraObjectSynchroniser):
                make_intra_strategy(strategy_spec, "", ConflictSpec())
        self.inter_object_checks = inter_object_checks
        super().__init__(restart_policy=restart_policy)

    # -- wiring ---------------------------------------------------------------

    def _reset(self) -> None:
        super()._reset()
        # Empty until :meth:`attach` derives them from the object base; the
        # coordinator stays ``None`` without inter-object checks, and the
        # gate is used only beside a coordinator.
        self._synchronisers: dict[str, IntraObjectSynchroniser] = {}
        self._commit_checkers: list[IntraObjectSynchroniser] = []
        self._coordinator: InterObjectCoordinator | None = None
        # top-level id -> objects whose synchroniser saw a request from it
        # (insertion-ordered), so resolution notifies only those.
        self._objects_of: dict[str, dict[str, None]] = {}
        # Intra-object synchronisers are free to execute against uncommitted
        # state (timestamp ordering does); the gate keeps committed histories
        # recoverable regardless of the per-object strategy mix.  It belongs
        # to the *inter-object* half of the split, so the intra-only
        # configuration — the paper's deliberately insufficient baseline —
        # runs without it.
        self.gate = CommitGate.for_scheduler(self)
        self.deadlocks_detected = 0
        self.blocked_requests = 0
        self.gc_pruned_records = 0

    def attach(self, object_base: ObjectBase) -> None:
        super().attach(object_base)
        registry = self.conflicts_for(self.level)
        step_level = self.level == STEP_LEVEL
        for object_name in object_base.object_names(include_environment=True):
            definition = object_base.definition(object_name)
            strategy_spec = (
                self.per_object_strategy.get(object_name)
                or definition.intra_object_synchroniser
                or self.default_strategy
            )
            self._synchronisers[object_name] = make_intra_strategy(
                strategy_spec, object_name, registry[object_name], step_level
            )
        self._refresh_commit_checkers()
        if self.inter_object_checks:
            self._coordinator = InterObjectCoordinator(lambda name: registry[name], step_level)

    def _refresh_commit_checkers(self) -> None:
        # Only synchronisers that override the default (always-grant)
        # commit hook are consulted on the commit path, so the common
        # locking/timestamp configurations pay nothing for it.
        self._commit_checkers = [
            synchroniser
            for synchroniser in self._synchronisers.values()
            if type(synchroniser).on_commit_request
            is not IntraObjectSynchroniser.on_commit_request
        ]

    def synchroniser_for(self, object_name: str) -> IntraObjectSynchroniser:
        try:
            return self._synchronisers[object_name]
        except KeyError:
            # Historically this silently handed out a locking synchroniser,
            # which masked typos and out-of-base accesses; unknown objects
            # are a caller error, exactly like the eager attach-time path.
            raise UnknownObjectError(
                f"no intra-object synchroniser for unknown object "
                f"{object_name!r}; attached objects: "
                f"{', '.join(sorted(self._synchronisers)) or '(none)'}"
            ) from None

    # -- scheduling --------------------------------------------------------------

    def on_transaction_begin(self, info: ExecutionInfo) -> None:
        if self._coordinator is not None:
            self._coordinator.note_begin(info.top_level_id)
            self.gate.begin(info.top_level_id)

    def _count_wait(self, response: SchedulerResponse) -> SchedulerResponse:
        """Count a blocked request the waits-for relation answered (an ABORT: a deadlock)."""
        self.blocked_requests += 1
        if response.aborted:
            self.deadlocks_detected += 1
        return response

    def on_operation(self, request: OperationRequest) -> SchedulerResponse:
        intra = self.synchroniser_for(request.object_name)
        self._objects_of.setdefault(request.info.top_level_id, {})[request.object_name] = None
        intra_response = intra.on_operation(request)
        if intra_response.blocked:
            return self._count_wait(self.waits.block(request.info.execution_id, intra_response))
        if intra_response.aborted:
            return intra_response

        if self._coordinator is not None:
            inter_response = self._coordinator.check_step(request)
            if not inter_response.granted:
                return inter_response
            gate_response = self.gate.check_operation(
                request.object_name, request.lock_item(self.level), request.info
            )
            if not gate_response.granted:
                return self._count_wait(gate_response)  # the gate asked the relation
        return SchedulerResponse.grant()

    def on_operation_executed(self, request: OperationRequest, value: Any) -> None:
        self.synchroniser_for(request.object_name).on_operation_executed(request, value)
        if self._coordinator is not None:
            self._coordinator.record_step(request, value)
            item = (
                LocalStep(request.info.execution_id, request.object_name, request.operation, value)
                if self.level == STEP_LEVEL
                else request.operation
            )
            self.gate.record_step(request.object_name, item, request.info.top_level_id)

    def _note_commit_veto(
        self, synchroniser: IntraObjectSynchroniser, response: SchedulerResponse
    ) -> None:
        """Hook: a synchroniser vetoed a commit (adaptive sampling taps this)."""

    def on_commit_request(self, info: ExecutionInfo) -> SchedulerResponse:
        for synchroniser in self._commit_checkers:
            response = synchroniser.on_commit_request(info)
            if not response.granted:
                self._note_commit_veto(synchroniser, response)
                return response
        if self._coordinator is None:
            return SchedulerResponse.grant()
        response = self.gate.check_commit(info.top_level_id)
        # The gate's commit wait enters the one relation the lock waits are
        # in, so a commit wait that closes a lock-wait cycle is a deadlock.
        if response.aborted and response.reason.startswith(DEADLOCK):
            self.deadlocks_detected += 1
        return response

    def _finish_transaction(self, info: ExecutionInfo, *, committed: bool) -> None:
        # A synchroniser keeps per-transaction state only from the requests
        # it saw, so the others have nothing to release.
        for object_name in self._objects_of.pop(info.top_level_id, ()):
            synchroniser = self._synchronisers[object_name]
            if committed:
                synchroniser.on_transaction_committed(info.top_level_id)
            synchroniser.on_transaction_finished(info.top_level_id)
        if self._coordinator is not None:
            self._coordinator.note_finished(info.top_level_id)
        # Intra-object locks (held to transaction end) are now gone and any
        # read-from dependencies on this transaction are resolved.
        self._note_wakeups(self.gate.finish(info.top_level_id, committed=committed))

    def on_transaction_commit(self, info: ExecutionInfo) -> None:
        self._finish_transaction(info, committed=True)

    def on_transaction_abort(self, info: ExecutionInfo, subtree: tuple[str, ...]) -> None:
        self._finish_transaction(info, committed=False)
        if self._coordinator is not None:
            self._coordinator.forget_transaction(
                info.top_level_id, set(subtree) | {info.execution_id}
            )

    # -- live-state garbage collection ---------------------------------------------

    def collect_garbage(self) -> int:
        """Prune both halves of the split on the engine's GC cadence.

        The coordinator drops resolved transactions unreachable from the
        live frontier of its precedence graph (with their recorded steps),
        and each timestamp synchroniser drops records below its live
        watermark — so a long stream retains state proportional to the
        in-flight population, not to the total arrival count (ROADMAP
        item 5).  Both prunes are decision-invariant.
        """
        removed = sum(
            synchroniser.collect_garbage()
            for synchroniser in self._synchronisers.values()
        )
        if self._coordinator is not None:
            removed += self._coordinator.collect_garbage()
        self.gc_pruned_records += removed
        return removed

    def live_state_size(self) -> int:
        """Retained items across both halves of the modular split.

        Intra-object locks are released at transaction end and the gate
        prunes itself; the inter-object coordinator's recorded steps and
        precedence nodes and the per-object timestamp synchronisers'
        records persist until a garbage-collection pass proves them
        unreachable from the live frontier — the gauge reports whatever
        is retained *now*, so unbounded growth would still be visible.
        """
        size = sum(
            synchroniser.live_state_size()
            for synchroniser in self._synchronisers.values()
        )
        if self._coordinator is not None:
            size += self._coordinator.live_state_size() + self.gate.live_state_size()
        return size

    # -- descriptive ------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        strategies = {
            object_name: synchroniser.strategy
            for object_name, synchroniser in sorted(self._synchronisers.items())
        }
        if self._coordinator is not None:
            coordinator = self._coordinator.describe()
        else:  # intra-only, or not attached yet: no verdicts, an untouched kernel
            coordinator = {"ordering_aborts": 0, **PrecedenceDag().counters()}
        return {
            "name": self.name,
            "level": self.level,
            "restart_policy": self.restart_policy.name,
            "inter_object_checks": self.inter_object_checks,
            "strategies": strategies,
            **coordinator,
            "deadlocks_detected": self.deadlocks_detected,
            "blocked_requests": self.blocked_requests,
            "gc_pruned_records": self.gc_pruned_records,
            **self.gate.describe(),
        }
