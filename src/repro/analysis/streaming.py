"""The certifier: ``SG(h)`` and Theorem 5, checked commit by commit.

The :class:`StreamingCertifier` is the one implementation of the
certification checks, run two ways.  Online (``certify="stream"``) the
engine feeds it each transaction as it commits and garbage-collects its
window, which stays O(in-flight).  Post hoc,
:func:`~repro.analysis.certify.certify_history` feeds it every transaction
of a finished history in commit order and never collects, so everything
is retained.  Either way:

* every committed transaction's subtree is snapshotted at commit time
  (its steps and message intervals are final the moment it commits) and
  its local steps are classified against the retained window of earlier
  committed steps;
* Definition 9 draws a type (a) edge between *every* incomparable pair of
  ancestors, so an edge between two transactions' executions comes with
  the edge between their top-levels, and type (b) edges never leave a
  transaction: ``SG(h)`` is acyclic iff its *top-level projection* is and
  every transaction's own subgraph is.  The projection is one
  :class:`~repro.core.dag.PrecedenceDag` grown through ``add_edges`` (the
  first refused batch is the first cycle), pruned with ``remove_nodes``
  and marked with ``descendants``.  A subtree that satisfies Definition 6
  condition 2a and the containment form of 2c, and whose messages are
  totally ordered, has only type (b) edges inside it and acyclic message
  relations; any other transaction gets a small DAG of its own and
  Theorem 5(b)'s ``->_e`` in full.  The execution-level graph and Theorem
  5(a)'s per-object graphs are built once, by :meth:`finalise`, from what
  GC retained;
* legality (Definition 6, condition 3) is checked by replaying each
  object's committed steps in stamp order — but only the *stable prefix*:
  a step is replayed once every live transaction began after it, because
  any step a future commit could contribute carries a later stamp;
* a rolling serial order is emitted (see :meth:`_emit_ready`) and
  transactions that are certified, emitted and unreachable from the
  *frontier* are pruned, which keeps the retained window O(in-flight +
  GC interval) — the window-soundness argument is sketched in DESIGN.md
  ("Streaming certification") and mirrors the optimistic certifier's
  ``collect_garbage``.

The contract is that the online :meth:`finalise` report equals the
post-hoc one of the same run bit-for-bit on its verdicts (``legal``,
``serialisable``, ``theorem5_holds``), counters, ``serial_order``,
``cycle`` and ``violations``.  The one deliberate exception is
``sg_edges``: GC drops edges incident to pruned transactions (they can
never rejoin a cycle), so online it is the *retained* edge count.  Both
runs are held against the definitional certification of
``tests/oracles/certify.py``: online in
``tests/analysis/test_streaming_certification.py``, post hoc in
``tests/analysis/test_one_certifier.py``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple

from ..core.conflicts import PerObjectConflicts
from ..core.dag import PrecedenceDag, cyclic_nodes
from ..core.executions import MethodExecution, natural_execution_key
from ..core.operations import LocalStep
from ..core.state import ObjectState

Edge = tuple[str, str]


@dataclass
class CertificationReport:
    """Verdicts of certifying one run's committed projection."""

    legal: bool
    serialisable: bool
    theorem5_holds: bool
    violations: list[str] = field(default_factory=list)
    committed_transactions: int = 0
    committed_executions: int = 0
    committed_local_steps: int = 0
    sg_nodes: int = 0
    sg_edges: int = 0
    serial_order: tuple[str, ...] = ()
    #: Sorted execution ids on some serialisation-graph cycle (the nodes of
    #: the graph's non-trivial strongly connected components), or ``None``
    #: when the graph is acyclic.  The node *set* is canonical — unlike a
    #: single reported cycle it does not depend on edge insertion order —
    #: so an online and a post-hoc report can be compared bit-for-bit.
    cycle: tuple[str, ...] | None = None

    @property
    def correct(self) -> bool:
        """True when the run passed every check."""
        return self.legal and self.serialisable and self.theorem5_holds

    def as_dict(self) -> dict[str, Any]:
        return {
            "legal": self.legal,
            "serialisable": self.serialisable,
            "theorem5_holds": self.theorem5_holds,
            "correct": self.correct,
            "violations": list(self.violations),
            "committed_transactions": self.committed_transactions,
            "committed_executions": self.committed_executions,
            "committed_local_steps": self.committed_local_steps,
            "sg_nodes": self.sg_nodes,
            "sg_edges": self.sg_edges,
            "serial_order": list(self.serial_order),
            "cycle": None if self.cycle is None else list(self.cycle),
        }


@dataclass
class Theorem5Report:
    """The two conditions of Theorem 5: (a) per object, (b) per execution."""

    holds: bool
    cyclic_objects: list[str] = field(default_factory=list)
    cyclic_executions: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:  # pragma: no cover - trivial
        return self.holds


class _StepEntry(NamedTuple):
    """One retained committed local step: the classification window's unit.
    Entries order by ``(stamp, step_id)``: temporal order, ties broken."""

    stamp: int
    step_id: int
    step: LocalStep
    execution_id: str
    top_id: str


class _Subtree:
    """One committed transaction's execution forest, indexed on its own records."""

    __slots__ = ("by_id", "chain", "child_of")

    def __init__(self, executions: Iterable[MethodExecution]):
        self.by_id = by_id = {execution.execution_id: execution for execution in executions}
        # Ancestor chain per execution, nearest parent first, including the
        # execution itself; ids outside the subtree end the walk, matching
        # ``History.ancestors`` on the subtree-only history.  Chains are a
        # handful of ids deep, so the tuple doubles as a membership set.
        self.chain: dict[str, tuple[str, ...]] = {}
        self.child_of: dict[int, str] = {}
        for execution_id, execution in by_id.items():
            if execution.invoking_step_id is not None:
                self.child_of.setdefault(execution.invoking_step_id, execution_id)
            chain = [execution_id]
            parent_id = execution.parent_id
            while parent_id is not None and parent_id in by_id:
                chain.append(parent_id)
                parent_id = by_id[parent_id].parent_id
            self.chain[execution_id] = tuple(chain)

    def descendants(self, execution_id: str) -> list[str]:
        return [other for other, chain in self.chain.items() if execution_id in chain]

    def structure_edges(self) -> Iterator[Edge]:
        """Definition 9's type (b) edges: for messages ``m prec m'`` of one
        execution, every descendant of ``B(m)`` before every one of ``B(m')``."""
        for execution in self.by_id.values():
            messages = execution.message_steps()
            for first in messages:
                first_child = self.child_of.get(first.step_id)
                if first_child is None:
                    continue
                for second in messages:
                    second_child = self.child_of.get(second.step_id)
                    if second_child is not None and execution.program_precedes(first, second):
                        for source in self.descendants(first_child):
                            for target in self.descendants(second_child):
                                yield source, target


def _incomparable(
    chain: Mapping[str, tuple[str, ...]], sources: Iterable[str], targets: Iterable[str]
) -> Iterator[Edge]:
    """Pairs of ``sources`` x ``targets`` neither of which is an ancestor of the other."""
    for source in sources:
        source_chain = chain[source]
        for target in targets:
            if target not in source_chain and source not in chain[target]:
                yield source, target


def _sequential_and_nested(
    executions: Iterable[MethodExecution], intervals: Mapping[int, tuple[int, int]]
) -> bool:
    """Whether a committed subtree needs no intra-transaction check.

    True when Definition 6 condition 2a holds, the containment form of 2c
    holds (each child's steps lie inside its invoking message's interval,
    as ``HistoryBuilder`` builds them) and every execution's messages are
    totally ordered by programme order (each after the previous one, as
    sequential code records them).  Then everything under the earlier of
    two messages ends before the later one starts, so every conflict edge
    inside the transaction is a type (b) edge and ``->_e`` is the
    programme order.  2a is checked on the generating pairs, which implies
    it on their closure because no interval ends before it starts.
    ``False`` only costs the general path (:meth:`StreamingCertifier._check_transaction`).
    """
    for execution in executions:
        for after, befores in execution.program_order_items():
            second = intervals.get(after)
            if second is None:
                return False
            start = second[0]
            for before in befores:
                first = intervals.get(before)
                if first is None or first[1] >= start:
                    return False
        if execution.invoking_step_id is not None:
            envelope = intervals.get(execution.invoking_step_id)
            if envelope is None:
                return False
            low, high = envelope
            for step_id in execution.step_ids_iter():
                interval = intervals.get(step_id)
                if interval is None or interval[0] < low or interval[1] > high:
                    return False
        if not execution.is_sequential():  # else the messages are ordered
            previous = None
            for message in execution.message_steps():
                if previous is not None and not execution.program_precedes(previous, message):
                    return False
                previous = message
    return True


class StreamingCertifier:
    """Maintain the certification verdicts of a run while it is running.

    The engine drives the four lifecycle hooks (:meth:`note_begin`,
    :meth:`note_commit`, :meth:`note_abort`, :meth:`collect_garbage`) and
    calls :meth:`finalise` once, after the last event; post-hoc
    certification calls only :meth:`note_commit` and :meth:`finalise`.
    The certifier is a pure observer: it never influences scheduling, so a
    run with ``certify="stream"`` is bit-identical to the same run without
    it.

    Top-level ids must be begun in :func:`natural_execution_key` order
    (``HistoryBuilder`` numbers them ``T1, T2, ...``); the rolling
    serial-order emission relies on every future transaction carrying a
    larger key than every existing one.

    Args:
        conflicts: the step-level conflict registry of the run's history.
        initial_states: initial object states for the legality replay.
    """

    def __init__(
        self,
        conflicts: PerObjectConflicts,
        initial_states: Mapping[str, ObjectState] | None = None,
    ):
        self._conflicts = conflicts
        # Per-object leaf ``steps_conflict`` methods: the window scan tests
        # every retained pair on one object, so the ``PerObjectConflicts``
        # dispatch (name compare + registry lookup) is hoisted out of the
        # pair loops once per object.
        self._conflict_fn: dict[str, Callable[[LocalStep, LocalStep], bool]] = {}
        # -- live transactions -------------------------------------------------
        self._live_begin: dict[str, int] = {}
        # :func:`natural_execution_key` of every live or not yet emitted
        # top-level, computed once and dropped when it aborts or is emitted.
        self._keys: dict[str, tuple] = {}
        # -- the retained committed window ------------------------------------
        # SG(h)'s top-level projection over every retained committed
        # transaction, and each one's subtree records for :meth:`finalise`.
        self._projection = PrecedenceDag()
        self._steps_by_object: dict[str, list[_StepEntry]] = {}
        self._resolve_stamp: dict[str, int] = {}
        self._txn_executions: dict[str, tuple[MethodExecution, ...]] = {}
        # -- rolling serial order ---------------------------------------------
        # The projection's edges among unemitted committed top-levels, as
        # Kahn's worklist (emission pops nodes the projection keeps).
        self._top_succ: dict[str, set[str]] = {}
        self._top_pred: dict[str, set[str]] = {}
        self._order: list[str] = []
        # -- legality (stable-prefix replay) ----------------------------------
        self._replay_states: dict[str, ObjectState] = {
            name: state for name, state in (initial_states or {}).items()
        }
        # Per object, a heap of the entries not yet replayed (never empty).
        self._pending_replay: dict[str, list[_StepEntry]] = {}
        # First replay mismatch per object, in ``History.replay``'s exact
        # wording: the post-hoc checker raises on the alphabetically first
        # illegal object's first bad step, and :meth:`finalise` reproduces
        # that single violation bit-for-bit.
        self._legality_first: dict[str, str] = {}
        # -- verdict accumulators (monotone) ----------------------------------
        self._cycle_detected = False
        self._cyclic_executions: set[str] = set()
        self._committed_transactions = 0
        self._committed_executions = 0
        self._committed_local_steps = 0
        #: GC telemetry, public for the window-bound tests.
        self.gc_passes = 0
        self.gc_pruned = 0
        #: Theorem 5's verdicts by object and execution, set by :meth:`finalise`.
        self.theorem5: Theorem5Report | None = None
        self._finalised: CertificationReport | None = None

    # -- lifecycle hooks -------------------------------------------------------

    def note_begin(self, top_id: str, begin_stamp: int) -> None:
        """A top-level transaction (or a restart attempt) began."""
        self._live_begin[top_id] = begin_stamp
        self._keys[top_id] = natural_execution_key(top_id)

    def note_abort(self, top_id: str) -> None:
        """A live transaction aborted: it will never contribute steps.

        An abort changes nothing about the pending-emission graph; it can
        only move the settle threshold, and only when the aborted
        transaction held the oldest live begin stamp — the one case worth
        re-running the emission scan for (aborts dominate events on
        contended streams, so this gate keeps them O(1)).
        """
        begin = self._live_begin.pop(top_id, None)
        if begin is None:
            return
        del self._keys[top_id]
        if not self._live_begin or begin < min(self._live_begin.values()):
            self._emit_ready()

    def note_commit(
        self,
        top_id: str,
        executions: Iterable[MethodExecution],
        intervals: Mapping[int, tuple[int, int]],
        resolve_stamp: int,
    ) -> None:
        """A transaction committed; fold its (now final) subtree in.

        Args:
            top_id: the committed top-level execution id.
            executions: every execution of the subtree (the top level and
                all its descendants), as the builder hands it over.
            intervals: the interval slice covering the subtree's steps
                (see :meth:`~repro.core.history.HistoryBuilder.forget`).
            resolve_stamp: the builder clock at commit time.
        """
        self._live_begin.pop(top_id, None)
        if top_id not in self._keys:  # post hoc: never begun
            self._keys[top_id] = natural_execution_key(top_id)
        executions = tuple(executions)
        self._resolve_stamp[top_id] = resolve_stamp
        self._top_succ[top_id] = set()
        self._top_pred[top_id] = set()
        # A transaction outside the fast-path shape keeps its own conflicting
        # pairs for :meth:`_check_transaction`; for every other one they are
        # type (b) edges already.
        own_pairs: list[tuple[_StepEntry, _StepEntry]] | None = (
            None if _sequential_and_nested(executions, intervals) else []
        )

        # Classify the new steps, in temporal order, against the retained
        # window (which grows to include this transaction's own earlier
        # steps, so intra-transaction witnesses are covered as well).  A pair
        # from two transactions only contributes its projection edge, so a
        # pair whose edge is already known needs no conflict test.
        new_entries = [
            _StepEntry(intervals[step.step_id][0], step.step_id, step, execution.execution_id, top_id)
            for execution in executions
            for step in execution.steps()
            if isinstance(step, LocalStep)
        ]
        new_entries.sort()
        preds: dict[str, None] = {}
        succs: dict[str, None] = {}
        steps_by_object = self._steps_by_object
        pending_replay = self._pending_replay
        conflict_fn = self._conflict_fn
        heappush = heapq.heappush
        for entry in new_entries:
            stamp, _, step, _, _ = entry
            object_name = step.object_name
            conflict = conflict_fn.get(object_name)
            if conflict is None:
                conflict = conflict_fn[object_name] = self._conflicts[
                    object_name
                ].steps_conflict
            window = steps_by_object.get(object_name)
            if window is None:
                window = steps_by_object[object_name] = []
            for other in window:
                other_top = other.top_id
                if other.stamp < stamp:
                    if other_top == top_id:
                        if own_pairs is not None and conflict(other.step, step):
                            own_pairs.append((other, entry))
                    elif other_top not in preds and conflict(other.step, step):
                        preds[other_top] = None
                elif other_top == top_id:
                    if own_pairs is not None and conflict(step, other.step):
                        own_pairs.append((entry, other))
                elif other_top not in succs and conflict(step, other.step):
                    succs[other_top] = None
            window.append(entry)
            pending = pending_replay.get(object_name)
            if pending is None:
                pending_replay[object_name] = [entry]
            else:
                heappush(pending, entry)
        if own_pairs is not None:
            self._check_transaction(_Subtree(executions), intervals, own_pairs)

        # In-edges first: while this node has no out-edge, their searches
        # for a way back stop at once.
        edges = [(source, top_id) for source in preds]
        edges.extend((top_id, target) for target in succs)
        if edges:
            if not self._projection.add_edges(edges):
                self._cycle_detected = True
            else:
                top_succ, top_pred = self._top_succ, self._top_pred
                for source, target in edges:
                    if source in top_succ and target in top_succ:
                        top_succ[source].add(target)
                        top_pred[target].add(source)

        self._committed_transactions += 1
        self._committed_executions += len(executions)
        self._committed_local_steps += len(new_entries)
        self._txn_executions[top_id] = executions
        # Serial-order emission is deferred to the GC pass (and to
        # :meth:`finalise`): emittability is monotone — settled stays
        # settled, in-degrees only fall, and the key floor only rises —
        # so batching the scan every ``gc_interval`` commits changes no
        # emitted order, only when it becomes visible, and keeps the
        # per-commit path free of the O(pending tops) rescan.

    def _check_transaction(
        self,
        subtree: _Subtree,
        intervals: Mapping[int, tuple[int, int]],
        own_pairs: list[tuple[_StepEntry, _StepEntry]],
    ) -> None:
        """The intra-transaction half of ``SG(h)`` and Theorem 5(b), in full.

        The transaction's own subgraph is its type (b) edges plus the type
        (a) edges of its own conflicting pairs, complete at commit (a later
        commit only adds edges between transactions).  ``->_e`` orders two
        messages when programme order does, or when conflicting descendant
        steps do temporally.
        """
        chain = subtree.chain
        edges = list(subtree.structure_edges())
        for first, second in own_pairs:
            edges.extend(_incomparable(chain, chain[first.execution_id], chain[second.execution_id]))
        if not PrecedenceDag().add_edges(edges):
            self._cycle_detected = True
        for execution in subtree.by_id.values():
            messages = execution.message_steps()
            if len(messages) < 2:
                continue
            local_buckets: dict[int, dict[str, list[LocalStep]]] = {}
            for message in messages:
                buckets: dict[str, list[LocalStep]] = {}
                child_id = subtree.child_of.get(message.step_id)
                if child_id is not None:
                    for descendant_id in subtree.descendants(child_id):
                        for step in subtree.by_id[descendant_id].local_steps():
                            buckets.setdefault(step.object_name, []).append(step)
                local_buckets[message.step_id] = buckets
            relation = [
                (first.step_id, second.step_id)
                for first in messages
                for second in messages
                if first is not second
                and (
                    execution.program_precedes(first, second)
                    or self._messages_conflict_ordered(
                        local_buckets[first.step_id], local_buckets[second.step_id], intervals
                    )
                )
            ]
            if not PrecedenceDag().add_edges(relation):
                self._cyclic_executions.add(execution.execution_id)

    def _messages_conflict_ordered(
        self,
        first_buckets: Mapping[str, list[LocalStep]],
        second_buckets: Mapping[str, list[LocalStep]],
        intervals: Mapping[int, tuple[int, int]],
    ) -> bool:
        """True when a descendant step of the first message temporally
        precedes and conflicts (in either direction) with one of the
        second's — the conflict clause of Theorem 5(b)'s ``->_e``."""
        conflict_fn = self._conflict_fn
        for object_name, first_steps in first_buckets.items():
            second_steps = second_buckets.get(object_name)
            if not second_steps:
                continue
            conflict = conflict_fn.get(object_name)
            if conflict is None:
                conflict = conflict_fn[object_name] = self._conflicts[
                    object_name
                ].steps_conflict
            for first_step in first_steps:
                first_end = intervals[first_step.step_id][1]
                for second_step in second_steps:
                    if first_end >= intervals[second_step.step_id][0]:
                        continue
                    if conflict(first_step, second_step) or conflict(
                        second_step, first_step
                    ):
                        return True
        return False

    # -- rolling serial order --------------------------------------------------

    def _settle_threshold(self) -> int | None:
        """Stamps at or below this are final; ``None`` means everything is.

        Any step a live transaction (or one not yet begun) can still
        contribute is stamped strictly after the oldest live begin, so a
        committed transaction whose resolve stamp is at or below it can
        never gain another in-edge (the frontier argument of DESIGN.md).
        """
        if not self._live_begin:
            return None
        return min(self._live_begin.values())

    def _emit_ready(self) -> None:
        """Append every decidable transaction to the rolling serial order.

        A pending top-level ``u`` is decidable when (a) it is *settled* —
        no future edge can enter it, (b) it has in-degree 0 among the
        unemitted committed tops, and (c) its key is smaller than that of
        every live top and every unsettled committed top (any of which
        could still become ready before ``u``'s position is fixed; blocked
        *settled* tops cannot, and not-yet-begun transactions always carry
        larger keys).  Under these conditions ``u`` is provably the next
        node the final lexicographic topological sort pops.
        """
        if self._cycle_detected:
            return
        threshold = self._settle_threshold()

        def settled(top: str) -> bool:
            return threshold is None or self._resolve_stamp[top] <= threshold

        top_succ = self._top_succ
        top_pred = self._top_pred
        keys = self._keys
        floor_keys = [keys[top] for top in self._live_begin]
        floor_keys.extend(keys[top] for top in top_succ if not settled(top))
        floor = min(floor_keys, default=None)
        ready = [(keys[top], top) for top in top_succ if not top_pred[top] and settled(top)]
        heapq.heapify(ready)
        while ready and (floor is None or ready[0][0] < floor):
            _, top = heapq.heappop(ready)
            self._order.append(top)
            del keys[top]
            successors = top_succ.pop(top)
            del top_pred[top]
            for successor in successors:
                pred = top_pred[successor]
                pred.discard(top)
                if not pred and settled(successor):
                    heapq.heappush(ready, (keys[successor], successor))

    # -- legality --------------------------------------------------------------

    def _replay_stable_prefix(self, threshold: int | None) -> None:
        """Replay committed steps up to ``threshold`` (all of them if None)."""
        for object_name, pending in self._pending_replay.items():
            state = self._replay_states.get(object_name, ObjectState())
            while pending and (threshold is None or pending[0].stamp <= threshold):
                step = heapq.heappop(pending).step
                value, state = step.operation.apply(state)
                if (
                    value != step.return_value
                    and not step.is_abort()
                    and object_name not in self._legality_first
                ):
                    self._legality_first[object_name] = (
                        f"step {step.step_id} of object {object_name!r} recorded "
                        f"return value {step.return_value!r} but replay produced {value!r}"
                    )
            self._replay_states[object_name] = state
        for object_name in [name for name, pending in self._pending_replay.items() if not pending]:
            del self._pending_replay[object_name]

    # -- garbage collection ----------------------------------------------------

    def collect_garbage(self) -> int:
        """Prune emitted transactions nothing live or future can reach back to.

        A committed transaction is retained while it is in the *frontier*
        (some live transaction began before it resolved — only then can it
        gain new in-edges), while its top-level is still awaiting serial-
        order emission, or while it is forward-reachable from a frontier
        transaction in the projection (a future cycle's path into the
        pruned region would have to pass through a frontier transaction
        first; a path of ``SG(h)`` between executions maps onto one between
        their top-levels and back, so marking the projection marks the
        transactions that marking ``SG(h)`` would).  Everything else can
        never rejoin a cycle and is dropped.  Frozen after the first cycle
        so the violating nodes survive to :meth:`finalise`.
        """
        threshold = self._settle_threshold()
        self._replay_stable_prefix(threshold)
        self._emit_ready()
        self.gc_passes += 1
        if self._cycle_detected:
            return 0
        frontier = {
            top
            for top, resolve in self._resolve_stamp.items()
            if threshold is not None and resolve > threshold
        }
        if len(frontier) == len(self._resolve_stamp):
            return 0

        marked = self._projection.descendants(frontier)
        pruned_txns: set[str] = set()
        pruned = 0
        for top in list(self._resolve_stamp):
            if top in frontier or top in self._top_succ or top in marked:
                continue
            pruned_txns.add(top)
            del self._resolve_stamp[top]
            pruned += len(self._txn_executions.pop(top))
        if pruned_txns:
            self._projection.remove_nodes(pruned_txns)
            self._steps_by_object = {
                object_name: kept
                for object_name, window in self._steps_by_object.items()
                if (kept := [entry for entry in window if entry.top_id not in pruned_txns])
            }
        self.gc_pruned += pruned
        return pruned

    def top_level_edges(self) -> set[Edge]:
        """The retained top-level projection of ``SG(h)``.

        Post hoc nothing is collected, so while the projection is acyclic
        these are all of its edges; the first refused batch is missing.
        """
        return self._projection.edges()

    # -- gauge -----------------------------------------------------------------

    def live_state_size(self) -> int:
        """Retained items, sampled into the engine's bounded-memory gauge."""
        return (
            sum(len(window) for window in self._steps_by_object.values())
            + sum(len(pending) for pending in self._pending_replay.values())
            + self._projection.size()
            + len(self._top_succ)
            + len(self._live_begin)
        )

    # -- finalisation ----------------------------------------------------------

    def _retained_graphs(self, per_object: bool) -> tuple[set[Edge], dict[str, list[Edge]]]:
        """``SG(h)`` over what GC retained and, if asked, Theorem 5(a)'s graphs.

        Replays the classification over the retained windows in insertion
        order — every retained pair was met by :meth:`note_commit` when its
        later step arrived — and rebuilds the type (b) edges from the
        retained subtrees, so the edges are the ones the retained part of
        ``SG(h)`` holds.  Every Theorem 5(a) edge is an ``SG(h)`` edge, so
        those graphs matter only when ``SG(h)`` is cyclic, and GC has pruned
        nothing since the first cycle.
        """
        chain: dict[str, tuple[str, ...]] = {}
        object_of: dict[str, str] = {}
        sg_edges: set[Edge] = set()
        for executions in self._txn_executions.values():
            subtree = _Subtree(executions)
            chain.update(subtree.chain)
            sg_edges.update(subtree.structure_edges())
            for execution in executions:
                object_of[execution.execution_id] = execution.object_name
        object_edges: dict[str, list[Edge]] = {}
        for object_name, window in self._steps_by_object.items():
            conflict = self._conflict_fn[object_name]
            for index, entry in enumerate(window):
                for other in window[:index]:
                    if other.stamp < entry.stamp:
                        if not conflict(other.step, entry.step):
                            continue
                        first_id, second_id = other.execution_id, entry.execution_id
                    elif conflict(entry.step, other.step):
                        first_id, second_id = entry.execution_id, other.execution_id
                    else:
                        continue
                    # Definition 9, type (a): between every incomparable ancestor pair.
                    first_chain, second_chain = chain[first_id], chain[second_id]
                    sg_edges.update(_incomparable(chain, first_chain, second_chain))
                    if not per_object or first_id in second_chain or second_id in first_chain:
                        continue
                    # Definition 10: a local edge between the issuing executions,
                    # mapped up to every incomparable proper-ancestor pair
                    # sharing an object.
                    object_edges.setdefault(object_name, []).append((first_id, second_id))
                    for source, target in _incomparable(chain, first_chain[1:], second_chain[1:]):
                        if object_of[source] == object_of[target]:
                            object_edges.setdefault(object_of[source], []).append((source, target))
        return sg_edges, object_edges

    def finalise(self) -> CertificationReport:
        """The rolling report, completed.

        Transactions still live at this point never committed (e.g. the
        run was truncated): the committed projection excludes them, so
        they are dropped before the remaining steps are replayed and the
        remaining serial order is emitted.
        """
        if self._finalised is not None:
            return self._finalised
        self._live_begin.clear()
        self._replay_stable_prefix(None)
        self._emit_ready()

        legal = not self._legality_first
        serialisable = not self._cycle_detected
        sg_edges, object_edges = self._retained_graphs(per_object=not serialisable)
        cycle: tuple[str, ...] | None = None
        serial_order: tuple[str, ...] = ()
        if serialisable:
            serial_order = tuple(self._order)
        else:
            cycle = cyclic_nodes(sg_edges)
        cyclic_objects = sorted(
            name for name, edges in object_edges.items() if not PrecedenceDag().add_edges(edges)
        )
        cyclic_executions = sorted(self._cyclic_executions)
        self.theorem5 = Theorem5Report(
            not cyclic_objects and not cyclic_executions, cyclic_objects, cyclic_executions
        )

        # ``History.check_legal`` raises at the alphabetically first
        # illegal object; reproduce exactly that one violation string.
        violations = (
            ["legality: " + self._legality_first[min(self._legality_first)]]
            if self._legality_first
            else []
        )
        if not serialisable:
            violations.append("serialisation graph contains a cycle")
        if cyclic_objects:
            violations.append("Theorem 5(a) violated for objects: " + ", ".join(cyclic_objects))
        if cyclic_executions:
            violations.append(
                "Theorem 5(b) violated for executions: " + ", ".join(cyclic_executions)
            )

        self._finalised = CertificationReport(
            legal=legal,
            serialisable=serialisable,
            theorem5_holds=self.theorem5.holds,
            violations=violations,
            committed_transactions=self._committed_transactions,
            committed_executions=self._committed_executions,
            committed_local_steps=self._committed_local_steps,
            sg_nodes=self._committed_executions,
            sg_edges=len(sg_edges),
            serial_order=serial_order,
            cycle=cycle,
        )
        return self._finalised
