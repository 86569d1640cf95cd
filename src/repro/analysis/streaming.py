"""Online certification: grow ``SG(h)`` at commit time, O(new work) per commit.

Post-hoc certification (:func:`~repro.analysis.certify.certify_run`)
certifies the *whole* committed projection after the run, so it needs the
whole history retained and delivers no verdict until the end (its cost
is near-linear since Definition 6 condition 2c became an envelope sweep;
DESIGN.md "Certification complexity").  The :class:`StreamingCertifier`
does the same checks as the run progresses instead, on a window that
stays O(in-flight):

* every committed transaction's subtree is snapshotted at commit time
  (its steps and message intervals are final the moment it commits) and
  its local steps are classified against the retained window of earlier
  committed steps;
* Definition 9's type (a)/(b) edges, Theorem 5(a)'s per-object combined
  graphs and Theorem 5(b)'s message relations are all maintained (or, for
  the intra-transaction parts, evaluated once on a small per-transaction
  ``History``).  Both graph families live in the precedence-DAG kernel
  (:class:`~repro.core.dag.PrecedenceDag`): this module is its one
  *observer* — it keeps the edge that closes a cycle and reports it — so
  it grows them with ``insert`` and asks ``reaches`` once per new edge
  until the first hit, prunes with ``remove_nodes`` and marks with
  ``descendants``.  The only adjacency kept here is the pending-emission
  worklist of :meth:`_emit_ready`, which is Kahn's in-degree table rather
  than a precedence graph;
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

The contract, enforced by the property tests in
``tests/analysis/test_streaming_certification.py``, is that
:meth:`finalise` returns a :class:`~repro.analysis.certify.CertificationReport`
whose verdicts (``legal``, ``serialisable``, ``theorem5_holds``), counters,
``serial_order``, ``cycle`` and ``violations`` equal the post-hoc report of
the same run bit-for-bit.  The one deliberate exception is ``sg_edges``:
the streaming graph drops edges incident to pruned transactions (they can
never rejoin a cycle), so it reports the *retained* edge count.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Mapping

import networkx as nx

from ..core.conflicts import PerObjectConflicts
from ..core.dag import PrecedenceDag
from ..core.executions import MethodExecution
from ..core.operations import LocalStep
from ..core.state import ObjectState
from ..core.theorems import natural_execution_key
from .certify import CertificationReport, cyclic_nodes


class _StepEntry:
    """One retained committed local step: the classification window's unit."""

    __slots__ = ("stamp", "step", "execution_id", "top_id")

    def __init__(self, stamp: int, step: LocalStep, execution_id: str, top_id: str):
        self.stamp = stamp
        self.step = step
        self.execution_id = execution_id
        self.top_id = top_id


class StreamingCertifier:
    """Maintain the certification verdicts of a run while it is running.

    The engine drives the four lifecycle hooks (:meth:`note_begin`,
    :meth:`note_commit`, :meth:`note_abort`, :meth:`collect_garbage`) and
    calls :meth:`finalise` once, after the last event.  The certifier is a
    pure observer: it never influences scheduling, so a run with
    ``certify="stream"`` is bit-identical to the same run without it.

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
        # -- the retained committed window ------------------------------------
        # SG(h) over every retained committed execution, and Theorem 5(a)'s
        # combined graphs, one per object that has an edge.
        self._sg = PrecedenceDag()
        self._object_graphs: dict[str, PrecedenceDag] = {}
        self._steps_by_object: dict[str, list[_StepEntry]] = {}
        # Ancestor chain per execution, nearest parent first, including the
        # execution itself.  Chains are a handful of ids deep, so the same
        # tuple doubles as the membership set in the hot classification
        # loops (tuple scans beat frozenset construction at these sizes).
        self._chain: dict[str, tuple[str, ...]] = {}
        self._object_of: dict[str, str] = {}
        self._resolve_stamp: dict[str, int] = {}
        self._txn_executions: dict[str, tuple[str, ...]] = {}
        # -- rolling serial order ---------------------------------------------
        # Unemitted committed top-levels: Kahn's worklist, not a precedence graph.
        self._top_succ: dict[str, set[str]] = {}
        self._top_pred: dict[str, set[str]] = {}
        self._order: list[str] = []
        # -- legality (stable-prefix replay) ----------------------------------
        self._replay_states: dict[str, ObjectState] = {
            name: state for name, state in (initial_states or {}).items()
        }
        self._pending_replay: dict[str, list[tuple[int, int, LocalStep]]] = {}
        # First replay mismatch per object, in ``History.replay``'s exact
        # wording: the post-hoc checker raises on the alphabetically first
        # illegal object's first bad step, and :meth:`finalise` reproduces
        # that single violation bit-for-bit.
        self._legality_first: dict[str, str] = {}
        # -- verdict accumulators (monotone) ----------------------------------
        self._cycle_detected = False
        self._cyclic_objects: set[str] = set()
        self._cyclic_executions: set[str] = set()
        self._committed_transactions = 0
        self._committed_executions = 0
        self._committed_local_steps = 0
        #: GC telemetry, public for the window-bound tests.
        self.gc_passes = 0
        self.gc_pruned = 0
        self._finalised: CertificationReport | None = None

    # -- lifecycle hooks -------------------------------------------------------

    def note_begin(self, top_id: str, begin_stamp: int) -> None:
        """A top-level transaction (or a restart attempt) began."""
        self._live_begin[top_id] = begin_stamp

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
                all its descendants), snapshotted from the builder.
            intervals: the interval slice covering the subtree's steps
                (see :meth:`~repro.core.history.HistoryBuilder.intervals_for`).
            resolve_stamp: the builder clock at commit time.
        """
        self._live_begin.pop(top_id, None)
        executions = list(executions)
        # Register the top-level before installing any edges: edges into
        # this very transaction are discovered during its own
        # classification below, and :meth:`_note_sg_edge` only mirrors a
        # top-top edge into the pending-emission graph when both endpoints
        # are already registered.
        self._resolve_stamp[top_id] = resolve_stamp
        self._top_succ[top_id] = set()
        self._top_pred[top_id] = set()
        # The subtree's ancestry forest, computed directly on the records
        # (building a per-commit ``History`` for these lookups dominated
        # the certifier's cost; the structure is a tree of a handful of
        # executions, so plain dict walks are far cheaper).
        by_id = {execution.execution_id: execution for execution in executions}
        children_by_step: dict[int, str] = {}
        children_index: dict[str, list[str]] = {}
        for execution in executions:
            execution_id = execution.execution_id
            parent_id = execution.parent_id
            if parent_id is not None and parent_id in by_id:
                children_index.setdefault(parent_id, []).append(execution_id)
            if execution.invoking_step_id is not None:
                children_by_step.setdefault(execution.invoking_step_id, execution_id)
            # Ancestor chain, nearest parent first (ids outside the
            # committed subtree terminate the walk, matching
            # ``History.ancestors`` on the subtree-only history).
            chain = [execution_id]
            current = parent_id
            while current is not None and current in by_id:
                chain.append(current)
                current = by_id[current].parent_id
            self._chain[execution_id] = tuple(chain)
            self._object_of[execution_id] = execution.object_name
            self._sg.add_node(execution_id)

        # Each execution's local steps are consulted by the message-relation
        # buckets below and again when building the window entries; snapshot
        # the lists once instead of re-filtering the step sequence each time.
        local_steps_of = {
            execution_id: execution.local_steps()
            for execution_id, execution in by_id.items()
        }

        descendants: dict[str, tuple[str, ...]] = {}

        def descendants_of(execution_id: str) -> tuple[str, ...]:
            cached = descendants.get(execution_id)
            if cached is None:
                collected = [execution_id]
                frontier = [execution_id]
                while frontier:
                    for child in children_index.get(frontier.pop(), ()):
                        collected.append(child)
                        frontier.append(child)
                cached = descendants[execution_id] = tuple(collected)
            return cached

        # Type (b) structure edges (intra-transaction by construction:
        # between descendants of two programme-ordered messages) and
        # Theorem 5(b)'s message relation ->_e, both evaluated directly on
        # the subtree.  ``->_e`` orders two messages when programme order
        # does, or when conflicting descendant steps do temporally.
        sg_insert = self._sg.insert
        for execution in executions:
            messages = execution.message_steps()
            if len(messages) < 2:
                continue
            local_buckets: dict[int, dict[str, list[LocalStep]]] = {}
            for message in messages:
                buckets: dict[str, list[LocalStep]] = {}
                child_id = children_by_step.get(message.step_id)
                if child_id is not None:
                    for descendant_id in descendants_of(child_id):
                        for step in local_steps_of[descendant_id]:
                            buckets.setdefault(step.object_name, []).append(step)
                local_buckets[message.step_id] = buckets
            relation: list[tuple[int, int]] = []
            for first_message in messages:
                for second_message in messages:
                    if first_message.step_id == second_message.step_id:
                        continue
                    if execution.program_precedes(first_message, second_message):
                        relation.append((first_message.step_id, second_message.step_id))
                        first_child = children_by_step.get(first_message.step_id)
                        second_child = children_by_step.get(second_message.step_id)
                        if first_child is not None and second_child is not None:
                            # Type (b) edges connect two disjoint, freshly
                            # registered subtrees along the programme order
                            # (a series-parallel partial order), so they can
                            # neither close a cycle nor touch the top-level
                            # mirror — install them without the per-edge
                            # path check :meth:`_note_sg_edge` pays.
                            for source in descendants_of(first_child):
                                for target in descendants_of(second_child):
                                    sg_insert(source, target)
                        continue
                    if self._messages_conflict_ordered(
                        local_buckets[first_message.step_id],
                        local_buckets[second_message.step_id],
                        intervals,
                    ):
                        relation.append((first_message.step_id, second_message.step_id))
            if not PrecedenceDag().add_edges(relation):
                self._cyclic_executions.add(execution.execution_id)

        # Type (a) conflict edges + Theorem 5(a) local/mesg edges: classify
        # the new steps, in temporal order, against the retained window
        # (which grows to include this transaction's own earlier steps, so
        # intra-transaction witnesses are covered as well).
        new_entries = sorted(
            (
                _StepEntry(intervals[step.step_id][0], step, execution_id, top_id)
                for execution_id, steps in local_steps_of.items()
                for step in steps
            ),
            key=lambda entry: (entry.stamp, entry.step.step_id),
        )
        steps_by_object = self._steps_by_object
        pending_replay = self._pending_replay
        conflict_fn = self._conflict_fn
        classify = self._classify_conflict
        heappush = heapq.heappush
        for entry in new_entries:
            step = entry.step
            stamp = entry.stamp
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
                if other.stamp < stamp:
                    if conflict(other.step, step):
                        classify(other, entry)
                elif conflict(step, other.step):
                    classify(entry, other)
            window.append(entry)
            heappush(
                pending_replay.setdefault(object_name, []),
                (stamp, step.step_id, step),
            )

        self._committed_transactions += 1
        self._committed_executions += len(executions)
        self._committed_local_steps += len(new_entries)
        self._txn_executions[top_id] = tuple(execution.execution_id for execution in executions)
        # Serial-order emission is deferred to the GC pass (and to
        # :meth:`finalise`): emittability is monotone — settled stays
        # settled, in-degrees only fall, and the key floor only rises —
        # so batching the scan every ``gc_interval`` commits changes no
        # emitted order, only when it becomes visible, and keeps the
        # per-commit path free of the O(pending tops) rescan.

    # -- edge installation -----------------------------------------------------

    def _note_sg_edge(self, source: str, target: str) -> None:
        """Bookkeeping for an SG(h) edge ``insert`` reported as new."""
        if not self._cycle_detected and self._sg.reaches(target, source):
            self._cycle_detected = True
        # "." never appears in a top-level id, so this spots top-top edges.
        if "." not in source and "." not in target:
            top_out = self._top_succ.get(source)
            if top_out is not None and target in self._top_succ and target not in top_out:
                top_out.add(target)
                self._top_pred[target].add(source)

    def _object_add_edge(self, object_name: str, source: str, target: str) -> None:
        graph = self._object_graphs.get(object_name)
        if graph is None:
            graph = self._object_graphs[object_name] = PrecedenceDag()
        if (
            graph.insert(source, target)
            and object_name not in self._cyclic_objects
            and graph.reaches(target, source)
        ):
            self._cyclic_objects.add(object_name)

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

    def _classify_conflict(self, first: _StepEntry, second: _StepEntry) -> None:
        """Install every edge witnessed by the ordered conflicting pair.

        Incomparability (neither execution an ancestor of the other) is
        checked with direct ``_chain`` tuple scans — this method is the
        streaming hot path, so it calls the kernel's ``insert`` directly
        and does its own bookkeeping only for an edge that is new.
        """
        chain = self._chain
        first_id = first.execution_id
        second_id = second.execution_id
        first_chain = chain[first_id]
        second_chain = chain[second_id]
        sg_insert = self._sg.insert
        # Definition 9, type (a): between every incomparable ancestor pair.
        for source in first_chain:
            source_chain = chain[source]
            for target in second_chain:
                if (
                    source != target
                    and target not in source_chain
                    and source not in chain[target]
                    and sg_insert(source, target)
                ):
                    self._note_sg_edge(source, target)
        # Definition 10: a local edge between the issuing executions, mapped
        # up to every incomparable proper-ancestor pair sharing an object.
        if first_id in chain[second_id] or second_id in chain[first_id]:
            return
        self._object_add_edge(first.step.object_name, first_id, second_id)
        object_of = self._object_of
        for source in first_chain[1:]:
            source_object = object_of[source]
            source_chain = chain[source]
            for target in second_chain[1:]:
                if (
                    object_of[target] == source_object
                    and source != target
                    and target not in source_chain
                    and source not in chain[target]
                ):
                    self._object_add_edge(source_object, source, target)

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
        floor_keys = [natural_execution_key(top) for top in self._live_begin]
        floor_keys.extend(
            natural_execution_key(top) for top in top_succ if not settled(top)
        )
        floor = min(floor_keys, default=None)
        ready = [
            (natural_execution_key(top), top)
            for top in top_succ
            if not top_pred[top] and settled(top)
        ]
        heapq.heapify(ready)
        while ready and (floor is None or ready[0][0] < floor):
            _, top = heapq.heappop(ready)
            self._order.append(top)
            successors = top_succ.pop(top)
            del top_pred[top]
            for successor in successors:
                pred = top_pred[successor]
                pred.discard(top)
                if not pred and settled(successor):
                    heapq.heappush(ready, (natural_execution_key(successor), successor))

    # -- legality --------------------------------------------------------------

    def _replay_stable_prefix(self, threshold: int | None) -> None:
        """Replay committed steps up to ``threshold`` (all of them if None)."""
        for object_name, pending in self._pending_replay.items():
            if not pending:
                continue
            state = self._replay_states.get(object_name, ObjectState())
            while pending and (threshold is None or pending[0][0] <= threshold):
                _, _, step = heapq.heappop(pending)
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

    # -- garbage collection ----------------------------------------------------

    def collect_garbage(self) -> int:
        """Prune emitted transactions nothing live or future can reach back to.

        A committed transaction is retained while it is in the *frontier*
        (some live transaction began before it resolved — only then can it
        gain new in-edges), while its top-level is still awaiting serial-
        order emission, or while it is forward-reachable from a frontier
        transaction's nodes (a future cycle's path into the pruned region
        would have to pass through a frontier node first).  Everything else
        can never rejoin a cycle and is dropped.  Frozen after the first
        cycle so the violating nodes survive to :meth:`finalise`.
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

        # Frontier nodes are marked along with what they reach; harmless,
        # frontier transactions are skipped below before the mark is read.
        marked = self._sg.descendants(
            execution_id for top in frontier for execution_id in self._txn_executions[top]
        )

        pruned_txns: set[str] = set()
        pruned = 0
        for top in list(self._resolve_stamp):
            if top in frontier or top in self._top_succ:
                continue
            if any(execution_id in marked for execution_id in self._txn_executions[top]):
                continue
            pruned_txns.add(top)
            del self._resolve_stamp[top]
            executions = self._txn_executions.pop(top)
            self._sg.remove_nodes(executions)
            for execution_id in executions:
                # An object graph holds executions of that object only.
                graph = self._object_graphs.get(self._object_of.pop(execution_id))
                if graph is not None:
                    graph.remove_nodes((execution_id,))
                del self._chain[execution_id]
            pruned += len(executions)
        if pruned_txns:
            for object_name, window in self._steps_by_object.items():
                self._steps_by_object[object_name] = [
                    entry for entry in window if entry.top_id not in pruned_txns
                ]
        self.gc_pruned += pruned
        return pruned

    # -- gauge -----------------------------------------------------------------

    def live_state_size(self) -> int:
        """Retained items, sampled into the engine's bounded-memory gauge."""
        return (
            sum(len(window) for window in self._steps_by_object.values())
            + sum(len(pending) for pending in self._pending_replay.values())
            + self._sg.size()
            + sum(graph.size() for graph in self._object_graphs.values())
            + len(self._top_succ)
            + len(self._live_begin)
        )

    # -- finalisation ----------------------------------------------------------

    def finalise(self) -> CertificationReport:
        """The rolling report, completed; equals the post-hoc verdict.

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
        sg_edges = self._sg.edges()
        cycle: tuple[str, ...] | None = None
        serial_order: tuple[str, ...] = ()
        if serialisable:
            serial_order = tuple(self._order)
        else:
            # Only here does networkx enter: one graph build for the SCC
            # computation shared with the post-hoc certifier.
            graph = nx.DiGraph()
            graph.add_edges_from(sg_edges)  # an isolated node is on no cycle
            cycle = cyclic_nodes(graph)

        # ``History.check_legal`` raises at the alphabetically first
        # illegal object; reproduce exactly that one violation string.
        violations = (
            ["legality: " + self._legality_first[min(self._legality_first)]]
            if self._legality_first
            else []
        )
        if not serialisable:
            violations.append("serialisation graph contains a cycle")
        if self._cyclic_objects:
            violations.append(
                "Theorem 5(a) violated for objects: " + ", ".join(sorted(self._cyclic_objects))
            )
        if self._cyclic_executions:
            violations.append(
                "Theorem 5(b) violated for executions: "
                + ", ".join(sorted(self._cyclic_executions))
            )

        self._finalised = CertificationReport(
            legal=legal,
            serialisable=serialisable,
            theorem5_holds=not self._cyclic_objects and not self._cyclic_executions,
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
