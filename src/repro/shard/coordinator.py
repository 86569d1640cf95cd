"""Inter-shard coordination: the paper's modularity theorem, one level up.

The modular scheduler (``scheduler/modular.py``) composes *per-object*
synchronisers under an *inter-object* coordinator that only sees
transaction-level precedence.  Sharding applies the same construction at
the next level: each shard runs a complete scheduler over its own
objects (the "synchroniser" of the composition), and the
:class:`InterShardCoordinator` arbitrates only what crosses shard
boundaries — remote invocation routing, transaction-level precedence
edges, commit votes, and global commit/abort decisions.  The paper's
theorem would make the composition correct if the coordinator saw every
cross-shard precedence; it does not (it never hears of orders through
shard-local transactions), and per-shard certificates miss a cycle
through two shards (DESIGN.md, sharded limitation (i)).

Everything here is barrier-synchronous and deterministic: the driver
feeds one :class:`ShardReport` per shard to :meth:`process_round` in
shard-index order and ships the returned directives back, so no decision
depends on wall-clock, process identity or arrival order within a round.

Commit protocol (two-phase, optimistic presumed-abort); a barrier with
an open ballot runs apply, then ballot, then decide, then run:

* a cross-shard transaction that finishes its body is *held* on its home
  shard, which emits a ``("prepared", gid)`` note;
* at the barrier that sees the note, every participant (home included,
  :meth:`InterShardCoordinator.polls`) applies the barrier's directives,
  then answers commit / defer / abort from its local commit gate;
* :meth:`InterShardCoordinator.settle` decides before the next round
  runs: a unanimous ballot commits everywhere, any abort vote (or a
  locally-detected abort note) aborts everywhere, and a deferred ballot
  is polled again at the next barrier.  A vote and its decision are zero
  ticks apart on every shard.

Precedence and deadlock: each shard's :class:`ShardStepTracker` observes
the steps of cross-shard transactions and reports conflict edges
(recorded → requester) up to the coordinator, which accumulates them in
a transaction-level :class:`~repro.core.dag.PrecedenceDag`.  An edge
that would close a cycle aborts the requester — the same rule, the same
kernel and the same frontier GC as the modular scheduler's inter-object
coordinator.  Distributed stalls that produce no edges are broken by
aborting the *youngest* unresolved cross transaction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Sequence

from ..core.dag import PrecedenceDag
from ..core.errors import SimulationError
from ..core.operations import LocalStep
from .map import ShardMap

__all__ = ["ShardReport", "ShardStepTracker", "InterShardCoordinator"]

#: Abort reason used when the coordinator breaks a distributed stall.
STALL_REASON = "inter-shard stall: no shard progressed"

#: Abort reason used when a precedence edge would close a cross-shard cycle.
CYCLE_REASON = "inter-shard precedence cycle"


@dataclass
class ShardReport:
    """One shard's outcome for one round (plain, picklable data)."""

    index: int
    decisions: int
    tick: int
    busy: bool
    #: Lower bound on the tick of the shard's next message or note, absent
    #: further directives (0, the default, promises nothing).
    next_send: int = 0
    messages: list[tuple] = field(default_factory=list)
    notes: list[tuple] = field(default_factory=list)
    edges: list[tuple[str, str]] = field(default_factory=list)


class ShardStepTracker:
    """Per-shard observer turning cross-transaction steps into edges.

    The engine calls :meth:`note_step` for every executed step of a
    cross-shard transaction, home transaction or remote session alike.
    Conflicting steps of two different cross transactions on one object
    yield a precedence edge ``recorded → requester``, deduplicated here and
    drained into the round report.  A transaction's records go when it
    aborts or the coordinator's GC forgets it, so retained state is bounded
    by the live frontier, never by the history.
    """

    def __init__(self, step_conflicts: Any):
        self._conflicts = step_conflicts
        # object -> {record number: (gid, step)}, in recording order.
        self._steps: dict[str, dict[int, tuple[str, LocalStep]]] = {}
        self._numbers = itertools.count()
        self._emitted: set[tuple[str, str]] = set()
        self._edges: list[tuple[str, str]] = []
        # Per gid, its records and the emitted edges it is an endpoint of,
        # so forgetting a transaction touches only what it owns.
        self._records_of: dict[str, list[tuple[str, int]]] = {}
        self._edges_of: dict[str, list[tuple[str, str]]] = {}

    def note_step(self, info: Any, step: LocalStep) -> None:
        gid = info.top_level_id
        spec = self._conflicts[step.object_name]
        records = self._steps.setdefault(step.object_name, {})
        for other_gid, other_step in records.values():
            if other_gid != gid and spec.steps_conflict(other_step, step):
                edge = (other_gid, gid)
                if edge not in self._emitted:
                    self._emitted.add(edge)
                    self._edges.append(edge)
                    self._edges_of.setdefault(other_gid, []).append(edge)
                    self._edges_of.setdefault(gid, []).append(edge)
        number = next(self._numbers)
        records[number] = (gid, step)
        self._records_of.setdefault(gid, []).append((step.object_name, number))

    def forget(self, gid: str) -> None:
        """Drop a resolved transaction's records and emitted edges (O(its own))."""
        for object_name, number in self._records_of.pop(gid, ()):
            records = self._steps[object_name]
            del records[number]
            if not records:
                del self._steps[object_name]
        for edge in self._edges_of.pop(gid, ()):
            self._emitted.discard(edge)

    def drain_edges(self) -> list[tuple[str, str]]:
        edges, self._edges = self._edges, []
        return edges

    def live_records(self) -> int:
        return sum(len(records) for records in self._steps.values())


@dataclass
class _CrossTxn:
    """Coordinator-side state of one cross-shard transaction."""

    gid: str
    home: int
    sequence: int
    participants: set[int] = field(default_factory=set)
    state: str = "running"  # running -> voting -> resolved
    outcome: str = ""


class InterShardCoordinator:
    """Barrier-synchronous arbiter over the cross-shard transaction set."""

    def __init__(self, shard_map: ShardMap, *, gc_interval: int = 64):
        self._map = shard_map
        self._gc_interval = max(1, gc_interval)
        self._txns: dict[str, _CrossTxn] = {}
        # The open ballots (state "voting"), so a barrier walks only them.
        self._voting: dict[str, _CrossTxn] = {}
        self._sequence = itertools.count(1)
        # remote_id -> shard index awaiting the result.
        self._pending_results: dict[str, int] = {}
        self._precedence = PrecedenceDag()
        self._resolved_since_gc = 0
        self._last_tick: dict[int, int] = {}
        # Observability (surfaces in the sharded result's description).
        self.commits_decided = 0
        self.aborts_decided = 0
        self.stall_aborts = 0
        self.cycle_aborts = 0
        self.gc_pruned_records = 0

    # ------------------------------------------------------------------
    # Round processing
    # ------------------------------------------------------------------
    def process_round(self, reports: Sequence[ShardReport]) -> tuple[list[list[tuple]], bool]:
        """Ingest one round of shard reports; emit next-round directives.

        Returns ``(directives, progress)`` where ``directives[i]`` is the
        ordered list for shard ``i`` and ``progress`` reflects whether the
        fleet moved: scheduling decisions, tick advances, cross-shard
        messages, prepared/aborted notes, or abort resolutions.  Ballots
        are not settled here: the driver takes :meth:`polls` after this
        call and hands the answers to :meth:`settle`.
        """
        directives: list[list[tuple]] = [[] for _ in range(self._map.shards)]
        progress = False

        for report in sorted(reports, key=lambda entry: entry.index):
            if report.decisions or report.tick != self._last_tick.get(report.index):
                self._last_tick[report.index] = report.tick
                progress = True
            for message in report.messages:
                progress |= self._route_message(report.index, message, directives)
            for edge in report.edges:
                progress |= self._note_edge(edge, directives)
            for note in report.notes:
                progress |= self._ingest_note(report.index, note, directives)

        if self._resolved_since_gc >= self._gc_interval:
            self._collect(directives)
        return directives, progress

    def polls(self) -> list[list[str]]:
        """Per shard, the prepared gids it votes on at this barrier (home included).

        A ballot deferred at one barrier is polled again at the next.
        """
        polls: list[list[str]] = [[] for _ in range(self._map.shards)]
        for txn in self._ballots():
            for shard in self._voters(txn):
                polls[shard].append(txn.gid)
        return polls

    def settle(self, answers: Sequence[Sequence[tuple[str, str, str]]]) -> list[list[tuple]]:
        """Turn shard ``i``'s ``(gid, verdict, reason)`` answers into directives.

        Any abort vote aborts the transaction on every voter; a ballot every
        voter answered commit commits on every voter, in shard order; a
        deferred ballot gets no directive and stays open.
        """
        directives: list[list[tuple]] = [[] for _ in range(self._map.shards)]
        commits: dict[str, set[int]] = {}
        for shard, shard_answers in enumerate(answers):
            for gid, verdict, reason in shard_answers:
                txn = self._txns[gid]
                if txn.state != "voting":
                    continue  # an abort vote from a lower shard resolved it
                if verdict == "abort":
                    self._resolve_abort(txn, reason, directives)
                elif verdict == "commit":
                    commits.setdefault(gid, set()).add(shard)
        for txn in self._ballots():
            if commits.get(txn.gid) != self._voters(txn):
                continue
            del self._voting[txn.gid]
            txn.state = "resolved"
            txn.outcome = "committed"
            for shard in sorted(commits[txn.gid]):
                directives[shard].append(("commit", txn.gid))
            self.commits_decided += 1
            self._resolved_since_gc += 1
        return directives

    def break_stall(self) -> list[list[tuple]] | None:
        """Abort the youngest unresolved cross transaction, if any.

        Called by the driver after a zero-progress round while shards are
        still busy.  Returns abort directives, or ``None`` when no cross
        transaction is left to sacrifice — in that case the remaining
        frames are locally wedged and the driver raises, as a plain run
        with nothing ready and nothing due does.
        """
        unresolved = [txn for txn in self._txns.values() if txn.state != "resolved"]
        if not unresolved:
            return None
        victim = max(unresolved, key=lambda txn: txn.sequence)
        directives: list[list[tuple]] = [[] for _ in range(self._map.shards)]
        self._resolve_abort(victim, STALL_REASON, directives)
        self.stall_aborts += 1
        return directives

    def describe(self) -> dict[str, Any]:
        return {
            "shards": self._map.shards,
            "cross_transactions": len(self._txns),
            "commits_decided": self.commits_decided,
            "aborts_decided": self.aborts_decided,
            "stall_aborts": self.stall_aborts,
            "cycle_aborts": self.cycle_aborts,
            "gc_pruned_records": self.gc_pruned_records,
            "precedence_nodes": len(self._precedence),
            **self._precedence.counters(),
        }

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _txn(self, gid: str, home: int) -> _CrossTxn:
        txn = self._txns.get(gid)
        if txn is None:
            txn = _CrossTxn(gid=gid, home=home, sequence=next(self._sequence))
            self._txns[gid] = txn
        return txn

    def _route_message(self, sender: int, message: tuple, directives: list[list[tuple]]) -> bool:
        kind = message[0]
        if kind == "invoke":
            _, remote_id, gid, object_name, method_name, arguments = message
            txn = self._txn(gid, sender)
            if txn.state == "resolved":
                # The home shard already learned the abort through its own
                # directives; drop the straggler.
                return False
            owner = self._map.shard_of(object_name)
            txn.participants.add(owner)
            if sender != txn.home:
                txn.participants.add(sender)
            self._pending_results[remote_id] = sender
            directives[owner].append(
                ("invoke", remote_id, gid, object_name, method_name, arguments)
            )
            return True
        if kind == "result":
            _, remote_id, gid, value = message
            requester = self._pending_results.pop(remote_id, None)
            txn = self._txns.get(gid)
            if requester is None or txn is None or txn.state == "resolved":
                return False
            directives[requester].append(("result", remote_id, value))
            return True
        raise SimulationError(f"unknown inter-shard message {message!r}")

    def _ingest_note(self, sender: int, note: tuple, directives: list[list[tuple]]) -> bool:
        kind = note[0]
        if kind == "prepared":
            gid = note[1]
            # A transaction can be classified cross at submission yet never
            # actually invoke remotely this attempt; its prepare still must
            # be answered, so register it here (voters = home alone).
            txn = self._txn(gid, sender)
            if txn.state == "resolved":
                return False
            txn.state = "voting"
            self._voting[gid] = txn
            return True
        if kind == "aborted":
            _, gid, reason = note
            txn = self._txns.get(gid)
            if txn is None or txn.state == "resolved":
                return False
            self._resolve_abort(txn, reason, directives, skip={sender})
            return True
        raise SimulationError(f"unknown inter-shard note {note!r}")

    def _note_edge(self, edge: tuple[str, str], directives: list[list[tuple]]) -> bool:
        recorded, requester = edge
        # A requester whose first message is still to come registers on its
        # first edge; its id prefix (``s<i>:``) names its home shard.
        requesting = self._txn(requester, int(requester[1 : requester.index(":")]))
        if requesting.state == "resolved":
            return False
        recorded_txn = self._txns.get(recorded)
        if recorded_txn is not None and recorded_txn.outcome == "aborted":
            return False  # edges from aborted work never constrain anyone
        if self._precedence.add_edges((edge,)):
            return False
        # The edge would close a cycle: abort the requester, exactly as
        # the modular inter-object coordinator does one level down.
        self._resolve_abort(requesting, CYCLE_REASON, directives)
        self.cycle_aborts += 1
        return True

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def _ballots(self) -> list[_CrossTxn]:
        """The open ballots, in registration order."""
        return sorted(self._voting.values(), key=lambda txn: txn.sequence)

    def _voters(self, txn: _CrossTxn) -> set[int]:
        return {txn.home, *txn.participants}

    def _resolve_abort(
        self,
        txn: _CrossTxn,
        reason: str,
        directives: list[list[tuple]],
        skip: set[int] | None = None,
    ) -> None:
        if txn.state == "resolved":
            return
        self._voting.pop(txn.gid, None)
        txn.state = "resolved"
        txn.outcome = "aborted"
        for shard in sorted(self._voters(txn)):
            if skip and shard in skip:
                continue
            directives[shard].append(("abort", txn.gid, reason))
        # Results still in flight for this transaction are now meaningless.
        self._pending_results = {
            remote_id: requester
            for remote_id, requester in self._pending_results.items()
            if not remote_id.startswith(f"{txn.gid}/")
        }
        self.aborts_decided += 1
        self._resolved_since_gc += 1

    def _collect(self, directives: list[list[tuple]]) -> None:
        """Frontier GC, shared with the modular scheduler's coordinator.

        A resolved transaction's steps (held in the shard-side trackers)
        are the only source of new out-edges, so once the kernel's
        frontier GC (DESIGN.md, "Precedence DAG kernel") drops its node
        the shards may drop its step records too — the ``("forget",
        gid)`` directives — and tracker memory is bounded by the live
        frontier, not the history.
        """
        live = [gid for gid, txn in self._txns.items() if txn.state != "resolved"]
        removed, keep = self._precedence.prune_unreachable(live)
        self.gc_pruned_records += removed
        live_set = set(live)
        for gid in list(self._txns):
            if gid not in live_set and gid not in keep:
                del self._txns[gid]
                for shard_directives in directives:
                    shard_directives.append(("forget", gid))
        self._resolved_since_gc = 0
