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

Precedence and waits: each shard's :class:`ShardStepTracker` reports the
conflict edges (recorded → requester) of cross-shard steps, and an edge
that would close a cycle in the transaction-level
:class:`~repro.core.dag.PrecedenceDag` aborts the requester (the modular
scheduler's inter-object rule, kernel and frontier GC).  Each shard also
reports its waits-for records projected onto top-level gids, whenever
they changed, after its round and with its votes.  Keyed by (shard,
waiter) they form one more :class:`~repro.core.waits.WaitsFor`, Obermarck's
global union (ACM TODS 1982): a new record that closes a cycle aborts its
waiter's transaction with the single engine's labels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Sequence

from ..core.dag import PrecedenceDag
from ..core.errors import SimulationError
from ..core.operations import LocalStep
from ..core.records import StepRecords
from ..core.waits import WaitsFor
from .map import ShardMap

__all__ = ["ShardReport", "ShardStepTracker", "InterShardCoordinator"]

#: Abort reason used when a precedence edge would close a cross-shard
#: cycle, filed under ``inter-object``: the coordinator is that layer one
#: level up.
CYCLE_REASON = "inter-object ordering violation: inter-shard precedence cycle"

#: Frontier GC runs at the first round after this many cross-shard
#: transactions resolved; it changes what is retained, never a decision.
GC_INTERVAL = 64


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
    #: The shard's waits-for records that changed since its last report or
    #: votes: waiter -> (gid, edges between gids, commit?), or ``None`` if gone.
    waits: dict[str, tuple | None] | None = None


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
        # Every noted step, filed under its gid until the gid is forgotten.
        self._steps = StepRecords()
        self._emitted: set[tuple[str, str]] = set()
        self._edges: list[tuple[str, str]] = []
        # Per gid, the emitted edges it is an endpoint of, so forgetting a
        # transaction touches only what it owns.
        self._edges_of: dict[str, list[tuple[str, str]]] = {}

    def note_step(self, info: Any, step: LocalStep) -> None:
        gid = info.top_level_id
        spec = self._conflicts[step.object_name]
        for other_gid, other_step in self._steps.on(step.object_name):
            if other_gid != gid and spec.steps_conflict(other_step, step):
                edge = (other_gid, gid)
                if edge not in self._emitted:
                    self._emitted.add(edge)
                    self._edges.append(edge)
                    self._edges_of.setdefault(other_gid, []).append(edge)
                    self._edges_of.setdefault(gid, []).append(edge)
        self._steps.add(step.object_name, gid, step)

    def forget(self, gid: str) -> None:
        """Drop a resolved transaction's records and emitted edges (O(its own))."""
        self._steps.drop(gid)
        for edge in self._edges_of.pop(gid, ()):
            self._emitted.discard(edge)

    def drain_edges(self) -> list[tuple[str, str]]:
        edges, self._edges = self._edges, []
        return edges

    def live_records(self) -> int:
        return len(self._steps)


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

    def __init__(self, shard_map: ShardMap):
        self._map = shard_map
        self._txns: dict[str, _CrossTxn] = {}
        # The open ballots (state "voting"), so a barrier walks only them.
        self._voting: dict[str, _CrossTxn] = {}
        self._sequence = itertools.count(1)
        # remote_id -> shard index awaiting the result.
        self._pending_results: dict[str, int] = {}
        self._precedence = PrecedenceDag()
        self._resolved_since_gc = 0
        # The fleet's waits-for union, keyed by (shard, waiter).
        self._waits = WaitsFor()
        # Observability (surfaces in the sharded result's description).
        self.commits_decided = 0
        self.aborts_decided = 0
        self.cycle_aborts = 0
        self.wait_cycle_aborts = 0
        self.gc_pruned_records = 0

    # ------------------------------------------------------------------
    # Round processing
    # ------------------------------------------------------------------
    def process_round(self, reports: Sequence[ShardReport]) -> list[list[tuple]]:
        """Ingest one round of shard reports; return shard ``i``'s next directives at ``[i]``.

        Ballots are not settled here: the driver takes :meth:`polls` after
        this call and hands the answers to :meth:`settle`.
        """
        directives: list[list[tuple]] = [[] for _ in range(self._map.shards)]
        reports = sorted(reports, key=lambda entry: entry.index)
        for report in reports:
            for message in report.messages:
                self._route_message(report.index, message, directives)
            for edge in report.edges:
                self._note_edge(edge, directives)
            for note in report.notes:
                self._ingest_note(report.index, note, directives)
        self._note_waits([report.waits for report in reports], directives)
        if self._resolved_since_gc >= GC_INTERVAL:
            self._collect(directives)
        return directives

    def polls(self) -> list[list[str]]:
        """Per shard, the prepared gids it votes on at this barrier (a deferred ballot again)."""
        polls: list[list[str]] = [[] for _ in range(self._map.shards)]
        for txn in self._ballots():
            for shard in self._voters(txn):
                polls[shard].append(txn.gid)
        return polls

    def settle(self, answers: Sequence[Sequence[tuple]], waits: Sequence = ()) -> list[list[tuple]]:
        """Turn shard ``i``'s ``(gid, verdict, reason)`` answers into directives.

        Any abort vote aborts the transaction on every voter; a ballot every
        voter answered commit commits on every voter, in shard order; a
        deferred ballot gets no directive and stays open.  ``waits[i]`` is
        :attr:`ShardReport.waits` of shard ``i``'s votes.
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
            txn.state, txn.outcome = "resolved", "committed"
            for shard in sorted(commits[txn.gid]):
                directives[shard].append(("commit", txn.gid))
            self._waits.end(txn.gid)
            self.commits_decided += 1
            self._resolved_since_gc += 1
        self._note_waits(waits, directives)
        return directives

    def describe(self) -> dict[str, Any]:
        return {
            "shards": self._map.shards,
            "cross_transactions": len(self._txns),
            "commits_decided": self.commits_decided,
            "aborts_decided": self.aborts_decided,
            "cycle_aborts": self.cycle_aborts,
            "wait_cycle_aborts": self.wait_cycle_aborts,
            "gc_pruned_records": self.gc_pruned_records,
            "precedence_nodes": len(self._precedence),
            **self._precedence.counters(),
        }

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _txn(self, gid: str, home: int) -> _CrossTxn:
        if gid not in self._txns:
            self._txns[gid] = _CrossTxn(gid=gid, home=home, sequence=next(self._sequence))
        return self._txns[gid]

    def _home_txn(self, gid: str) -> _CrossTxn:
        """``gid``'s entry, registered on the home shard its prefix (``s<i>:``) names."""
        return self._txn(gid, int(gid[1 : gid.index(":")]))

    def _route_message(self, sender: int, message: tuple, directives: list[list[tuple]]) -> None:
        kind = message[0]
        if kind == "invoke":
            _, remote_id, gid, object_name, method_name, arguments = message
            txn = self._txn(gid, sender)
            if txn.state == "resolved":
                # The home shard already learned the abort through its own
                # directives; drop the straggler.
                return
            owner = self._map.shard_of(object_name)
            txn.participants.add(owner)
            if sender != txn.home:
                txn.participants.add(sender)
            self._pending_results[remote_id] = sender
            directives[owner].append(
                ("invoke", remote_id, gid, object_name, method_name, arguments)
            )
        elif kind == "result":
            _, remote_id, gid, value = message
            requester = self._pending_results.pop(remote_id, None)
            txn = self._txns.get(gid)
            if requester is not None and txn is not None and txn.state != "resolved":
                directives[requester].append(("result", remote_id, value))
        else:
            raise SimulationError(f"unknown inter-shard message {message!r}")

    def _ingest_note(self, sender: int, note: tuple, directives: list[list[tuple]]) -> None:
        kind = note[0]
        if kind == "prepared":
            gid = note[1]
            # A transaction can be classified cross at submission yet never
            # actually invoke remotely this attempt; its prepare still must
            # be answered, so register it here (voters = home alone).
            txn = self._txn(gid, sender)
            if txn.state != "resolved":
                txn.state = "voting"
                self._voting[gid] = txn
        elif kind == "aborted":
            _, gid, reason = note
            txn = self._txns.get(gid)
            if txn is not None:
                self._resolve_abort(txn, reason, directives, skip={sender})
        else:
            raise SimulationError(f"unknown inter-shard note {note!r}")

    def _note_edge(self, edge: tuple[str, str], directives: list[list[tuple]]) -> None:
        recorded, requester = edge
        # A requester whose first message is still to come registers on its
        # first edge.
        requesting = self._home_txn(requester)
        recorded_txn = self._txns.get(recorded)
        if (
            requesting.state == "resolved"
            # edges from aborted work never constrain anyone
            or recorded_txn is not None and recorded_txn.outcome == "aborted"
            or self._precedence.add_edges((edge,))
        ):
            return
        # The edge would close a cycle: abort the requester, exactly as
        # the modular inter-object coordinator does one level down.
        self._resolve_abort(requesting, CYCLE_REASON, directives)
        self.cycle_aborts += 1

    def _note_waits(self, waits: Sequence[dict[str, tuple | None] | None], directives) -> None:
        """Drop the shards' stale records, then test each new one against the fleet as it
        stands: a record that closes a cycle aborts its waiter's transaction."""
        for shard, changed in enumerate(waits):
            for waiter in changed or ():
                self._waits.clear((shard, waiter))
        for shard, changed in enumerate(waits):
            for waiter, record in (changed or {}).items():
                txn = self._txns.get(record[0]) if record else None
                if record is None or txn is not None and txn.state == "resolved":
                    continue
                reason = self._waits.record((shard, waiter), record)
                if reason is not None:
                    # A shard-local waiter registers on its home shard to abort.
                    self._resolve_abort(self._home_txn(record[0]), reason, directives)
                    self.wait_cycle_aborts += 1

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
        txn.state, txn.outcome = "resolved", "aborted"
        for shard in sorted(self._voters(txn) - (skip or set())):
            directives[shard].append(("abort", txn.gid, reason))
        # Results still in flight for this transaction are now meaningless.
        self._pending_results = {
            remote_id: requester
            for remote_id, requester in self._pending_results.items()
            if not remote_id.startswith(f"{txn.gid}/")
        }
        self._waits.end(txn.gid)
        self.aborts_decided += 1
        self._resolved_since_gc += 1

    def _collect(self, directives: list[list[tuple]]) -> None:
        """Frontier GC, shared with the modular scheduler's coordinator.

        Once the kernel drops a resolved transaction's node, its step
        records (the only source of its new out-edges) go from the shard
        trackers too: the ``("forget", gid)`` directives (DESIGN.md,
        "Coordinator GC").
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
