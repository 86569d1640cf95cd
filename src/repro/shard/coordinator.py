"""Inter-shard coordination: the paper's modularity theorem, one level up.

The modular scheduler (``scheduler/modular.py``) composes *per-object*
synchronisers under an *inter-object* coordinator that only sees
transaction-level precedence.  Sharding applies the same construction at
the next level: each shard runs a complete scheduler over its own
objects (the "synchroniser" of the composition), and the
:class:`InterShardCoordinator` arbitrates only what crosses shard
boundaries — remote invocation routing, transaction-level precedence
edges, commit votes, and global commit/abort decisions.  By the paper's
theorem the composition is again a correct scheduler, and the post-hoc
certifier checks the claim per shard on every test run.

Everything here is barrier-synchronous and deterministic: the driver
collects one :class:`ShardReport` per shard per tick round, feeds them
to :meth:`InterShardCoordinator.process_round` in shard-index order, and
ships the returned per-shard directive lists back before the next round.
No decision depends on wall-clock, process identity, or arrival order
within a round — which is why the multiprocess transport is bit-identical
to the in-process oracle.

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
  ticks apart on every shard; a commit vote is still a promise, so the
  engine keeps held/session state out of local victim selection (see
  DESIGN.md for the limitation discussion).

Precedence and deadlock: each shard's :class:`ShardStepTracker` observes
the steps of cross-shard transactions and reports conflict edges
(recorded → requester) up to the coordinator, which accumulates them in
a transaction-level :class:`~repro.core.dag.PrecedenceDag`.  An edge
that would close a cycle aborts the requester — the same rule, the same
kernel and the same frontier GC as the modular scheduler's inter-object
coordinator.  Distributed stalls that produce
no edges (blocked frames on several shards with no local cycle) are
broken by aborting the *youngest* unresolved cross transaction after a
full zero-progress round.
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
    """One shard's outcome for one tick round (plain, picklable data)."""

    index: int
    decisions: int
    tick: int
    busy: bool
    messages: list[tuple] = field(default_factory=list)
    notes: list[tuple] = field(default_factory=list)
    edges: list[tuple[str, str]] = field(default_factory=list)


class ShardStepTracker:
    """Per-shard observer turning cross-transaction steps into edges.

    Lives inside the shard worker (engine-side of the barrier).  The
    engine calls :meth:`note_step` for every executed step of a
    cross-shard transaction — home transactions classified cross at
    submission and remote sessions alike.  Conflicting steps of two
    different cross transactions on the same object yield a precedence
    edge ``recorded → requester``, deduplicated locally and drained into
    the round report.  Records are dropped the moment the coordinator
    resolves a transaction (commit or abort directives double as
    ``forget`` signals), so retained state is O(live cross transactions),
    never O(history) — the same bound the modular scheduler's GC enforces
    one level down.
    """

    def __init__(self, step_conflicts: Any):
        self._conflicts = step_conflicts
        self._steps: dict[str, list[tuple[str, LocalStep]]] = {}
        self._emitted: set[tuple[str, str]] = set()
        self._edges: list[tuple[str, str]] = []

    def note_step(self, info: Any, step: LocalStep) -> None:
        gid = info.top_level_id
        spec = self._conflicts[step.object_name]
        records = self._steps.setdefault(step.object_name, [])
        for other_gid, other_step in records:
            if other_gid != gid and spec.steps_conflict(other_step, step):
                edge = (other_gid, gid)
                if edge not in self._emitted:
                    self._emitted.add(edge)
                    self._edges.append(edge)
        records.append((gid, step))

    def forget(self, gid: str) -> None:
        """Drop a resolved transaction's records and emitted edges."""
        for object_name in list(self._steps):
            kept = [entry for entry in self._steps[object_name] if entry[0] != gid]
            if kept:
                self._steps[object_name] = kept
            else:
                del self._steps[object_name]
        self._emitted = {edge for edge in self._emitted if gid not in edge}

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
            if report.decisions:
                progress = True
            if report.tick != self._last_tick.get(report.index):
                self._last_tick[report.index] = report.tick
                progress = True
            for edge in report.edges:
                if self._note_edge(edge, directives):
                    progress = True
            for message in report.messages:
                if self._route_message(report.index, message, directives):
                    progress = True
            for note in report.notes:
                if self._ingest_note(report.index, note, directives):
                    progress = True

        if self._resolved_since_gc >= self._gc_interval:
            self._collect(directives)
        return directives, progress

    def polls(self) -> list[list[str]]:
        """Per shard, the prepared gids it votes on at this barrier (home included).

        A ballot deferred at one barrier is polled again at the next.
        """
        polls: list[list[str]] = [[] for _ in range(self._map.shards)]
        for txn in self._txns.values():
            if txn.state == "voting":
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
        for txn in self._txns.values():
            if txn.state != "voting" or commits.get(txn.gid) != self._voters(txn):
                continue
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
        frames are locally wedged and the driver finalises, mirroring the
        plain engine's force-wake exhaustion semantics.
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
        requesting = self._txns.get(requester)
        if requesting is None or requesting.state == "resolved":
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
