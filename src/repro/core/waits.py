"""Who waits on whom: the one waits-for relation of a run.

N2PL blocks and so can deadlock, while NTO aborts instead (Section 5.1).
Breaking a wait cycle is no synchronisation condition but what the
executor does with the waits it parks.  So the engine keeps one
:class:`WaitsFor` over its live frames, and a scheduler (or its commit
gate) that must wait asks it: :meth:`WaitsFor.block` returns the BLOCK,
or the requester's ABORT when the wait would close a cycle.  A record
per waiting execution (a top level at its commit included) lives from
its BLOCK to the execution's next decision or its transaction's end; a
wait's nodes are :func:`disjoint_ancestors` of waiter and blocker; a
cycle of commit waits alone fails validation, any other is a deadlock.
DESIGN.md, "Waits and deadlocks", gives the rules and why they hold.
The search is :func:`repro.core.dag.reachable`, iterative however long
the chain.  A sharded run's coordinator keeps one more over the shards'
records (:meth:`WaitsFor.record`).  The engine's park index is kept here.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Hashable, Iterable, Mapping

from .dag import reachable

if TYPE_CHECKING:  # pragma: no cover
    from ..scheduler.base import ExecutionInfo, SchedulerResponse

#: The reasons a closing wait aborts with, each followed by the cycle.
VALIDATION = "validation failed: commit dependency cycle"
DEADLOCK = "deadlock: wait cycle"


def disjoint_ancestors(first: "ExecutionInfo", second: "ExecutionInfo") -> tuple[str, str] | None:
    """The children of the least common ancestor on each side, or top-levels.

    Returns ``None`` when the executions are comparable (one an ancestor of
    the other), in which case no inter-object ordering constraint applies.
    Executions of different transactions have disjoint chains, so their
    pair is their top levels, with no chain built.
    """
    if first.top_level_id != second.top_level_id:
        return first.top_level_id, second.top_level_id
    first_chain = (first.execution_id,) + first.ancestor_ids
    second_chain = (second.execution_id,) + second.ancestor_ids
    if first.execution_id in second_chain or second.execution_id in first_chain:
        return None
    second_set = set(second_chain)
    common = next((ancestor for ancestor in first_chain if ancestor in second_set), None)
    if common is None:
        return first.top_level_id, second.top_level_id
    first_side = first_chain[first_chain.index(common) - 1]
    second_side = second_chain[second_chain.index(common) - 1]
    return first_side, second_side


class WaitsFor:
    """The waits-for relation over a run's live frames, and the engine's park index.

    Args:
        frames: the engine's live frames by execution id, each with an
            ``info``.  The default names none, so a scheduler driven
            without an engine blocks and never sees a cycle.
    """

    def __init__(self, frames: Mapping[str, Any] = MappingProxyType({})) -> None:
        self._frames = frames
        # Waiting execution -> (its transaction, its edges, a commit wait?).
        self._records: dict[Hashable, tuple[str, tuple[tuple[str, str], ...], bool]] = {}
        # Node -> successor -> how many records have that edge; the two
        # indexes keep a transaction's end O(its own waits).
        self._succ: dict[str, dict[str, int]] = {}
        self._waiters_of: dict[str, dict[str, None]] = {}  # transaction -> waiters
        self._waiting_on: dict[str, dict[str, None]] = {}  # node -> waiters
        #: The park index: wake-up key -> ids of the frames parked on it.
        self.parked: dict[str, dict[str, None]] = {}
        self.parked_count = 0

    # -- the relation ---------------------------------------------------------------

    def block(
        self, waiter: str, response: "SchedulerResponse", *, commit: bool = False
    ) -> "SchedulerResponse":
        """Record the execution ``waiter``'s BLOCK ``response``, unless it closes a cycle.

        ``commit`` marks a top level waiting at its commit.  Returns
        ``response``, or the requester's ABORT naming the cycle.
        """
        frames = self._frames
        frame = frames.get(waiter)
        if frame is None:
            self.clear(waiter)
            return response
        edges: dict[tuple[str, str], None] = {}
        for key in sorted(response.blockers):
            blocker = frames.get(key)
            pair = None if blocker is None else disjoint_ancestors(frame.info, blocker.info)
            if pair is not None:
                edges[pair] = None
        reason = self.record(waiter, (frame.info.top_level_id, tuple(edges), commit))
        # This module sits below scheduler/base.py: the response's own class
        # builds the ABORT.
        return response if reason is None else type(response).abort(reason)

    def record(self, waiter: Hashable, record: tuple[str, tuple, bool]) -> str | None:
        """Record ``waiter``'s wait ``(transaction, edges, commit)``; ``None``, or if it
        closes a cycle, the abort reason naming it (:meth:`block` without frames)."""
        self.clear(waiter)
        edges, commit = record[1:]
        cycle = None
        if edges:
            self._add(waiter, record, 1)
            # A cycle through a new edge needs a wait on the edge's source.
            if any(source in self._waiting_on for source, _ in edges):
                cycle = self._cycle(self._succ, edges)
        if cycle is None:
            return None
        label = DEADLOCK
        if commit:
            # The gate's label: a cycle of commit waits alone fails validation.
            commits: dict[str, list[str]] = {}
            for _, record_edges, record_commit in self._records.values():
                for source, target in record_edges if record_commit else ():
                    commits.setdefault(source, []).append(target)
            commit_cycle = self._cycle(commits, edges)
            if commit_cycle is not None:
                label, cycle = VALIDATION, commit_cycle
        self.clear(waiter)
        return f"{label} {' -> '.join(cycle)}"

    @staticmethod
    def _cycle(succ: Mapping[str, Any], edges) -> list[str] | None:
        """The cycle, in wait order, that one of the new ``edges`` closes in ``succ``."""
        for source, target in edges:
            found = reachable(succ, (target,), source)
            if source in found:
                back = [source]
                while back[-1] != target:
                    back.append(found[back[-1]])
                return [source, *reversed(back)]
        return None

    def clear(self, waiter: str) -> None:
        """Forget ``waiter``'s record: its execution decided without blocking."""
        record = self._records.pop(waiter, None)
        if record is not None:
            self._add(waiter, record, -1)

    def end(self, transaction: str) -> None:
        """``transaction`` committed or aborted: drop its records and every wait on it."""
        if not self._records:
            return
        for waiter in list(self._waiters_of.get(transaction, ())):
            self.clear(waiter)
        for waiter in list(self._waiting_on.get(transaction, ())):
            owner, edges, commit = self._records[waiter]
            self.clear(waiter)
            kept = tuple(edge for edge in edges if edge[1] != transaction)
            if kept:
                self._add(waiter, (owner, kept, commit), 1)

    def _add(self, waiter: str, record: tuple, step: int) -> None:
        """Count ``record``'s edges in (``step`` 1) or out (``step`` -1)."""
        if step > 0:
            self._records[waiter] = record
        _index(self._waiters_of, record[0], waiter, step)
        succ = self._succ
        for source, target in record[1]:
            _index(self._waiting_on, target, waiter, step)
            out = succ.setdefault(source, {})
            count = out.get(target, 0) + step
            if count:
                out[target] = count
            else:
                del out[target]
                if not out:
                    del succ[source]

    # -- the park index ---------------------------------------------------------------

    def park(self, frame_id: str, keys: Iterable[str], step: int = 1) -> None:
        """The engine parked the frame ``frame_id`` on ``keys`` (``step`` -1: it left)."""
        self.parked_count += step
        for key in keys:
            _index(self.parked, key, frame_id, step)


def _index(index: dict[str, dict[str, None]], key: str, waiter: str, step: int) -> None:
    """Add ``waiter`` under ``key`` (``step`` 1) or take it out (``step`` -1)."""
    if step > 0:
        index.setdefault(key, {})[waiter] = None
    else:
        waiters = index[key]
        waiters.pop(waiter, None)
        if not waiters:
            del index[key]


#: The relation of a scheduler no engine runs: it names no frame.
UNBOUND = WaitsFor()
