"""Waits-for graph and deadlock detection for blocking schedulers.

Two-phase locking schedulers may deadlock (the paper notes that NTO, by
contrast, aborts instead of waiting and is deadlock free).  The detector
below maintains a waits-for graph at top-level-transaction granularity,
derived *incrementally* from a parked-waiter table: every parked method
execution contributes one record ``(waiter transaction, holder
transactions)``, and the graph's edges are reference-counted sums of those
records.  Parking and unparking a waiter are O(holders) updates — nothing
is recomputed per lock request — and several executions of the same
transaction can wait simultaneously (parallel siblings) without clobbering
one another's edges, which the old replace-the-out-edge-set interface
could not express.

A cycle (including the degenerate self-loop produced when two sibling
executions of the same transaction block each other) means no further
progress is possible and a victim must be aborted.
"""

from __future__ import annotations


class WaitsForGraph:
    """A waits-for graph over top-level transactions, fed by parked waiters."""

    def __init__(self) -> None:
        # waiter transaction -> holder transaction -> number of parked
        # records contributing the edge.
        self._out: dict[str, dict[str, int]] = {}
        # parked-waiter table: record key (usually the waiting execution's
        # id) -> (waiter transaction, holder transactions).
        self._parked: dict[str, tuple[str, frozenset[str]]] = {}
        self._keys_by_waiter: dict[str, set[str]] = {}
        # Reverse index: holder transaction -> record keys waiting on it,
        # as an insertion-ordered dict-set so removing a transaction visits
        # its waiters in park order (the order the full-table scan it
        # replaces observed) instead of scanning every parked record.
        self._keys_by_holder: dict[str, dict[str, None]] = {}

    # -- the parked-waiter table ------------------------------------------------

    def park(self, key: str, waiter: str, holders: set[str] | frozenset[str]) -> None:
        """Record that the execution ``key`` of ``waiter`` waits on ``holders``.

        Re-parking an existing key replaces its previous record (the waiter
        retried and is now blocked on a possibly different holder set).
        """
        self.unpark(key)
        holder_set = frozenset(holders)
        if not holder_set:
            return
        self._parked[key] = (waiter, holder_set)
        self._keys_by_waiter.setdefault(waiter, set()).add(key)
        out = self._out.setdefault(waiter, {})
        keys_by_holder = self._keys_by_holder
        for holder in holder_set:
            out[holder] = out.get(holder, 0) + 1
            keys_by_holder.setdefault(holder, {})[key] = None

    def unpark(self, key: str) -> None:
        """Remove the parked record for ``key`` (no-op when absent)."""
        record = self._parked.pop(key, None)
        if record is None:
            return
        waiter, holders = record
        keys = self._keys_by_waiter.get(waiter)
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._keys_by_waiter[waiter]
        keys_by_holder = self._keys_by_holder
        for holder in holders:
            holder_keys = keys_by_holder.get(holder)
            if holder_keys is not None:
                holder_keys.pop(key, None)
                if not holder_keys:
                    del keys_by_holder[holder]
        out = self._out.get(waiter)
        if out is None:
            return
        for holder in holders:
            count = out.get(holder, 0) - 1
            if count <= 0:
                out.pop(holder, None)
            else:
                out[holder] = count
        if not out:
            del self._out[waiter]

    # -- transaction life cycle ---------------------------------------------------

    def remove_transaction(self, transaction_id: str) -> None:
        """Remove the transaction both as waiter and as holder."""
        for key in list(self._keys_by_waiter.get(transaction_id, ())):
            self.unpark(key)
        holder_keys = self._keys_by_holder.get(transaction_id)
        if not holder_keys:
            return
        for key in list(holder_keys):
            record = self._parked.get(key)
            if record is None:
                continue
            waiter, holders = record
            remaining = holders - {transaction_id}
            self.unpark(key)
            if remaining:
                self.park(key, waiter, remaining)

    # -- queries -------------------------------------------------------------------

    def edges(self) -> dict[str, set[str]]:
        return {waiter: set(out) for waiter, out in self._out.items() if out}

    def waits_of(self, waiter: str) -> set[str]:
        return set(self._out.get(waiter, ()))

    def find_cycle_from(self, start: str) -> list[str] | None:
        """Return a cycle reachable from ``start`` (as a list of nodes), if any."""
        path: list[str] = []
        on_path: set[str] = set()
        visited: set[str] = set()

        def visit(node: str) -> list[str] | None:
            path.append(node)
            on_path.add(node)
            for successor in self._out.get(node, ()):  # deterministic enough for tests
                if successor in on_path:
                    return path[path.index(successor) :]
                if successor not in visited:
                    found = visit(successor)
                    if found is not None:
                        return found
            on_path.discard(node)
            visited.add(node)
            path.pop()
            return None

        return visit(start)

    def is_waited_on(self, transaction_id: str) -> bool:
        """True when some parked record lists the transaction as a holder.

        A freshly parked waiter can only be part of a cycle that runs
        through itself (every older cycle was broken at the park that
        closed it), and such a cycle needs an edge *into* the waiter —
        so callers that check for deadlock right after parking may skip
        the DFS entirely when this is false.
        """
        return bool(self._keys_by_holder.get(transaction_id))

    def has_self_wait(self, transaction_id: str) -> bool:
        """True when a transaction's executions wait on one another."""
        return transaction_id in self._out.get(transaction_id, ())
