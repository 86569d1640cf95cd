"""Lock management for nested two-phase locking.

Locks are associated with operations or with steps (operation + return
value), following the two implementation strategies Section 5.1 discusses.
A lock request conflicts with a held lock when the corresponding
operations/steps conflict according to the object's conflict
specification; per Moss' rules the request can only be granted when every
conflicting holder is an *ancestor* of the requester.

The :class:`LockManager` also implements lock inheritance (rule 5): when a
method execution completes, its locks are transferred to — "immediately
acquired by" — its parent.

Release and transfer return the identifiers of the owners whose locks were
freed; blocking schedulers forward them (translated to whatever namespace
their ``blockers`` use) into the engine's wake-up path so parked waiters
are re-awakened exactly when a blocker commits, aborts, or passes its
locks up the execution tree.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

from ..core.conflicts import PerObjectConflicts
from ..core.operations import LocalOperation, LocalStep
from .base import ExecutionInfo


@dataclass(eq=False, slots=True)
class LockEntry:
    """One held lock: the owner and the operation/step it covers.

    Identity semantics (``eq=False``): entries are unique table rows —
    hashable, so the per-object table can delete them in O(1).  Two
    entries with equal fields are interchangeable anyway (they conflict
    with exactly the same requests).
    """

    owner_id: str
    object_name: str
    item: LocalOperation | LocalStep

    def operation(self) -> LocalOperation:
        return self.item.operation if isinstance(self.item, LocalStep) else self.item


@dataclass
class LockRequestOutcome:
    """Result of a lock request: granted or the set of blocking owners."""

    granted: bool
    blockers: frozenset[str] = frozenset()


class LockManager:
    """Holds lock tables for every object of the base.

    Parameters
    ----------
    conflicts:
        Per-object conflict registry used to decide lock compatibility.
    step_level:
        When true, conflicts are evaluated between steps (return-value
        aware); otherwise between operations.
    """

    def __init__(self, conflicts: PerObjectConflicts, step_level: bool = False):
        self._conflicts = conflicts
        self._step_level = step_level
        # Per-object tables are insertion-ordered dict-sets: iteration in
        # grant order (like the lists they replaced) but O(1) deletion,
        # which keeps releasing a heavily-locked hot object linear instead
        # of quadratic.
        self._locks_by_object: dict[str, dict[LockEntry, None]] = defaultdict(dict)
        self._locks_by_owner: dict[str, list[LockEntry]] = defaultdict(list)

    # -- queries ----------------------------------------------------------------

    def lock_count(self) -> int:
        return sum(len(entries) for entries in self._locks_by_object.values())

    def conflicting_holders(
        self,
        object_name: str,
        item: LocalOperation | LocalStep,
        requester: ExecutionInfo,
    ) -> set[str]:
        """Owners of conflicting locks that are *not* ancestors of the requester."""
        blockers: set[str] = set()
        entries = self._locks_by_object.get(object_name)
        if not entries:
            return blockers
        # One granularity per manager, so the registry lookup and the
        # conflict relation can be bound once instead of per held entry
        # (this loop runs for every lock request on a contended object).
        # The held item goes first: Definition 3's direction, as in
        # ConflictSpec.conflicting.
        spec = self._conflicts[object_name]
        conflict = spec.steps_conflict if self._step_level else spec.operations_conflict
        requester_id = requester.execution_id
        ancestor_ids = requester.ancestor_ids
        for entry in entries:
            owner_id = entry.owner_id
            if owner_id == requester_id or owner_id in ancestor_ids:
                continue
            if conflict(entry.item, item):
                blockers.add(owner_id)
        return blockers

    # -- acquisition, release, inheritance ----------------------------------------

    def request(
        self,
        object_name: str,
        item: LocalOperation | LocalStep,
        requester: ExecutionInfo,
    ) -> LockRequestOutcome:
        """Try to acquire a lock on ``item`` for the requester (rule 2).

        The lock is granted — and recorded — when every execution owning a
        conflicting lock is an ancestor of the requester (or the requester
        itself); otherwise the set of blocking owners is returned and
        nothing is recorded.
        """
        blockers = self.conflicting_holders(object_name, item, requester)
        if blockers:
            return LockRequestOutcome(False, frozenset(blockers))
        entry = LockEntry(requester.execution_id, object_name, item)
        self._locks_by_object[object_name][entry] = None
        self._locks_by_owner[requester.execution_id].append(entry)
        return LockRequestOutcome(True)

    def release_all(self, owner_id: str) -> frozenset[str]:
        """Release every lock owned by the execution.

        Returns the freed owner identifiers — ``{owner_id}`` when at least
        one lock was released, empty otherwise — so the caller can turn the
        release into wake-ups for parked waiters.
        """
        entries = self._locks_by_owner.pop(owner_id, [])
        for entry in entries:
            self._locks_by_object[entry.object_name].pop(entry, None)
        return frozenset({owner_id}) if entries else frozenset()

    def release_all_of(self, owner_ids: Iterable[str]) -> frozenset[str]:
        """Release every lock owned by any of the executions; freed owner ids."""
        freed: set[str] = set()
        for owner_id in owner_ids:
            freed.update(self.release_all(owner_id))
        return frozenset(freed)

    def transfer(self, child_id: str, parent_id: str) -> frozenset[str]:
        """Rule 5: the parent acquires every lock the child releases.

        Returns ``{child_id}`` when locks actually moved: waiters blocked on
        the child must be re-examined, because the inheriting parent may be
        their ancestor (in which case the conflict has evaporated).
        """
        entries = self._locks_by_owner.pop(child_id, [])
        for entry in entries:
            entry.owner_id = parent_id
            self._locks_by_owner[parent_id].append(entry)
        return frozenset({child_id}) if entries else frozenset()

