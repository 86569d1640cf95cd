"""Key-value store abstract data type.

A dictionary object (the paper's "dictionary data type" with Lookup,
Insert and Delete) whose conflict specification works at *key*
granularity: operations on distinct keys always commute.  The plainer
sibling of the :mod:`~repro.objectbase.adts.btree` index, which implements
the same interface on top of a real B-tree representation.
"""

from __future__ import annotations

from typing import Any, Hashable

from ...core.conflicts import ConflictSpec
from ...core.operations import LocalOperation, LocalStep
from ...core.state import ObjectState
from ..base import ObjectDefinition, single_operation_method

ENTRIES_VARIABLE = "entries"
MISSING = None
"""Return value of a lookup or delete applied to an absent key."""


def _entries(state: ObjectState) -> dict:
    return dict(state.get(ENTRIES_VARIABLE, {}))


class Lookup(LocalOperation):
    """Return the value bound to ``key`` (``MISSING`` when absent)."""

    name = "Lookup"

    def __init__(self, key: Hashable):
        super().__init__(key)
        self.key = key

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        return _entries(state).get(self.key, MISSING), state


class Insert(LocalOperation):
    """Bind ``key`` to ``value``; returns the previous value (or ``MISSING``)."""

    name = "Insert"

    def __init__(self, key: Hashable, value: Any):
        super().__init__(key, value)
        self.key = key
        self.value = value

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        entries = _entries(state)
        previous = entries.get(self.key, MISSING)
        entries[self.key] = self.value
        return previous, state.set(ENTRIES_VARIABLE, entries)


class Delete(LocalOperation):
    """Remove ``key``; returns the removed value (or ``MISSING``)."""

    name = "Delete"

    def __init__(self, key: Hashable):
        super().__init__(key)
        self.key = key

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        entries = _entries(state)
        previous = entries.pop(self.key, MISSING)
        return previous, state.set(ENTRIES_VARIABLE, entries)


class CountEntries(LocalOperation):
    """Return the number of keys currently bound."""

    name = "CountEntries"

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        return len(_entries(state)), state


_MUTATORS = {"Insert", "Delete"}
_KEYED = {"Lookup", "Insert", "Delete"}


class KVStoreConflicts(ConflictSpec):
    """Key-granularity conflicts: only same-key operations may conflict."""

    def operations_conflict(self, first: LocalOperation, second: LocalOperation) -> bool:
        if first.name == "CountEntries" or second.name == "CountEntries":
            # The size observer conflicts with any mutator.
            other = second if first.name == "CountEntries" else first
            return other.name in _MUTATORS
        if first.name in _KEYED and second.name in _KEYED:
            if getattr(first, "key", None) != getattr(second, "key", None):
                return False
            if first.name == "Lookup" and second.name == "Lookup":
                return False
            return True
        return True


class KVStoreStepConflicts(KVStoreConflicts):
    """Step-level refinement: redundant mutations commute with observers.

    A ``Delete`` that returned ``MISSING`` (the key was absent) did not
    change the state, so it commutes with a ``Lookup`` of the same key that
    also returned ``MISSING`` and with another ``Delete`` that returned
    ``MISSING``.
    """

    def steps_conflict(self, first: LocalStep, second: LocalStep) -> bool:
        names = (first.operation.name, second.operation.name)
        if set(names) <= {"Lookup", "Delete"} and "Delete" in names:
            if getattr(first.operation, "key", None) != getattr(second.operation, "key", None):
                return False
            if first.return_value is MISSING and second.return_value is MISSING:
                return False
        return self.operations_conflict(first.operation, second.operation)


def kv_store_definition(name: str, initial_entries: dict | None = None) -> ObjectDefinition:
    """Create a key-value store object with lookup/insert/delete/size methods."""
    definition = ObjectDefinition(
        name=name,
        initial_state=ObjectState({ENTRIES_VARIABLE: dict(initial_entries or {})}),
        operation_conflicts=KVStoreConflicts(),
        step_conflicts=KVStoreStepConflicts(),
    )
    definition.add_method(single_operation_method("lookup", Lookup))
    definition.add_method(single_operation_method("insert", Insert))
    definition.add_method(single_operation_method("delete", Delete))
    definition.add_method(single_operation_method("size", lambda: CountEntries()))
    return definition
