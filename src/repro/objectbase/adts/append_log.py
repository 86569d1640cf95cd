"""Append-only log abstract data type.

A log of entries supporting ``Append`` (returns the index assigned to the
entry), positional reads and a length observer.  Because appends return the
assigned index, two appends conflict; reads of already-written positions
commute with appends, which the step-level specification exploits.
"""

from __future__ import annotations

from typing import Any

from ...core.conflicts import ConflictSpec
from ...core.operations import LocalOperation, LocalStep
from ...core.state import ObjectState
from ..base import ObjectDefinition, single_operation_method

ENTRIES_VARIABLE = "entries"
OUT_OF_RANGE = None


class Append(LocalOperation):
    """Append ``entry`` to the log; returns the index it was stored at."""

    name = "Append"

    def __init__(self, entry: Any):
        super().__init__(entry)
        self.entry = entry

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        entries = tuple(state.get(ENTRIES_VARIABLE, ()))
        return len(entries), state.set(ENTRIES_VARIABLE, entries + (self.entry,))


class ReadAt(LocalOperation):
    """Return the entry at ``index`` (``OUT_OF_RANGE`` when not yet written)."""

    name = "ReadAt"

    def __init__(self, index: int):
        super().__init__(index)
        self.index = index

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        entries = tuple(state.get(ENTRIES_VARIABLE, ()))
        if 0 <= self.index < len(entries):
            return entries[self.index], state
        return OUT_OF_RANGE, state


class LogLength(LocalOperation):
    """Return the number of entries appended so far."""

    name = "LogLength"

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        return len(state.get(ENTRIES_VARIABLE, ())), state


class AppendLogConflicts(ConflictSpec):
    """Operation-level conflicts for the log."""

    def operations_conflict(self, first: LocalOperation, second: LocalOperation) -> bool:
        names = {first.name, second.name}
        if names == {"ReadAt"} or names == {"LogLength"} or names == {"ReadAt", "LogLength"}:
            return False
        return True


class AppendLogStepConflicts(AppendLogConflicts):
    """Step-level refinement.

    A ``ReadAt`` that successfully read position ``i`` commutes with an
    ``Append`` that was assigned a different (later) index — the appended
    entry cannot affect an already-written position.  Reads of unwritten
    positions conflict with appends (the append may fill the position).
    """

    def steps_conflict(self, first: LocalStep, second: LocalStep) -> bool:
        names = (first.operation.name, second.operation.name)
        if set(names) == {"Append", "ReadAt"}:
            append, read = (first, second) if names[0] == "Append" else (second, first)
            if read.return_value is OUT_OF_RANGE:
                return True
            return read.operation.index == append.return_value
        return self.operations_conflict(first.operation, second.operation)


def append_log_definition(name: str, initial_entries: tuple = ()) -> ObjectDefinition:
    """Create an append-only log object with append/read/length methods."""
    definition = ObjectDefinition(
        name=name,
        initial_state=ObjectState({ENTRIES_VARIABLE: tuple(initial_entries)}),
        operation_conflicts=AppendLogConflicts(),
        step_conflicts=AppendLogStepConflicts(),
    )
    definition.add_method(single_operation_method("append", Append))
    definition.add_method(single_operation_method("read", ReadAt))
    definition.add_method(single_operation_method("length", lambda: LogLength()))
    return definition
