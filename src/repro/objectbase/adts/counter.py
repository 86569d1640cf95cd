"""Counter abstract data type.

A counter supports blind additions (``Add``) that return nothing and a
``GetCount`` observer.  Because additions carry no return value they
commute with one another — a textbook example of an operation pair that a
read/write model would declare conflicting (both "write" the counter) but
the object-base model does not, which is precisely the extra concurrency
the paper's richer conflict notion buys.
"""

from __future__ import annotations

from typing import Any

from ...core.conflicts import ConflictSpec
from ...core.operations import LocalOperation
from ...core.state import ObjectState
from ..base import ObjectDefinition, single_operation_method

COUNT_VARIABLE = "count"


class AddToCounter(LocalOperation):
    """Add ``amount`` (possibly negative) to the counter; returns ``None``."""

    name = "AddToCounter"

    def __init__(self, amount: float = 1):
        super().__init__(amount)
        self.amount = amount

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        new_value = state.get(COUNT_VARIABLE, 0) + self.amount
        return None, state.set(COUNT_VARIABLE, new_value)

    def read_set(self) -> frozenset[str]:
        return frozenset({COUNT_VARIABLE})

    def write_set(self) -> frozenset[str]:
        return frozenset({COUNT_VARIABLE})


class GetCount(LocalOperation):
    """Return the counter's current value."""

    name = "GetCount"

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        return state.get(COUNT_VARIABLE, 0), state

    def read_set(self) -> frozenset[str]:
        return frozenset({COUNT_VARIABLE})

    def write_set(self) -> frozenset[str]:
        return frozenset()


class CounterConflicts(ConflictSpec):
    """Additions commute with additions; observers conflict with additions."""

    def operations_conflict(self, first: LocalOperation, second: LocalOperation) -> bool:
        if first.name == "AddToCounter" and second.name == "AddToCounter":
            return False
        if first.name == "GetCount" and second.name == "GetCount":
            return False
        return True


def counter_definition(name: str, initial_count: float = 0) -> ObjectDefinition:
    """Create a counter object with ``add``, ``subtract`` and ``get`` methods."""
    definition = ObjectDefinition(
        name=name,
        initial_state=ObjectState({COUNT_VARIABLE: initial_count}),
        operation_conflicts=CounterConflicts(),
        step_conflicts=CounterConflicts(),
    )
    definition.add_method(single_operation_method("add", AddToCounter))
    definition.add_method(
        single_operation_method("subtract", lambda amount=1: AddToCounter(-amount))
    )
    definition.add_method(single_operation_method("get", GetCount))
    return definition
