"""Set abstract data type.

A mathematical set of members with element-granularity conflicts:
operations on distinct elements always commute, and at the step level a
redundant insertion (the element was already present) or redundant removal
(it was absent) commutes with observers of the same element.
"""

from __future__ import annotations

from typing import Any, Hashable

from ...core.conflicts import ConflictSpec
from ...core.operations import LocalOperation, LocalStep
from ...core.state import ObjectState
from ..base import ObjectDefinition, single_operation_method

MEMBERS_VARIABLE = "members"


def _members(state: ObjectState) -> frozenset:
    return frozenset(state.get(MEMBERS_VARIABLE, frozenset()))


class AddMember(LocalOperation):
    """Add ``element``; returns ``True`` when the set changed."""

    name = "AddMember"

    def __init__(self, element: Hashable):
        super().__init__(element)
        self.element = element

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        members = _members(state)
        if self.element in members:
            return False, state
        return True, state.set(MEMBERS_VARIABLE, members | {self.element})


class RemoveMember(LocalOperation):
    """Remove ``element``; returns ``True`` when the set changed."""

    name = "RemoveMember"

    def __init__(self, element: Hashable):
        super().__init__(element)
        self.element = element

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        members = _members(state)
        if self.element not in members:
            return False, state
        return True, state.set(MEMBERS_VARIABLE, members - {self.element})


class Contains(LocalOperation):
    """Return ``True`` when ``element`` is a member."""

    name = "Contains"

    def __init__(self, element: Hashable):
        super().__init__(element)
        self.element = element

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        return self.element in _members(state), state


class SetSize(LocalOperation):
    """Return the cardinality of the set."""

    name = "SetSize"

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        return len(_members(state)), state


_ELEMENT_OPS = {"AddMember", "RemoveMember", "Contains"}
_MUTATORS = {"AddMember", "RemoveMember"}


class SetConflicts(ConflictSpec):
    """Element-granularity conflicts."""

    def operations_conflict(self, first: LocalOperation, second: LocalOperation) -> bool:
        if first.name == "SetSize" or second.name == "SetSize":
            other = second if first.name == "SetSize" else first
            return other.name in _MUTATORS
        if first.name in _ELEMENT_OPS and second.name in _ELEMENT_OPS:
            if first.element != second.element:
                return False
            if first.name == "Contains" and second.name == "Contains":
                return False
            return True
        return True


class SetStepConflicts(SetConflicts):
    """Step-level refinement: redundant mutations commute.

    An ``AddMember`` that returned ``False`` (already present) or a
    ``RemoveMember`` that returned ``False`` (already absent) left the state
    unchanged and therefore commutes with a ``Contains`` of the same element
    and with the size observer.
    """

    def steps_conflict(self, first: LocalStep, second: LocalStep) -> bool:
        first_redundant = first.operation.name in _MUTATORS and first.return_value is False
        second_redundant = second.operation.name in _MUTATORS and second.return_value is False
        observers = {"Contains", "SetSize"}
        if first_redundant and second.operation.name in observers:
            return False
        if second_redundant and first.operation.name in observers:
            return False
        if first_redundant and second_redundant:
            if first.operation.name == second.operation.name:
                return False
        return self.operations_conflict(first.operation, second.operation)


def set_definition(name: str, initial_members: frozenset | set = frozenset()) -> ObjectDefinition:
    """Create a set object with add/remove/contains/size methods."""
    definition = ObjectDefinition(
        name=name,
        initial_state=ObjectState({MEMBERS_VARIABLE: frozenset(initial_members)}),
        operation_conflicts=SetConflicts(),
        step_conflicts=SetStepConflicts(),
    )
    definition.add_method(single_operation_method("add", AddMember))
    definition.add_method(single_operation_method("remove", RemoveMember))
    definition.add_method(single_operation_method("contains", Contains))
    definition.add_method(single_operation_method("size", lambda: SetSize()))
    return definition
