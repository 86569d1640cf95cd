"""Register abstract data type: a single read/write cell.

The register is the object-base rendering of a classical database data
item: its local operations are ``Read`` and ``Write`` of the single
variable ``value``.  With every object a register, the model collapses to
the classical read/write model of Eswaran et al., which is the baseline
the paper generalises from.
"""

from __future__ import annotations

from typing import Any

from ...core.conflicts import ConflictSpec
from ...core.operations import LocalOperation, LocalStep
from ...core.state import ObjectState
from ..base import ObjectDefinition, single_operation_method

VALUE_VARIABLE = "value"


class ReadRegister(LocalOperation):
    """Return the register's current value; leaves the state unchanged."""

    name = "ReadRegister"

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        return state.get(VALUE_VARIABLE), state

    def read_set(self) -> frozenset[str]:
        return frozenset({VALUE_VARIABLE})

    def write_set(self) -> frozenset[str]:
        return frozenset()


class WriteRegister(LocalOperation):
    """Overwrite the register's value; returns the value written."""

    name = "WriteRegister"

    def __init__(self, value: Any):
        super().__init__(value)
        self.value = value

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        return self.value, state.set(VALUE_VARIABLE, self.value)

    def read_set(self) -> frozenset[str]:
        return frozenset()

    def write_set(self) -> frozenset[str]:
        return frozenset({VALUE_VARIABLE})


class RegisterConflicts(ConflictSpec):
    """Classical read/write conflict matrix for a single cell."""

    def operations_conflict(self, first: LocalOperation, second: LocalOperation) -> bool:
        names = {first.name, second.name}
        if names == {"ReadRegister"}:
            return False
        return "WriteRegister" in names


class RegisterStepConflicts(RegisterConflicts):
    """Step-level refinement: writes of an identical value still conflict.

    For a plain register the return values add nothing exploitable (the
    paper's step-level gains come from richer types such as queues), so the
    step relation equals the operation relation.  The class exists so that
    experiments sweeping "operation vs step granularity" treat every object
    uniformly.
    """

    def steps_conflict(self, first: LocalStep, second: LocalStep) -> bool:
        return self.operations_conflict(first.operation, second.operation)


def register_definition(name: str, initial_value: Any = 0) -> ObjectDefinition:
    """Create a register object definition with ``read``/``write`` methods."""
    definition = ObjectDefinition(
        name=name,
        initial_state=ObjectState({VALUE_VARIABLE: initial_value}),
        operation_conflicts=RegisterConflicts(),
        step_conflicts=RegisterStepConflicts(),
    )
    definition.add_method(single_operation_method("read", ReadRegister))
    definition.add_method(single_operation_method("write", WriteRegister))
    return definition
