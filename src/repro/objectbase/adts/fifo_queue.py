"""FIFO queue abstract data type.

The queue is the paper's running example for return-value-aware conflicts
(Section 5.1): "in many reasonable representations of queues, an Enqueue
conflicts with a Dequeue only if the latter returns the item placed into
the queue by the former".  The step-level specification below implements
exactly that rule; the operation-level specification has to assume every
``Enqueue``/``Dequeue`` pair conflicts.
"""

from __future__ import annotations

from typing import Any

from ...core.conflicts import ConflictSpec
from ...core.operations import LocalOperation, LocalStep
from ...core.state import ObjectState
from ..base import ObjectDefinition, single_operation_method

ITEMS_VARIABLE = "items"
EMPTY = None
"""Return value of a ``Dequeue`` applied to an empty queue."""


class Enqueue(LocalOperation):
    """Append ``item`` at the tail of the queue; returns ``None``."""

    name = "Enqueue"

    def __init__(self, item: Any):
        super().__init__(item)
        self.item = item

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        items = tuple(state.get(ITEMS_VARIABLE, ()))
        return None, state.set(ITEMS_VARIABLE, items + (self.item,))

    def read_set(self) -> frozenset[str]:
        return frozenset({ITEMS_VARIABLE})

    def write_set(self) -> frozenset[str]:
        return frozenset({ITEMS_VARIABLE})


class Dequeue(LocalOperation):
    """Remove and return the head of the queue; returns ``EMPTY`` when empty."""

    name = "Dequeue"

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        items = tuple(state.get(ITEMS_VARIABLE, ()))
        if not items:
            return EMPTY, state
        return items[0], state.set(ITEMS_VARIABLE, items[1:])

    def read_set(self) -> frozenset[str]:
        return frozenset({ITEMS_VARIABLE})

    def write_set(self) -> frozenset[str]:
        return frozenset({ITEMS_VARIABLE})


class QueueLength(LocalOperation):
    """Return the number of queued items."""

    name = "QueueLength"

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        return len(state.get(ITEMS_VARIABLE, ())), state

    def read_set(self) -> frozenset[str]:
        return frozenset({ITEMS_VARIABLE})

    def write_set(self) -> frozenset[str]:
        return frozenset()


class FifoQueueConflicts(ConflictSpec):
    """Operation-level conflicts: any two state-changing operations conflict."""

    def operations_conflict(self, first: LocalOperation, second: LocalOperation) -> bool:
        if first.name == "QueueLength" and second.name == "QueueLength":
            return False
        return True


class FifoQueueStepConflicts(FifoQueueConflicts):
    """Step-level conflicts exploiting ``Dequeue`` return values.

    ``steps_conflict(first, second)`` follows the paper's (asymmetric)
    convention: ``first`` is the step executed first, and the pair conflicts
    when transposing them would change a return value or the final state.

    * ``Enqueue`` before ``Dequeue``: conflict only when the dequeue removed
      the very item the enqueue appended (which can only happen when the
      queue was otherwise empty).
    * ``Dequeue`` before ``Enqueue``: conflict only when the dequeue found
      the queue empty (enqueueing first would have given it an item).
    * ``Dequeue``/``Dequeue``: conflict unless both found the queue empty.
    * ``Enqueue``/``Enqueue``: always conflict (their order decides the
      order of the items in the queue).
    * ``QueueLength`` commutes with a ``Dequeue`` that returned ``EMPTY``
      and conflicts with everything else that changes the length.
    """

    def steps_conflict(self, first: LocalStep, second: LocalStep) -> bool:
        names = (first.operation.name, second.operation.name)
        if names == ("QueueLength", "QueueLength"):
            return False
        if names == ("Enqueue", "Dequeue"):
            return second.return_value == first.operation.item
        if names == ("Dequeue", "Enqueue"):
            return first.return_value is EMPTY
        if names == ("Dequeue", "Dequeue"):
            return not (first.return_value is EMPTY and second.return_value is EMPTY)
        if set(names) == {"QueueLength", "Dequeue"}:
            dequeue = first if names[0] == "Dequeue" else second
            return dequeue.return_value is not EMPTY
        return self.operations_conflict(first.operation, second.operation)


def fifo_queue_definition(name: str, initial_items: tuple = ()) -> ObjectDefinition:
    """Create a FIFO queue object with enqueue/dequeue/length methods."""
    definition = ObjectDefinition(
        name=name,
        initial_state=ObjectState({ITEMS_VARIABLE: tuple(initial_items)}),
        operation_conflicts=FifoQueueConflicts(),
        step_conflicts=FifoQueueStepConflicts(),
    )
    definition.add_method(single_operation_method("enqueue", Enqueue))
    definition.add_method(single_operation_method("dequeue", lambda: Dequeue()))
    definition.add_method(single_operation_method("length", lambda: QueueLength()))
    return definition
