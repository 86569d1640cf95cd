"""Coarse-grained baseline: every object is a single data item.

Section 1 of the paper describes the simple way of reducing object-base
concurrency control to database concurrency control: "view each object as
a data item, treat a method invocation as a group of read or write
operations on those data items, and require that only one method execution
can be active at each object at any one time" — the approach taken by the
GemStone system.  Any conventional scheduler can then be used; we use
strict two-phase locking at object granularity, the most common choice.

In Theorem 5's terms that is one intra-object strategy applied to every
object, so the scheduler is a :class:`~repro.scheduler.modular.ModularScheduler`
whose every object runs :class:`~repro.scheduler.modular.IntraObjectLocking`
over :data:`WHOLE_OBJECT`: two operations conflict unless both are
read-only, a shared lock for readers and an exclusive one otherwise, held
by the top-level transaction until it commits or aborts.  This
deliberately "severely curtails parallelism" (the paper's words) and is
the baseline experiment E1 compares the fine-grained schedulers against.

Whole-object locks order conflicting transactions by commit but say
nothing about the *parallel siblings inside* a transaction, which may
interleave conflicting steps on different objects in incompatible orders.
The coordinator is therefore commit-ordered: it checks each transaction's
own sibling order against the objects' real conflict specifications
(DESIGN.md, "Commit-ordered objects").
"""

from __future__ import annotations

from typing import Any

from ..core.conflicts import ConflictSpec
from ..core.operations import LocalOperation
from ..objectbase.base import ObjectDefinition
from .modular import IntraObjectLocking, ModularScheduler


class WholeObjectConflicts(ConflictSpec):
    """Two operations on an object conflict unless both are read-only."""

    def operations_conflict(self, first: LocalOperation, second: LocalOperation) -> bool:
        return not (first.is_read_only() and second.is_read_only())


WHOLE_OBJECT = WholeObjectConflicts()


class SingleActiveObjectScheduler(ModularScheduler):
    """Object-granularity strict two-phase locking (GemStone-style baseline)."""

    name = "single-active-object"

    def __init__(self, restart_policy: Any = "immediate"):
        super().__init__(restart_policy=restart_policy)

    def _strategy_of(self, definition: ObjectDefinition) -> IntraObjectLocking:
        # Every object, a b-tree with its key-granular preference included.
        return IntraObjectLocking(definition.name, WHOLE_OBJECT)

    def _commit_ordered(self) -> bool:
        # Whole-object locks order by commit every pair of transactions whose
        # operations are not both read-only, and two read-only operations
        # share an object here as they always have.
        return True
