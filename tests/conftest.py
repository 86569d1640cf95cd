"""Shared fixtures and history-construction helpers for the test-suite."""

from __future__ import annotations

import pytest

from repro.core import (
    HistoryBuilder,
    ObjectState,
    PerObjectConflicts,
    ReadVariable,
    ReadWriteConflictSpec,
    WriteVariable,
)


def read_write_conflicts() -> PerObjectConflicts:
    """A conflict registry using variable-granularity read/write conflicts."""
    return PerObjectConflicts(default=ReadWriteConflictSpec())


def fresh_builder(objects: dict[str, dict] | None = None) -> HistoryBuilder:
    """A builder over read/write objects with the given initial variables."""
    initial = {name: ObjectState(variables) for name, variables in (objects or {}).items()}
    return HistoryBuilder(initial_states=initial, conflicts=read_write_conflicts())


def increment_via_read_write(builder: HistoryBuilder, transaction, object_name: str) -> None:
    """Issue a child method on ``object_name`` that reads x and writes x+1."""
    child = builder.invoke(transaction, object_name, "bump")
    read = builder.local(child, ReadVariable("x"))
    builder.local(child, WriteVariable("x", read.return_value + 1))
    builder.finish(child, "ok")


def two_transaction_history(compatible_orders: bool):
    """The paper's Section 2 example: T1 and T2 both access objects A and B.

    With ``compatible_orders=True`` both objects serialise T1 before T2 and
    the history is serialisable; with ``False`` object B serialises them the
    other way round and the overall history is not serialisable even though
    each object's own computation is.
    """
    builder = fresh_builder({"A": {"x": 0}, "B": {"x": 0}})
    first = builder.begin_top_level("t1")
    second = builder.begin_top_level("t2")
    increment_via_read_write(builder, first, "A")
    increment_via_read_write(builder, second, "A")
    if compatible_orders:
        increment_via_read_write(builder, first, "B")
        increment_via_read_write(builder, second, "B")
    else:
        increment_via_read_write(builder, second, "B")
        increment_via_read_write(builder, first, "B")
    history = builder.build()
    history.check_legal()
    return history


@pytest.fixture
def serialisable_history():
    return two_transaction_history(compatible_orders=True)


@pytest.fixture
def non_serialisable_history():
    return two_transaction_history(compatible_orders=False)
