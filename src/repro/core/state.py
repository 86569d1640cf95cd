"""Immutable object states and per-transaction undo segments.

A *state* of an object is "a mapping associating values to the variables of
an object" (Definition 1).  :class:`ObjectState` is an immutable mapping:
mutating operations return a new state, which makes it cheap for the
simulation engine and the history replayer to keep snapshots around and to
compare final states for history equivalence (Definition 7).

Immutability is also what makes :class:`UndoLog` cheap: recording the state
of an object *before* a step applies is just keeping a reference, so the
simulation engine can abort a transaction by rolling the affected objects
back to the snapshot taken before the transaction's first step on them and
re-applying only the surviving steps issued since — instead of replaying
the entire run from the initial states.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from typing import Any

from .values import freeze, values_equal


class ObjectState(Mapping[str, Any]):
    """An immutable mapping from variable names to values.

    Instances support the full read-only :class:`~collections.abc.Mapping`
    protocol plus functional update methods (:meth:`set`, :meth:`update`,
    :meth:`remove`) that return new states.
    """

    __slots__ = ("_variables", "_frozen")

    def __init__(self, variables: Mapping[str, Any] | None = None):
        self._variables: dict[str, Any] = dict(variables or {})
        self._frozen = None

    # -- Mapping protocol ---------------------------------------------------

    def __getitem__(self, variable: str) -> Any:
        return self._variables[variable]

    def __iter__(self) -> Iterator[str]:
        return iter(self._variables)

    def __len__(self) -> int:
        return len(self._variables)

    def __contains__(self, variable: object) -> bool:
        return variable in self._variables

    # -- functional updates -------------------------------------------------

    def set(self, variable: str, value: Any) -> "ObjectState":
        """Return a new state with ``variable`` bound to ``value``."""
        updated = dict(self._variables)
        updated[variable] = value
        return ObjectState(updated)

    def update(self, changes: Mapping[str, Any]) -> "ObjectState":
        """Return a new state with every binding in ``changes`` applied."""
        updated = dict(self._variables)
        updated.update(changes)
        return ObjectState(updated)

    def remove(self, variable: str) -> "ObjectState":
        """Return a new state without ``variable`` (missing names are ignored)."""
        updated = dict(self._variables)
        updated.pop(variable, None)
        return ObjectState(updated)

    def get(self, variable: str, default: Any = None) -> Any:
        return self._variables.get(variable, default)

    # -- comparison and hashing ----------------------------------------------

    def _frozen_form(self):
        if self._frozen is None:
            self._frozen = freeze(self._variables)
        return self._frozen

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ObjectState):
            return self._frozen_form() == other._frozen_form()
        if isinstance(other, Mapping):
            return values_equal(self._variables, dict(other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._frozen_form())

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={value!r}" for name, value in sorted(self._variables.items()))
        return f"ObjectState({inner})"

    def as_dict(self) -> dict[str, Any]:
        """Return a plain mutable copy of the variable bindings."""
        return dict(self._variables)


EMPTY_STATE = ObjectState()
"""A shared empty state, convenient as a default initial state."""


@dataclass(slots=True)
class AppliedStep:
    """One local step applied to an object, with the pre-application state.

    ``step`` is the engine's own record of the step (its execution,
    object, operation and the value its transaction observed);
    ``pre_state`` is a snapshot (a reference — states are immutable) of the
    object's state immediately before the step applied, which is exactly
    what incremental undo needs to roll the object back to the point just
    before an aborted transaction first touched it.
    """

    step: Any  # a LocalStep; typed loosely to avoid an import cycle
    top_level_id: str
    pre_state: ObjectState


class UndoLog:
    """Per-object applied-step segments supporting incremental undo.

    The log keeps, for every object, the ordered list of steps currently
    contributing to its state (steps of aborted attempts are removed as
    they abort), plus an index of which objects each top-level transaction
    has touched.  Aborting a transaction therefore costs time proportional
    to the log suffixes of the objects it touched — the steps applied since
    the transaction's first write there — not to the whole run.
    """

    def __init__(self) -> None:
        self._by_object: dict[str, list[AppliedStep]] = {}
        self._touched_by_transaction: dict[str, set[str]] = {}

    # -- recording -----------------------------------------------------------

    def record(self, step: Any, top_level_id: str, pre_state: ObjectState) -> None:
        """Append one applied step (a ``LocalStep``) to its object's segment."""
        object_name = step.object_name
        entry = AppliedStep(step, top_level_id, pre_state)
        entries = self._by_object.get(object_name)
        if entries is None:
            entries = self._by_object[object_name] = []
        entries.append(entry)
        touched = self._touched_by_transaction.get(top_level_id)
        if touched is None:
            touched = self._touched_by_transaction[top_level_id] = set()
        touched.add(object_name)

    # -- queries -------------------------------------------------------------

    def objects_touched(self, top_level_id: str) -> set[str]:
        return set(self._touched_by_transaction.get(top_level_id, ()))

    def total_steps(self) -> int:
        return sum(len(entries) for entries in self._by_object.values())

    # -- life cycle ----------------------------------------------------------

    def forget_transaction(self, top_level_id: str) -> None:
        """Drop the touched-object index of a finished (committed) transaction.

        Its entries stay in the per-object segments — they are part of the
        surviving prefix any later undo re-applies — but the transaction can
        no longer be the subject of an undo, so its index is released.
        """
        self._touched_by_transaction.pop(top_level_id, None)

    def collect(self) -> int:
        """Drop each object's committed prefix; returns the removed count.

        An undo suffix always starts at the aborting transaction's first
        entry on the object, and only transactions still in the
        touched-object index (the live ones) can abort — so the leading
        entries owned exclusively by forgotten (committed) transactions
        can never be read again, neither as a rollback snapshot (the
        suffix's own first ``pre_state`` covers them) nor as re-applied
        survivors.  Pruning them is what keeps undo segments O(in-flight)
        on long streaming runs; a live straggler pins at most the entries
        behind its own first step.
        """
        removed = 0
        for object_name in list(self._by_object):
            log = self._by_object[object_name]
            first_live = next(
                (
                    index
                    for index, entry in enumerate(log)
                    if entry.top_level_id in self._touched_by_transaction
                ),
                len(log),
            )
            if first_live:
                removed += first_live
                if first_live == len(log):
                    del self._by_object[object_name]
                else:
                    del log[:first_live]
        return removed

    def undo(
        self,
        top_level_id: str,
        subtree_ids: Iterable[str],
        states: dict[str, ObjectState],
    ) -> tuple[int, list[str]]:
        """Undo every step of ``subtree_ids``, repairing ``states`` in place.

        For each object the aborted transaction touched, the object is
        rolled back to the snapshot taken before the subtree's first step
        on it, and the surviving steps applied since are re-applied in
        order (refreshing their snapshots).  Objects untouched by the
        subtree keep their states.  Returns the number of removed (wasted)
        steps and, in log order, the top-level ids owning a survivor that
        may write and no longer returns its recorded value: it now has an
        effect no scheduler saw (a failed delete that deletes), and its
        transaction observed undone work (a read-only survivor changes
        nothing a later step can observe).
        """
        subtree = frozenset(subtree_ids)
        removed = 0
        stale: dict[str, None] = {}
        for object_name in sorted(self._touched_by_transaction.pop(top_level_id, ())):
            log = self._by_object.get(object_name)
            if not log:
                continue
            first = next(
                (index for index, entry in enumerate(log) if entry.step.execution_id in subtree),
                None,
            )
            if first is None:
                continue
            suffix = log[first:]
            del log[first:]
            state = suffix[0].pre_state
            for entry in suffix:
                step = entry.step
                if step.execution_id in subtree:
                    removed += 1
                    continue
                entry.pre_state = state
                value, state = step.operation.apply(state)
                if value != step.return_value and not step.operation.is_read_only():
                    stale[entry.top_level_id] = None
                log.append(entry)
            states[object_name] = state
        return removed, list(stale)
