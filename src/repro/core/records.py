"""Granted steps per object, in grant order: the data every inter-object check reads.

Definition 9's type (a) edges, Theorem 5's per-object graphs and Reed's
commit dependencies all compare a new step with the steps granted
earlier on its object.  :class:`StepRecords` is the one store of those
steps.  Each record is filed under its top-level transaction too, so
dropping a transaction, or reading its own steps on an object, touches
only its own entries, and a record lives exactly as long as its
transaction's entry.  What a record holds, which
records a scan skips and who is dropped when stay with the user;
DESIGN.md, "One store of granted steps", lists them.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable

__all__ = ["StepRecords"]


class StepRecords:
    """Per object, its (transaction, record) pairs in grant order; per transaction, where they are."""

    __slots__ = ("_on", "_of", "_numbers", "_size")

    def __init__(self) -> None:
        # Only objects and transactions with records have an entry.
        self._on: dict[str, dict[int, tuple[str, Any]]] = {}
        self._of: dict[str, list[tuple[str, int]]] = {}  # (object, number)
        self._numbers = itertools.count()
        self._size = 0

    def on(self, object_name: str) -> Iterable[tuple[str, Any]]:
        """``object_name``'s (transaction, record) pairs, earliest granted first."""
        records = self._on.get(object_name)
        return () if records is None else records.values()

    def of(self, transaction: str, object_name: str) -> list[tuple[str, Any]]:
        """``transaction``'s own (transaction, record) pairs on ``object_name``, earliest first."""
        records, entries = self._on.get(object_name), self._of.get(transaction, ())
        return [records[number] for name, number in entries if name == object_name]

    def add(self, object_name: str, transaction: str, record: Any) -> None:
        """File ``record``, a step of ``transaction`` just granted on ``object_name``."""
        number = next(self._numbers)
        self._on.setdefault(object_name, {})[number] = (transaction, record)
        self._of.setdefault(transaction, []).append((object_name, number))
        self._size += 1

    def drop(self, transaction: str) -> int:
        """Forget ``transaction``'s records; returns how many there were."""
        entries = self._of.pop(transaction, ())
        for object_name, number in entries:
            records = self._on[object_name]
            del records[number]
            if not records:
                del self._on[object_name]
        self._size -= len(entries)
        return len(entries)

    def retain(self, keep: Callable[[str, Any], bool]) -> int:
        """Drop every transaction ``keep(transaction, earliest record)`` rejects.

        Asked once per transaction: a record's fate is its transaction's.
        Returns how many records went.
        """
        removed = 0
        for transaction, entries in list(self._of.items()):
            object_name, number = entries[0]
            if not keep(transaction, self._on[object_name][number][1]):
                removed += self.drop(transaction)
        return removed

    def __len__(self) -> int:
        return self._size
