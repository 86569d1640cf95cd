"""B-tree index maintenance workload.

Transactions search, insert, delete and range-scan one or more B-tree
index objects.  Because the index's conflict specification is key-granular,
fine-grained schedulers admit most interleavings, whereas the coarse
single-active-object baseline serialises every pair of transactions that
touch the same index — the contrast experiments E1 and E5 measure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from ...core.errors import WorkloadError
from ...objectbase.adts.btree import btree_definition
from ...objectbase.base import MethodDefinition, ObjectBase
from ..transactions import TransactionSpec
from .base import Workload


def _index_name(index: int) -> str:
    return f"index-{index}"


@dataclass
class BTreeWorkload(Workload):
    """Key lookups, insertions, deletions and scans over B-tree indexes."""

    indexes: int = 1
    transactions: int = 24
    operations_per_transaction: int = 4
    key_space: int = 200
    initial_keys: int = 100
    degree: int = 3
    read_fraction: float = 0.5
    scan_fraction: float = 0.1
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.read_fraction + self.scan_fraction <= 1:
            raise WorkloadError("read and scan fractions must sum to at most 1")
        if self.initial_keys > self.key_space:
            raise WorkloadError("initial_keys cannot exceed the key space")
        self._rng = random.Random(self.seed)

    def build_object_base(self) -> ObjectBase:
        base = ObjectBase()
        for index in range(self.indexes):
            keys = self._rng.sample(range(self.key_space), self.initial_keys)
            initial_items = {key: f"row-{key}" for key in keys}
            base.register(btree_definition(_index_name(index), self.degree, initial_items))
        self._register_transactions(base)
        return base

    def _register_transactions(self, base: ObjectBase) -> None:
        def maintain(ctx, index_name: str, actions):
            results = []
            for action, key in actions:
                if action == "search":
                    results.append((yield ctx.invoke(index_name, "search", key)))
                elif action == "insert":
                    results.append((yield ctx.invoke(index_name, "insert", key, f"row-{key}")))
                elif action == "delete":
                    results.append((yield ctx.invoke(index_name, "delete", key)))
                else:  # range scan: key is a (low, high) pair
                    low, high = key
                    results.append((yield ctx.invoke(index_name, "range", low, high)))
            return tuple(results)

        def report(ctx, index_name: str, low, high):
            rows = yield ctx.invoke(index_name, "range", low, high)
            total = yield ctx.invoke(index_name, "size")
            return len(rows), total

        base.register_transaction(MethodDefinition("maintain", maintain))
        base.register_transaction(MethodDefinition("report", report, read_only=True))

    def _random_action(self) -> tuple[str, object]:
        draw = self._rng.random()
        key = self._rng.randrange(self.key_space)
        if draw < self.read_fraction:
            return ("search", key)
        if draw < self.read_fraction + self.scan_fraction:
            low = self._rng.randrange(self.key_space)
            return ("scan", (low, min(self.key_space, low + self.key_space // 10)))
        if self._rng.random() < 0.5:
            return ("insert", key)
        return ("delete", key)

    def iter_transactions(self) -> Iterator[TransactionSpec]:
        for index in range(self.transactions):
            target = _index_name(self._rng.randrange(self.indexes))
            actions = tuple(
                self._random_action() for _ in range(self.operations_per_transaction)
            )
            yield TransactionSpec("maintain", (target, actions), label=f"maintain-{index}")
