"""Producer/consumer workload over FIFO queue objects.

This is the workload behind experiment E2: the paper (Section 5.1) argues
that locking *steps* instead of *operations* pays off exactly for queues,
because an ``Enqueue`` only conflicts with the ``Dequeue`` that removes the
item it inserted.  With the queues pre-populated, enqueues and dequeues of
incomparable transactions almost never conflict at the step level, while at
the operation level every producer blocks every consumer on the same
queue.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from ...core.errors import WorkloadError
from ...objectbase.adts.fifo_queue import fifo_queue_definition
from ...objectbase.base import MethodDefinition, ObjectBase
from ..transactions import TransactionSpec
from .base import Workload


def _queue_name(index: int) -> str:
    return f"queue-{index:02d}"


@dataclass
class QueueWorkload(Workload):
    """Producers enqueue batches of unique items; consumers drain them."""

    queues: int = 2
    producers: int = 8
    consumers: int = 8
    items_per_transaction: int = 3
    initial_depth: int = 10
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.queues < 1:
            raise WorkloadError("the queue workload needs at least one queue")
        self._rng = random.Random(self.seed)

    def build_object_base(self) -> ObjectBase:
        base = ObjectBase()
        for index in range(self.queues):
            initial_items = tuple(
                f"seed-item-{index}-{position}" for position in range(self.initial_depth)
            )
            base.register(fifo_queue_definition(_queue_name(index), initial_items))
        self._register_transactions(base)
        return base

    def _register_transactions(self, base: ObjectBase) -> None:
        def produce(ctx, queue_name: str, items):
            for item in items:
                yield ctx.invoke(queue_name, "enqueue", item)
            return len(items)

        def consume(ctx, queue_name: str, count: int):
            taken = []
            for _ in range(count):
                item = yield ctx.invoke(queue_name, "dequeue")
                if item is not None:
                    taken.append(item)
            return tuple(taken)

        def inspect(ctx, queue_name: str):
            length = yield ctx.invoke(queue_name, "length")
            return length

        base.register_transaction(MethodDefinition("produce", produce))
        base.register_transaction(MethodDefinition("consume", consume))
        base.register_transaction(MethodDefinition("inspect", inspect, read_only=True))

    def iter_transactions(self) -> Iterator[TransactionSpec]:
        specs: list[TransactionSpec] = []
        for producer in range(self.producers):
            queue = self._rng.randrange(self.queues)
            items = tuple(f"item-{producer}-{n}" for n in range(self.items_per_transaction))
            arguments = (_queue_name(queue), items)
            specs.append(TransactionSpec("produce", arguments, label=f"produce@{queue}"))
        for consumer in range(self.consumers):
            queue = self._rng.randrange(self.queues)
            arguments = (_queue_name(queue), self.items_per_transaction)
            specs.append(TransactionSpec("consume", arguments, label=f"consume@{queue}"))
        self._rng.shuffle(specs)  # the mix is drawn whole, then shuffled
        yield from specs

    def total_items_produced(self) -> int:
        """Upper bound on items enqueued by producers (all unique)."""
        return self.producers * self.items_per_transaction
