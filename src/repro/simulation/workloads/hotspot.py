"""Hot-spot workload: read/write registers with a tunable contention knob.

Every transaction reads and rewrites a handful of registers; with
probability ``hot_probability`` each access lands on one of a few *hot*
registers, otherwise on a private cold register.  Sweeping
``hot_probability`` from 0 to 1 moves the system from no contention to
every transaction fighting over the same objects — the axis experiments E3
(N2PL vs NTO) and E8 (deadlock rates) explore.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from ...core.errors import WorkloadError
from ...objectbase.adts.register import register_definition
from ...objectbase.base import MethodDefinition, ObjectBase, ObjectDefinition
from ..transactions import TransactionSpec
from .base import Workload


def _hot_name(index: int) -> str:
    return f"hot-{index}"


def _cold_name(index: int) -> str:
    return f"cold-{index:03d}"


@dataclass
class HotspotWorkload(Workload):
    """Update transactions over a small hot set and a large cold set."""

    transactions: int = 24
    hot_objects: int = 2
    cold_objects: int = 48
    operations_per_transaction: int = 4
    hot_probability: float = 0.5
    use_service_layer: bool = True
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.hot_probability <= 1:
            raise WorkloadError("hot_probability must lie in [0, 1]")
        if self.hot_objects < 1 or self.cold_objects < 1:
            raise WorkloadError("the hotspot workload needs hot and cold objects")
        self._rng = random.Random(self.seed)

    def build_object_base(self) -> ObjectBase:
        base = ObjectBase()
        for index in range(self.hot_objects):
            base.register(register_definition(_hot_name(index), 0))
        for index in range(self.cold_objects):
            base.register(register_definition(_cold_name(index), 0))
        if self.use_service_layer:
            base.register(self._service_definition())
        self._register_transactions(base)
        return base

    def _service_definition(self) -> ObjectDefinition:
        """A stateless service object, adding one extra nesting level."""
        definition = ObjectDefinition(name="update-service")

        def bump(ctx, register_name: str, delta: int):
            current = yield ctx.invoke(register_name, "read")
            yield ctx.invoke(register_name, "write", (current or 0) + delta)
            return current

        definition.add_method(MethodDefinition("bump", bump))
        return definition

    def _register_transactions(self, base: ObjectBase) -> None:
        use_service = self.use_service_layer

        def update(ctx, register_names, delta: int):
            previous = []
            for register_name in register_names:
                if use_service:
                    value = yield ctx.invoke("update-service", "bump", register_name, delta)
                else:
                    value = yield ctx.invoke(register_name, "read")
                    yield ctx.invoke(register_name, "write", (value or 0) + delta)
                previous.append(value)
            return tuple(previous)

        def scan(ctx, register_names):
            values = yield ctx.parallel(
                *[ctx.call(register_name, "read") for register_name in register_names]
            )
            return tuple(values)

        base.register_transaction(MethodDefinition("update", update))
        base.register_transaction(MethodDefinition("scan", scan))

    def _pick_register(self, transaction_index: int) -> str:
        if self._rng.random() < self.hot_probability:
            return _hot_name(self._rng.randrange(self.hot_objects))
        return _cold_name(self._rng.randrange(self.cold_objects))

    def _reachable_registers(self) -> int:
        """How many distinct registers accesses can land on at all."""
        reachable = 0
        if self.hot_probability > 0:
            reachable += self.hot_objects
        if self.hot_probability < 1:
            reachable += self.cold_objects
        return reachable

    def iter_transactions(self) -> Iterator[TransactionSpec]:
        # Degenerate contention settings (e.g. hot_probability=1.0 with two
        # hot registers) cannot yield operations_per_transaction *distinct*
        # names; cap the target so generation terminates.
        distinct_target = min(self.operations_per_transaction, self._reachable_registers())
        for index in range(self.transactions):
            names: list[str] = []
            # A hot_probability within rounding of 0 or 1 leaves one pool
            # unreachable in practice whatever _reachable_registers says;
            # settle for fewer names after a bounded number of repeats
            # (never approached by a setting that can reach the target).
            repeats = 0
            while len(names) < distinct_target and repeats < 100_000:
                candidate = self._pick_register(index)
                if candidate in names:
                    repeats += 1
                else:
                    names.append(candidate)
            yield TransactionSpec("update", (tuple(names), 1), label=f"update-{index}")
