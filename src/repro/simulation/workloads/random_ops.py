"""Synthetic random-operation workload.

Transactions perform random reads and writes over a pool of register
objects through a configurable hierarchy of stateless service objects, so
nesting depth, fan-out (internal parallelism) and conflict probability can
all be dialled independently.  Experiments E6 (internal parallelism) and E7
(serialisation-graph scaling) and several property-based tests use it.
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


def _register_name(index: int) -> str:
    return f"register-{index:03d}"


def _service_name(depth: int) -> str:
    return f"service-depth-{depth}"


@dataclass
class RandomOperationsWorkload(Workload):
    """Random read/write transactions with configurable nesting and fan-out."""

    registers: int = 32
    transactions: int = 20
    operations_per_transaction: int = 4
    write_fraction: float = 0.5
    nesting_depth: int = 2
    parallel_fanout: int = 1
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.nesting_depth < 1:
            raise WorkloadError("nesting_depth must be at least 1")
        if self.parallel_fanout < 1:
            raise WorkloadError("parallel_fanout must be at least 1")
        if not 0 <= self.write_fraction <= 1:
            raise WorkloadError("write_fraction must lie in [0, 1]")
        self._rng = random.Random(self.seed)

    # -- object base ---------------------------------------------------------------

    def build_object_base(self) -> ObjectBase:
        base = ObjectBase()
        for index in range(self.registers):
            base.register(register_definition(_register_name(index), 0))
        for depth in range(2, self.nesting_depth + 1):
            base.register(self._service_definition(depth))
        self._register_transactions(base)
        return base

    def _service_definition(self, depth: int) -> ObjectDefinition:
        """A service that forwards an access list one level further down."""
        definition = ObjectDefinition(name=_service_name(depth))
        deeper = depth - 1

        def perform(ctx, accesses):
            if deeper >= 2:
                result = yield ctx.invoke(_service_name(deeper), "perform", accesses)
                return result
            outcomes = []
            for kind, register_name, value in accesses:
                if kind == "read":
                    outcomes.append((yield ctx.invoke(register_name, "read")))
                else:
                    outcomes.append((yield ctx.invoke(register_name, "write", value)))
            return tuple(outcomes)

        definition.add_method(MethodDefinition("perform", perform))
        return definition

    # -- transactions ----------------------------------------------------------------

    def _register_transactions(self, base: ObjectBase) -> None:
        depth = self.nesting_depth
        fanout = self.parallel_fanout

        def run(ctx, access_groups):
            if depth >= 2:
                calls = [
                    ctx.call(_service_name(depth), "perform", group) for group in access_groups
                ]
            else:
                calls = None
            if calls is not None and fanout > 1 and len(access_groups) > 1:
                results = yield ctx.parallel(*calls)
                return tuple(results)
            outcomes = []
            for group in access_groups:
                if calls is not None:
                    outcomes.append((yield ctx.invoke(_service_name(depth), "perform", group)))
                else:
                    for kind, register_name, value in group:
                        if kind == "read":
                            outcomes.append((yield ctx.invoke(register_name, "read")))
                        else:
                            outcomes.append((yield ctx.invoke(register_name, "write", value)))
            return tuple(outcomes)

        base.register_transaction(MethodDefinition("run", run))

    def _random_accesses(self, count: int, label: str) -> tuple:
        accesses = []
        for sequence in range(count):
            register = _register_name(self._rng.randrange(self.registers))
            if self._rng.random() < self.write_fraction:
                accesses.append(("write", register, f"{label}-{sequence}"))
            else:
                accesses.append(("read", register, None))
        return tuple(accesses)

    def iter_transactions(self) -> Iterator[TransactionSpec]:
        for index in range(self.transactions):
            groups = []
            per_group = max(1, self.operations_per_transaction // self.parallel_fanout)
            for group_index in range(self.parallel_fanout):
                groups.append(self._random_accesses(per_group, f"t{index}g{group_index}"))
            yield TransactionSpec("run", (tuple(groups),), label=f"run-{index}")
