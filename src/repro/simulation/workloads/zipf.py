"""Zipfian key-skew workload: a popularity continuum instead of hot/cold.

The hotspot workload (:mod:`repro.simulation.workloads.hotspot`) models
contention as a binary — an access is either *hot* or *cold* — which makes
the right per-object strategy assignment obvious.  Real key popularity
follows a power law: a few objects are scorching, a long tail is nearly
idle, and a *band in the middle* is contended enough that restarts hurt
but not enough that blocking locks obviously pay.  That band is where an
adaptive scheduler has to actually measure rather than guess, so this
workload is the primary subject of the E19 mixed hot/cold scenario.

Accesses pick register ``r`` (rank ``r + 1``) with probability
proportional to ``1 / (r + 1) ** skew`` — ``skew=0`` degenerates to a
uniform workload, ``skew`` around 1 is the classical Zipf shape, higher
values concentrate almost all traffic on the first few ranks.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import Iterator

from ...core.errors import WorkloadError
from ...objectbase.adts.register import register_definition
from ...objectbase.base import MethodDefinition, ObjectBase
from ..transactions import TransactionSpec
from .base import Workload


def _register_name(rank: int) -> str:
    return f"key-{rank:03d}"


@dataclass
class ZipfianWorkload(Workload):
    """Read/update transactions over registers with power-law popularity."""

    transactions: int = 24
    objects: int = 64
    operations_per_transaction: int = 4
    skew: float = 1.1
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)
    _cumulative: list[float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.objects < 1:
            raise WorkloadError("the zipfian workload needs at least one object")
        if self.transactions < 1:
            raise WorkloadError(
                f"the zipfian workload needs at least one transaction, "
                f"got {self.transactions}"
            )
        if self.operations_per_transaction < 1:
            raise WorkloadError("operations_per_transaction must be >= 1")
        if self.skew < 0:
            raise WorkloadError(f"zipf skew must be >= 0, got {self.skew}")
        self._rng = random.Random(self.seed)
        # Inverse-CDF sampling over the finite Zipf distribution: the
        # cumulative weights are a pure function of (objects, skew), so
        # the draw sequence is a pure function of the workload seed.
        total = 0.0
        self._cumulative = []
        for rank in range(1, self.objects + 1):
            total += 1.0 / rank**self.skew
            self._cumulative.append(total)

    def _pick_rank(self) -> int:
        point = self._rng.random() * self._cumulative[-1]
        return bisect.bisect_left(self._cumulative, point)

    def build_object_base(self) -> ObjectBase:
        base = ObjectBase()
        for rank in range(self.objects):
            base.register(register_definition(_register_name(rank), 0))
        self._register_transactions(base)
        return base

    def _register_transactions(self, base: ObjectBase) -> None:
        def update(ctx, register_names, delta: int):
            previous = []
            for register_name in register_names:
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
        base.register_transaction(MethodDefinition("scan", scan, read_only=True))

    def iter_transactions(self) -> Iterator[TransactionSpec]:
        distinct_target = min(self.operations_per_transaction, self.objects)
        for index in range(self.transactions):
            names: list[str] = []
            while len(names) < distinct_target:
                candidate = _register_name(self._pick_rank())
                if candidate not in names:
                    names.append(candidate)
            yield TransactionSpec("update", (tuple(names), 1), label=f"update-{index}")
