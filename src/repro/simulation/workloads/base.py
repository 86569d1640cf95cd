"""The workload protocol: an object base plus a stream of transactions."""

from __future__ import annotations

from ...objectbase.base import ObjectBase
from ..transactions import TransactionSpec


class Workload:
    """Generates an object base and the transactions to run against it.

    A subclass defines ``build_object_base()`` and ``iter_transactions()``,
    a generator that draws each spec as it is read, so a stream run holds
    only the specs in flight.  Both draw from the workload's one seeded
    RNG: call each once, in that order.
    """

    def build(self) -> tuple[ObjectBase, list[TransactionSpec]]:
        """The object base plus the whole transaction list, ready for the engine."""
        return self.build_object_base(), list(self.iter_transactions())
