"""Workload generators: object bases plus transaction mixes for the engine.

Each workload is a dataclass :class:`~.base.Workload` whose fields are
the knobs an experiment sweeps (population sizes, contention
probabilities, seeds): ``build_object_base()`` makes the object base and
``iter_transactions()`` yields the specs to submit, one as it is read
(``build()`` returns both, the specs as a list).  :data:`WORKLOAD_REGISTRY`
maps short names to the classes so that declarative scenario
specifications (:mod:`repro.sweep`) can reference workloads by name and
construct them inside worker processes from JSON-serialisable parameters.
"""

from __future__ import annotations

from typing import Any, Mapping

from ...core.registry import resolve_component
from .banking import BankingWorkload
from .base import Workload
from .btree_load import BTreeWorkload
from .hotspot import HotspotWorkload
from .mixed import MixedWorkload
from .order_processing import OrderProcessingWorkload
from .queues import QueueWorkload
from .random_ops import RandomOperationsWorkload
from .stream import (
    StreamingBankingWorkload,
    StreamingBTreeWorkload,
    StreamingHotspotWorkload,
    StreamingMixedWorkload,
    StreamingOrderProcessingWorkload,
    StreamingQueueWorkload,
    StreamingRandomOperationsWorkload,
    StreamingWorkload,
    StreamingZipfianWorkload,
)
from .zipf import ZipfianWorkload

#: Short names accepted by :func:`make_workload` and ``repro.sweep`` specs.
#: The ``*-stream`` entries wrap the matching closed-batch generator in an
#: arrival process (see :mod:`repro.simulation.workloads.stream`); the
#: generic ``"stream"`` entry picks the inner workload via its ``inner``
#: parameter.
WORKLOAD_REGISTRY: dict[str, type] = {
    "banking": BankingWorkload,
    "btree": BTreeWorkload,
    "hotspot": HotspotWorkload,
    "mixed": MixedWorkload,
    "order-processing": OrderProcessingWorkload,
    "queue": QueueWorkload,
    "random-ops": RandomOperationsWorkload,
    "zipf": ZipfianWorkload,
    "stream": StreamingWorkload,
    "banking-stream": StreamingBankingWorkload,
    "btree-stream": StreamingBTreeWorkload,
    "hotspot-stream": StreamingHotspotWorkload,
    "mixed-stream": StreamingMixedWorkload,
    "order-processing-stream": StreamingOrderProcessingWorkload,
    "queue-stream": StreamingQueueWorkload,
    "random-ops-stream": StreamingRandomOperationsWorkload,
    "zipf-stream": StreamingZipfianWorkload,
}


def make_workload(name: "str | Mapping[str, Any] | Any", **params: Any):
    """Instantiate a workload from a name, a config mapping, or an instance.

    Accepted shapes (the uniform component-specification contract of
    :func:`repro.core.registry.resolve_component`):

    * ``"hotspot"`` — a :data:`WORKLOAD_REGISTRY` key, optionally with
      ``**params`` as constructor keywords;
    * ``{"name": "hotspot", "registers": 32}`` — a registry name plus
      constructor keywords (``**params`` are merged in);
    * a ready workload instance — anything with a callable ``build``
      attribute — returned unchanged (keywords are rejected).

    Returns:
        The workload instance (not yet built — call :meth:`build` on it).

    Raises:
        KeyError: when the name is not registered.
        TypeError: on keywords the workload does not accept, or an
            unsupported specification type.
    """
    if not isinstance(name, (str, Mapping)) and callable(
        getattr(name, "build", None)
    ):
        if params:
            raise TypeError(
                f"cannot apply keyword arguments to a ready "
                f"{type(name).__name__} instance"
            )
        return name
    return resolve_component(WORKLOAD_REGISTRY, name, kind="workload", **params)


def workload_names() -> list[str]:
    """Names accepted by :func:`make_workload`."""
    return sorted(WORKLOAD_REGISTRY)


__all__ = [
    "BankingWorkload",
    "BTreeWorkload",
    "HotspotWorkload",
    "MixedWorkload",
    "OrderProcessingWorkload",
    "QueueWorkload",
    "RandomOperationsWorkload",
    "StreamingBankingWorkload",
    "StreamingBTreeWorkload",
    "StreamingHotspotWorkload",
    "StreamingMixedWorkload",
    "StreamingOrderProcessingWorkload",
    "StreamingQueueWorkload",
    "StreamingRandomOperationsWorkload",
    "StreamingWorkload",
    "StreamingZipfianWorkload",
    "Workload",
    "ZipfianWorkload",
    "WORKLOAD_REGISTRY",
    "make_workload",
    "workload_names",
]
