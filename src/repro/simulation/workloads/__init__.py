"""Workload generators: object bases plus transaction mixes for the engine.

Each workload is a dataclass :class:`~.base.Workload` whose fields are
the knobs an experiment sweeps (population sizes, contention
probabilities, seeds): ``build_object_base()`` makes the object base and
``iter_transactions()`` yields the specs to submit, one as it is read
(``build()`` returns both, the specs as a list).  :data:`WORKLOAD_REGISTRY`
maps short names to the classes (or presets of them) so that declarative
scenario specifications (:mod:`repro.sweep`) can reference workloads by name
and construct them inside worker processes from JSON-serialisable parameters.
"""

from __future__ import annotations

from typing import Any, Mapping

from ...core.registry import LazyTable, lazy_surface, preset, resolve_component

#: Short names accepted by :func:`make_workload` and ``repro.sweep`` specs;
#: an entry's module loads when it is named.  The generic ``"stream"`` entry
#: wraps the workload its ``inner`` parameter names in an arrival process
#: (see :mod:`repro.simulation.workloads.stream`); each ``<name>-stream``
#: entry is that wrapper with ``inner`` fixed to ``<name>``.
_CLOSED = {
    "banking": ".banking:BankingWorkload",
    "btree": ".btree_load:BTreeWorkload",
    "hotspot": ".hotspot:HotspotWorkload",
    "mixed": ".mixed:MixedWorkload",
    "order-processing": ".order_processing:OrderProcessingWorkload",
    "queue": ".queues:QueueWorkload",
    "random-ops": ".random_ops:RandomOperationsWorkload",
    "zipf": ".zipf:ZipfianWorkload",
}
WORKLOAD_REGISTRY: LazyTable = LazyTable(
    __name__,
    {
        **_CLOSED,
        "stream": ".stream:StreamingWorkload",
        **{
            f"{inner}-stream": preset(".stream:StreamingWorkload", __name__, inner=inner)
            for inner in _CLOSED
        },
    },
)


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


_exports, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        ".banking": ("BankingWorkload",),
        ".base": ("Workload",),
        ".btree_load": ("BTreeWorkload",),
        ".hotspot": ("HotspotWorkload",),
        ".mixed": ("MixedWorkload",),
        ".order_processing": ("OrderProcessingWorkload",),
        ".queues": ("QueueWorkload",),
        ".random_ops": ("RandomOperationsWorkload",),
        ".stream": ("StreamingWorkload",),
        ".zipf": ("ZipfianWorkload",),
    },
)
__all__ = sorted([*_exports, "WORKLOAD_REGISTRY", "make_workload", "workload_names"])
