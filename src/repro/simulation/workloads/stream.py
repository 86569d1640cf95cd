"""Streaming wrappers: any registered workload as an open arrival stream.

A :class:`StreamingWorkload` delegates object-base and transaction
generation to an *inner* workload named in
:data:`~repro.simulation.workloads.WORKLOAD_REGISTRY` and adds the one
thing an open-system run needs: an
:class:`~repro.simulation.arrivals.ArrivalProcess` configuration.  The
sweep runner detects the :meth:`arrival_process` hook and feeds the
inner ``iter_transactions()`` to
:meth:`~repro.simulation.engine.SimulationEngine.submit_stream`, which
draws each spec as it falls due, so every generator doubles as an open
workload and arrival rate becomes a declarative sweep axis
(``workload_params.arrival_params``).

Construction builds the inner workload and the arrival process, so a
typo'd inner parameter or an unknown arrival process fails at once — at
:class:`~repro.sweep.spec.ScenarioSpec` construction, which builds the
workload, before any worker process is spawned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ...core.errors import WorkloadError
from ..arrivals import ArrivalProcess, make_arrival_process
from . import make_workload
from .base import Workload


@dataclass
class StreamingWorkload(Workload):
    """An inner workload plus the arrival process that feeds it in.

    Args:
        inner: registry name of the wrapped workload (``"hotspot"``, ...).
        inner_params: constructor arguments of the inner workload
            (``transactions`` controls the stream length).
        arrival: arrival process registry name (``"poisson"``,
            ``"bursty"``).
        arrival_params: constructor arguments of the arrival process
            (e.g. ``{"rate": 0.05}``).
    """

    inner: str = "hotspot"
    inner_params: dict[str, Any] = field(default_factory=dict)
    arrival: str = "poisson"
    arrival_params: dict[str, Any] = field(default_factory=dict)
    _inner_workload: Any = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        # Each part checks itself: the inner workload's constructor its
        # name and keywords, the arrival process's its own.
        self._inner_workload = make_workload(self.inner, **self.inner_params)
        if isinstance(self._inner_workload, StreamingWorkload):
            raise WorkloadError("streaming workloads cannot wrap one another")
        self.arrival_process()

    # -- building ------------------------------------------------------------------

    def build_object_base(self):
        return self._inner_workload.build_object_base()

    def iter_transactions(self):
        return self._inner_workload.iter_transactions()

    def arrival_process(self) -> ArrivalProcess:
        """The configured arrival process (fresh instance; engine binds it)."""
        return make_arrival_process(self.arrival, **self.arrival_params)

    def modular_strategy_map(self) -> dict[str, str]:
        """Forward the inner workload's per-object strategy preferences."""
        mapper = getattr(self._inner_workload, "modular_strategy_map", None)
        if mapper is None:
            raise WorkloadError(
                f"inner workload {self.inner!r} does not define modular_strategy_map()"
            )
        return mapper()

