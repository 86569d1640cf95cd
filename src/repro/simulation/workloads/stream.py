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

The wrapper validates eagerly on two levels: its own ``__post_init__``
(bad construction fails immediately) and the
:meth:`StreamingWorkload.validate_params` hook the sweep layer calls
while a :class:`~repro.sweep.spec.ScenarioSpec` is being built — a typo'd
inner parameter or an unknown arrival process fails at spec construction,
before any worker process is spawned.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping

from ...core.errors import WorkloadError
from ..arrivals import ArrivalProcess, ARRIVAL_REGISTRY, make_arrival_process
from . import WORKLOAD_REGISTRY, make_workload
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
        self.validate_params(
            {
                "inner": self.inner,
                "inner_params": self.inner_params,
                "arrival": self.arrival,
                "arrival_params": self.arrival_params,
            },
            default_inner=self.inner,
        )
        # Constructing the inner workload also runs its own validation.
        self._inner_workload = self._make_inner()

    def _make_inner(self) -> Any:
        return make_workload(self.inner, **self.inner_params)

    # -- eager validation (shared with the sweep layer) ---------------------------

    @classmethod
    def validate_params(
        cls, params: Mapping[str, Any], default_inner: str | None = None
    ) -> None:
        """Validate streaming parameters without building anything.

        Called by :meth:`repro.sweep.spec.ScenarioSpec.validate` so a
        sweep over streaming scenarios rejects unknown inner workloads,
        unknown inner parameters, unknown arrival processes and unknown
        arrival keywords at spec-construction time.

        Args:
            params: the ``workload_params`` mapping of a scenario.
            default_inner: inner workload assumed when ``params`` does
                not name one (subclasses pin it via their field default).

        Raises:
            WorkloadError: on any unknown name or keyword.
        """
        if default_inner is None:
            default_inner = next(
                f.default for f in dataclasses.fields(cls) if f.name == "inner"
            )
        inner = params.get("inner", default_inner)
        if inner not in WORKLOAD_REGISTRY:
            raise WorkloadError(
                f"unknown inner workload {inner!r}; "
                f"available: {', '.join(sorted(WORKLOAD_REGISTRY))}"
            )
        inner_class = WORKLOAD_REGISTRY[inner]
        if issubclass(inner_class, StreamingWorkload):
            raise WorkloadError("streaming workloads cannot wrap one another")
        allowed = {
            spec_field.name
            for spec_field in dataclasses.fields(inner_class)
            if spec_field.init
        }
        inner_params = params.get("inner_params", {})
        unknown = sorted(set(inner_params) - allowed)
        if unknown:
            raise WorkloadError(
                f"inner workload {inner!r} has no parameters {unknown}; "
                f"available: {', '.join(sorted(allowed))}"
            )
        arrival = params.get("arrival", "poisson")
        if not isinstance(arrival, str) or arrival not in ARRIVAL_REGISTRY:
            raise WorkloadError(
                f"unknown arrival process {arrival!r}; "
                f"available: {', '.join(sorted(ARRIVAL_REGISTRY))}"
            )
        arrival_params = params.get("arrival_params", {})
        try:
            # Constructing the process validates keywords *and* values
            # (negative rates, zero-sized bursts) in one go; it is cheap
            # and side-effect free.
            ARRIVAL_REGISTRY[arrival](**dict(arrival_params))
        except (TypeError, ValueError) as exc:
            raise WorkloadError(
                f"arrival process {arrival!r} rejects parameters "
                f"{sorted(arrival_params)}: {exc}"
            ) from exc

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


@dataclass
class StreamingHotspotWorkload(StreamingWorkload):
    """Hot-spot contention as an arrival stream (E15's default subject)."""

    inner: str = "hotspot"


@dataclass
class StreamingBankingWorkload(StreamingWorkload):
    """Banking transfers as an arrival stream."""

    inner: str = "banking"


@dataclass
class StreamingMixedWorkload(StreamingWorkload):
    """The mixed-ADT workload as an arrival stream."""

    inner: str = "mixed"


@dataclass
class StreamingQueueWorkload(StreamingWorkload):
    """Producer/consumer queues as an arrival stream."""

    inner: str = "queue"


@dataclass
class StreamingRandomOperationsWorkload(StreamingWorkload):
    """Random register operations as an arrival stream."""

    inner: str = "random-ops"


@dataclass
class StreamingBTreeWorkload(StreamingWorkload):
    """B-tree index traffic as an arrival stream."""

    inner: str = "btree"


@dataclass
class StreamingZipfianWorkload(StreamingWorkload):
    """Zipf-skewed register traffic as an arrival stream (E19's hot/cold mix)."""

    inner: str = "zipf"


@dataclass
class StreamingOrderProcessingWorkload(StreamingWorkload):
    """The order-processing pipeline as an arrival stream."""

    inner: str = "order-processing"
