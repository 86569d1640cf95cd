"""Seeded arrival processes for open-system simulation.

A closed batch is submitted up front and drained, which measures a
scheduler only on the transient of a starting burst.  An
:class:`ArrivalProcess` turns the same transactions into an *open*
workload: its :meth:`~ArrivalProcess.ticks` give each a deterministic
arrival tick, and
:meth:`~repro.simulation.engine.SimulationEngine.submit_stream` reads
tick and spec only when the previous arrival is released, so a run holds
the input in flight, not the whole stream.  Per-transaction latency
(arrival → commit), sustained throughput, the in-flight count and the
saturation point — the arrival rate beyond which the in-flight
population grows without bound — then become measurable
(``benchmarks/bench_e15_open_system.py`` sweeps them).

All randomness is owned by the process and seeded from the engine seed
at :meth:`~ArrivalProcess.bind`, each process XOR-ing it with its own
constant: a run remains a pure function of ``(workload seed, engine
seed, arrival process configuration)``, exactly like the restart policies
(:mod:`repro.scheduler.restart`), so the sweep layer's serial/parallel
determinism guarantee extends to streaming scenarios.  Like those
policies, processes are built from JSON-friendly shapes (a registry name,
or a ``{"name": ..., **kwargs}`` mapping) so sweep axes can target them
declaratively.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Any, Iterator, Mapping

from ..core.registry import LazyTable, resolve_component

#: Registry name of the default arrival process.
POISSON_ARRIVALS = "poisson"


class ArrivalProcess:
    """Assigns deterministic arrival ticks to a stream of transactions.

    The engine drives one process instance per run:

    * :meth:`bind` — called with the engine seed when the run's feed
      reaches the stream; must reset all process state (a process may be
      constructed once and bound to a fresh run later);
    * :meth:`ticks` — yield the non-decreasing arrival ticks, one per
      transaction, as the stream reads them.
    """

    name = "abstract"

    def bind(self, seed: int) -> None:
        """Reset the process for a fresh run seeded with the engine seed."""

    def interarrival(self, index: int) -> int:
        """Ticks between arrival ``index - 1`` and arrival ``index`` (>= 0).

        ``index`` counts from 0; the first transaction arrives
        ``interarrival(0)`` ticks after the stream starts.
        """
        return 0

    def ticks(self) -> Iterator[int]:
        """The cumulative arrival ticks, one per transaction, drawn as they are read."""
        current = 0
        for index in itertools.count():
            gap = int(self.interarrival(index))
            if gap < 0:
                raise ValueError(
                    f"arrival process {self.name!r} produced a negative gap {gap}"
                )
            current += gap
            yield current

    def schedule(self, count: int) -> list[int]:
        """The first ``count`` of :meth:`ticks`."""
        return list(itertools.islice(self.ticks(), count))

    def describe(self) -> dict[str, Any]:
        """Process description merged into run metadata."""
        return {"name": self.name}

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class PoissonArrivals(ArrivalProcess):
    """Deterministic Poisson-like arrivals at a target rate.

    Inter-arrival gaps are drawn from a seeded exponential distribution
    with mean ``1 / rate`` ticks and rounded to whole ticks, so the
    long-run arrival rate is ``rate`` transactions per tick and the gaps
    are memoryless — the standard open-system reference stream.

    Args:
        rate: mean arrivals per tick (``0.1`` = one transaction every 10
            ticks on average).  Must be positive.
    """

    name = "poisson"

    def __init__(self, rate: float = 0.1):
        if not rate > 0:
            raise ValueError(f"poisson arrival rate must be > 0, got {rate}")
        self.rate = float(rate)
        self.bind(0)

    def bind(self, seed: int) -> None:
        # XOR with a fixed odd constant decouples the arrival stream from
        # the engine's tick-choice stream (and from the restart policy's
        # stream, which uses a different constant) without introducing any
        # process-dependent state.
        self._rng = random.Random(seed ^ 0x85EBCA6B)

    def interarrival(self, index: int) -> int:
        return round(self._rng.expovariate(self.rate))

    def describe(self) -> dict[str, Any]:
        return {"name": self.name, "rate": self.rate}


class BurstyArrivals(ArrivalProcess):
    """Clustered arrivals: bursts of back-to-back transactions, then silence.

    Every ``burst`` consecutive transactions arrive ``within_gap`` ticks
    apart; the next burst starts after a seeded uniformly random pause
    from ``[1, 2 * mean_gap]`` (mean ``mean_gap + 0.5``), modelling the
    flash-crowd traffic shape that stresses admission far harder than a
    smooth Poisson stream of the same average rate.

    Args:
        burst: transactions per burst (>= 1).
        mean_gap: mean pause in ticks between bursts (>= 1).
        within_gap: ticks between the members of one burst (>= 0).
    """

    name = "bursty"

    def __init__(
        self,
        burst: int = 8,
        mean_gap: int = 64,
        within_gap: int = 0,
    ):
        if burst < 1:
            raise ValueError(f"burst size must be >= 1, got {burst}")
        if mean_gap < 1:
            raise ValueError(f"mean burst gap must be >= 1, got {mean_gap}")
        if within_gap < 0:
            raise ValueError(f"within-burst gap must be >= 0, got {within_gap}")
        self.burst = burst
        self.mean_gap = mean_gap
        self.within_gap = within_gap
        self.bind(0)

    def bind(self, seed: int) -> None:
        self._rng = random.Random(seed ^ 0xC2B2AE35)

    def interarrival(self, index: int) -> int:
        if index % self.burst == 0 and index > 0:
            return 1 + self._rng.randrange(2 * self.mean_gap)
        return 0 if index == 0 else self.within_gap

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "burst": self.burst,
            "mean_gap": self.mean_gap,
            "within_gap": self.within_gap,
        }


class DiurnalArrivals(ArrivalProcess):
    """Poisson arrivals whose rate follows a smooth day/night load curve.

    The instantaneous rate oscillates sinusoidally around ``rate`` with
    relative amplitude ``amplitude`` and period ``period`` ticks:
    ``rate * (1 + amplitude * sin(2π * t / period))``, evaluated at the
    previous arrival's tick.  A scheduler tuned on the mean rate sees
    alternating stretches of near-idle and near-double load — the shape
    that rewards demoting objects to optimistic strategies during the
    trough and promoting them before the peak saturates.

    Args:
        rate: mean arrivals per tick, as for :class:`PoissonArrivals`.
        amplitude: relative swing of the rate in ``[0, 1)``; ``0.8`` means
            the rate sweeps between 0.2× and 1.8× the mean.
        period: full day length in ticks (>= 2).
    """

    name = "diurnal"

    def __init__(
        self,
        rate: float = 0.1,
        amplitude: float = 0.8,
        period: int = 4096,
    ):
        if not rate > 0:
            raise ValueError(f"diurnal mean rate must be > 0, got {rate}")
        if not 0 <= amplitude < 1:
            raise ValueError(
                f"diurnal amplitude must lie in [0, 1), got {amplitude}"
            )
        if period < 2:
            raise ValueError(f"diurnal period must be >= 2 ticks, got {period}")
        self.rate = float(rate)
        self.amplitude = float(amplitude)
        self.period = int(period)
        self.bind(0)

    def bind(self, seed: int) -> None:
        self._rng = random.Random(seed ^ 0x27D4EB2F)
        self._clock = 0

    def interarrival(self, index: int) -> int:
        phase = math.sin(math.tau * (self._clock % self.period) / self.period)
        instantaneous = self.rate * (1.0 + self.amplitude * phase)
        gap = round(self._rng.expovariate(instantaneous))
        self._clock += gap
        return gap

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "rate": self.rate,
            "amplitude": self.amplitude,
            "period": self.period,
        }


class FlashCrowdArrivals(ArrivalProcess):
    """A steady Poisson baseline punctuated by sudden sustained spikes.

    Arrivals follow the baseline ``rate`` until a seeded exponential timer
    (mean ``mean_calm`` ticks) fires; the rate then jumps to
    ``rate * spike_factor`` for ``spike_length`` ticks before collapsing
    back.  Unlike :class:`BurstyArrivals` — whose bursts are a fixed-size
    clump of back-to-back transactions — a flash crowd is an *interval* of
    elevated rate: the in-flight population climbs for the whole spike,
    which is the admission pattern that forces an adaptive scheduler to
    promote hot objects mid-run and demote them after the crowd passes.

    Args:
        rate: baseline arrivals per tick (> 0).
        spike_factor: rate multiplier during a spike (> 1).
        spike_length: duration of one spike in ticks (>= 1).
        mean_calm: mean ticks of baseline traffic between spikes (>= 1).
    """

    name = "flash-crowd"

    def __init__(
        self,
        rate: float = 0.05,
        spike_factor: float = 8.0,
        spike_length: int = 256,
        mean_calm: int = 2048,
    ):
        if not rate > 0:
            raise ValueError(f"flash-crowd baseline rate must be > 0, got {rate}")
        if not spike_factor > 1:
            raise ValueError(
                f"flash-crowd spike factor must be > 1, got {spike_factor}"
            )
        if spike_length < 1:
            raise ValueError(
                f"flash-crowd spike length must be >= 1, got {spike_length}"
            )
        if mean_calm < 1:
            raise ValueError(
                f"flash-crowd mean calm period must be >= 1, got {mean_calm}"
            )
        self.rate = float(rate)
        self.spike_factor = float(spike_factor)
        self.spike_length = int(spike_length)
        self.mean_calm = int(mean_calm)
        self.bind(0)

    def bind(self, seed: int) -> None:
        self._rng = random.Random(seed ^ 0x165667B1)
        self._clock = 0
        self._spike_until = 0
        self._next_spike = 1 + round(self._rng.expovariate(1.0 / self.mean_calm))

    def interarrival(self, index: int) -> int:
        if self._clock >= self._next_spike:
            self._spike_until = self._next_spike + self.spike_length
            self._next_spike = self._spike_until + 1 + round(
                self._rng.expovariate(1.0 / self.mean_calm)
            )
        instantaneous = (
            self.rate * self.spike_factor
            if self._clock < self._spike_until
            else self.rate
        )
        gap = round(self._rng.expovariate(instantaneous))
        self._clock += gap
        return gap

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "rate": self.rate,
            "spike_factor": self.spike_factor,
            "spike_length": self.spike_length,
            "mean_calm": self.mean_calm,
        }


ARRIVAL_REGISTRY: LazyTable = LazyTable(
    __name__,
    {
        "poisson": ":PoissonArrivals",
        "bursty": ":BurstyArrivals",
        "diurnal": ":DiurnalArrivals",
        "flash-crowd": ":FlashCrowdArrivals",
    },
)


def arrival_process_names() -> list[str]:
    """Names accepted by :func:`make_arrival_process` (and streaming workloads)."""
    return sorted(ARRIVAL_REGISTRY)


def make_arrival_process(
    process: "str | Mapping[str, Any] | ArrivalProcess" = POISSON_ARRIVALS,
    **kwargs: Any,
) -> ArrivalProcess:
    """Build an arrival process from a name, a config mapping, or an instance.

    Accepted shapes (all JSON-friendly, so sweep axes can target the
    streaming workloads' ``arrival`` / ``arrival_params`` fields
    directly):

    * ``"poisson"`` — a registry name, optionally with ``**kwargs``;
    * ``{"name": "bursty", "burst": 16}`` — a registry name plus
      constructor keywords (``**kwargs`` are merged in);
    * a ready :class:`ArrivalProcess` instance (returned unchanged;
      keywords are rejected).

    Raises:
        KeyError: on an unknown process name.
        TypeError: on keywords the process does not accept, or an
            unsupported specification type.
    """
    return resolve_component(
        ARRIVAL_REGISTRY,
        process,
        kind="arrival process",
        instance_of=ArrivalProcess,
        **kwargs,
    )
