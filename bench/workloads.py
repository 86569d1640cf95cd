"""The five benchmark workloads, each one ``ScenarioSpec`` made from a seed.

Every workload is a function ``(seed, scale) -> ScenarioSpec fields``; the
program under test receives only the generated spec.  ``scale`` multiplies
the transaction count (smoke runs); rates, object counts and scheduler
settings never change with it.  Why each workload exists, which layer it
starves and how its rate was chosen is recorded in ``bench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping


def _count(full_size: int, scale: float) -> int:
    return max(8, round(full_size * scale))


def _stream(inner: dict, arrival: str, arrival_params: dict) -> dict:
    return {"inner_params": inner, "arrival": arrival, "arrival_params": arrival_params}


_BACKOFF = {"restart_policy": "backoff"}

#: Garbage-collection cadence of the three single-engine streams.  The
#: modular coordinator copies its retained precedence graph on every
#: edge-inducing step, so its wall grows with what GC leaves behind: at the
#: engine default of 64 the zipf stream ran 4x slower than at 16.
_STREAM_GC = {"gc_interval": 16}

#: The object space shared by the single-engine stream and its 2-shard twin.
_HOTSPOT_OBJECTS = {
    "hot_objects": 2,
    "cold_objects": 128,
    "operations_per_transaction": 2,
    "hot_probability": 0.05,
    "use_service_layer": False,
}


def _hotspot_stream_n2pl(seed: int, scale: float) -> dict:
    inner = {"transactions": _count(6600, scale), "seed": seed, **_HOTSPOT_OBJECTS}
    return {
        "workload": "hotspot-stream",
        "workload_params": _stream(inner, "poisson", {"rate": 0.045}),
        "scheduler": "n2pl",
        "scheduler_kwargs": _BACKOFF,
        "seed": seed,
        "engine_params": _STREAM_GC,
        "certify": "stream",
        "check_legality": True,
    }


def _zipf_stream_modular(seed: int, scale: float) -> dict:
    inner = {
        "transactions": _count(1700, scale),
        "objects": 48,
        "skew": 1.1,
        "operations_per_transaction": 3,
        "seed": seed,
    }
    return {
        "workload": "zipf-stream",
        "workload_params": _stream(inner, "poisson", {"rate": 0.012}),
        "scheduler": "modular",
        "scheduler_kwargs": _BACKOFF,
        "seed": seed,
        "engine_params": _STREAM_GC,
        "certify": "stream",
        "check_legality": True,
    }


#: Raised from the workload's defaults so customers never run out of money
#: or stock: with the defaults the stream degenerates to no-op orders.
ORDERS_INITIAL_BALANCE = 1e7
ORDERS_CUSTOMERS = 12


def _orders_flash_adaptive(seed: int, scale: float) -> dict:
    inner = {
        "transactions": _count(2700, scale),
        "customers": ORDERS_CUSTOMERS,
        "items": 32,
        "initial_balance": ORDERS_INITIAL_BALANCE,
        "initial_stock": 100000,
        "seed": seed,
    }
    arrival = {"rate": 0.006, "spike_factor": 4, "spike_length": 60, "mean_calm": 500}
    return {
        "workload": "order-processing-stream",
        "workload_params": _stream(inner, "flash-crowd", arrival),
        "scheduler": "adaptive",
        "scheduler_kwargs": _BACKOFF,
        "seed": seed,
        "engine_params": _STREAM_GC,
        "certify": "stream",
        "check_legality": True,
    }


def _banking_closed_certifier(seed: int, scale: float) -> dict:
    return {
        "workload": "banking",
        "workload_params": {
            "transactions": _count(340, scale),
            "accounts": 64,
            "branches": 4,
            "seed": seed,
        },
        "scheduler": "certifier",
        "scheduler_kwargs": _BACKOFF,
        "seed": seed,
        "certify": True,
        "check_legality": True,
    }


def _hotspot_stream_2shard_nto(seed: int, scale: float) -> dict:
    inner = {"transactions": _count(6600, scale), "seed": seed, **_HOTSPOT_OBJECTS}
    return {
        "workload": "hotspot-stream",
        "workload_params": _stream(inner, "poisson", {"rate": 0.01}),
        "scheduler": "nto-step",
        "scheduler_kwargs": _BACKOFF,
        "seed": seed,
        "engine_params": {"max_ticks": 3_000_000},
        # Post-hoc per-shard certification dwarfs the run it certifies and
        # certify="stream" is rejected for shards; correctness is carried by
        # increment conservation plus a certified prefix (see onepass.py).
        "certify": False,
        "shards": 2,
        "shard_mode": "inprocess",
    }


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``conservation`` names the output check beyond serialisable + legal;
    ``baseline`` is the spec override of the run a wall ratio is taken
    against (``None``: no such ratio), ``ratio`` the per-layer metric that
    reports it; ``certified_prefix`` is the arrival count of the extra
    certified run of a workload whose timed run is uncertified.
    """

    name: str
    why: str
    fields: Callable[[int, float], dict]
    conservation: str | None = None
    baseline: Mapping[str, Any] | None = None
    ratio: str | None = None
    certified_prefix: int = 0


_STREAM_BASELINE = {"certify": False, "check_legality": False}

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "hotspot-stream-n2pl",
            "long low-contention stream: event loop, history, lock table and "
            "streaming certifier work, the precedence-graph coordinator does not",
            _hotspot_stream_n2pl,
            conservation="registers",
            baseline=_STREAM_BASELINE,
            ratio="analysis.streaming.overhead_ratio",
        ),
        Workload(
            "zipf-stream-modular",
            "every step passes an intra-object synchroniser and the "
            "inter-object coordinator: scheduler.on_operation dominates",
            _zipf_stream_modular,
            conservation="registers",
            baseline=_STREAM_BASELINE,
            ratio="analysis.streaming.overhead_ratio",
        ),
        Workload(
            "orders-flash-adaptive",
            "ADT traffic (B-tree, FIFO, accounts) under flash crowds through "
            "the adaptive scheduler: strategy swaps and bursts of in-flight work",
            _orders_flash_adaptive,
            conservation="orders",
            baseline=_STREAM_BASELINE,
            ratio="analysis.streaming.overhead_ratio",
        ),
        Workload(
            "banking-closed-certifier",
            "closed batch, optimistic certifier, post-hoc certification: "
            "validation aborts, undo, and a wall that is mostly certify_run",
            _banking_closed_certifier,
        ),
        Workload(
            "hotspot-stream-2shard-nto",
            "the only workload where shard rounds, 2PC votes and the global "
            "precedence graph work; single-engine twin is hotspot-stream-n2pl",
            _hotspot_stream_2shard_nto,
            conservation="registers",
            baseline={"shards": 1},
            ratio="shard.overhead_ratio",
            certified_prefix=400,
        ),
    )
}
