"""Simulation substrate: engine, transaction programmes, metrics, workloads."""

from .arrivals import (
    ARRIVAL_REGISTRY,
    ArrivalProcess,
    BurstyArrivals,
    DiurnalArrivals,
    FlashCrowdArrivals,
    PoissonArrivals,
    arrival_process_names,
    make_arrival_process,
)
from .engine import SimulationEngine
from .events import Trace, TraceEvent
from .faults import (
    CrashPlan,
    FAULT_REGISTRY,
    fault_plan_names,
    make_fault_plan,
)
from .metrics import RunMetrics, RunResult
from .transactions import (
    InvokeRequest,
    LocalRequest,
    MethodContext,
    ParallelRequest,
    TransactionSpec,
)
from .workloads import (
    BankingWorkload,
    BTreeWorkload,
    HotspotWorkload,
    MixedWorkload,
    OrderProcessingWorkload,
    QueueWorkload,
    RandomOperationsWorkload,
    StreamingWorkload,
    WORKLOAD_REGISTRY,
    ZipfianWorkload,
    make_workload,
    workload_names,
)

__all__ = [
    "ARRIVAL_REGISTRY",
    "ArrivalProcess",
    "BankingWorkload",
    "BTreeWorkload",
    "BurstyArrivals",
    "CrashPlan",
    "DiurnalArrivals",
    "FAULT_REGISTRY",
    "FlashCrowdArrivals",
    "HotspotWorkload",
    "InvokeRequest",
    "LocalRequest",
    "MethodContext",
    "MixedWorkload",
    "OrderProcessingWorkload",
    "ParallelRequest",
    "PoissonArrivals",
    "QueueWorkload",
    "RandomOperationsWorkload",
    "RunMetrics",
    "RunResult",
    "SimulationEngine",
    "StreamingWorkload",
    "Trace",
    "TraceEvent",
    "TransactionSpec",
    "WORKLOAD_REGISTRY",
    "ZipfianWorkload",
    "arrival_process_names",
    "fault_plan_names",
    "make_arrival_process",
    "make_fault_plan",
    "make_workload",
    "workload_names",
]
