"""Simulation substrate: engine, transaction programmes, metrics, workloads."""

from ..core.registry import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        ".arrivals": (
            "ARRIVAL_REGISTRY",
            "ArrivalProcess",
            "BurstyArrivals",
            "DiurnalArrivals",
            "FlashCrowdArrivals",
            "PoissonArrivals",
            "arrival_process_names",
            "make_arrival_process",
        ),
        ".engine": ("SimulationEngine",),
        ".events": ("Trace", "TraceEvent"),
        ".faults": ("CrashPlan", "FAULT_REGISTRY", "fault_plan_names", "make_fault_plan"),
        ".metrics": ("RunMetrics", "RunResult"),
        ".transactions": (
            "InvokeRequest",
            "LocalRequest",
            "MethodContext",
            "ParallelRequest",
            "TransactionSpec",
        ),
        ".workloads": (
            "BankingWorkload",
            "BTreeWorkload",
            "HotspotWorkload",
            "MixedWorkload",
            "OrderProcessingWorkload",
            "QueueWorkload",
            "RandomOperationsWorkload",
            "StreamingWorkload",
            "WORKLOAD_REGISTRY",
            "ZipfianWorkload",
            "make_workload",
            "workload_names",
        ),
    },
)
