"""Formal model of concurrency control in object bases.

This package contains an executable rendering of the paper's model:
states, local operations, steps, method executions, histories, conflict
specifications, serialisation graphs and the theorems that relate them.
"""

from .registry import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        ".conflicts": (
            "ConflictSpec",
            "ConflictTable",
            "ConservativeConflictSpec",
            "ExploredConflictSpec",
            "PerObjectConflicts",
            "ReadWriteConflictSpec",
            "operations_commute_on_state",
            "operations_commute_on_states",
            "steps_commute_on_state",
            "steps_commute_on_states",
        ),
        ".dag": ("PrecedenceDag",),
        ".errors": (
            "IllegalHistoryError",
            "IllegalStepSequenceError",
            "InvalidOperationError",
            "ModelError",
            "ReproError",
            "SimulationError",
            "UnknownExecutionError",
            "UnknownMethodError",
            "UnknownObjectError",
            "VerificationError",
            "WorkloadError",
        ),
        ".executions": ("ENVIRONMENT_OBJECT", "MethodExecution"),
        ".graphs": ("is_acyclic", "serialisation_graph"),
        ".history": ("AUTO", "History", "HistoryBuilder"),
        ".registry": ("component_names", "resolve_component"),
        ".operations": (
            "ABORTED",
            "AbortOperation",
            "FunctionalOperation",
            "IncrementVariable",
            "LocalOperation",
            "LocalStep",
            "MessageStep",
            "ReadVariable",
            "Step",
            "WriteVariable",
        ),
        ".state": ("EMPTY_STATE", "AppliedStep", "ObjectState", "UndoLog"),
        ".theorems": (
            "check_determinacy",
            "execution_serial_order",
            "is_serialisable",
            "serialisation_cycle",
            "serialise",
        ),
    },
)
