"""Formal model of concurrency control in object bases.

This package contains an executable rendering of the paper's model:
states, local operations, steps, method executions, histories, conflict
specifications, serialisation graphs and the theorems that relate them.
"""

from .conflicts import (
    ConflictSpec,
    ConflictTable,
    ConservativeConflictSpec,
    ExploredConflictSpec,
    PerObjectConflicts,
    ReadWriteConflictSpec,
    operations_commute_on_state,
    operations_commute_on_states,
    steps_commute_on_state,
    steps_commute_on_states,
)
from .dag import PrecedenceDag
from .errors import (
    IllegalHistoryError,
    IllegalStepSequenceError,
    InvalidOperationError,
    ModelError,
    ReproError,
    SimulationError,
    UnknownExecutionError,
    UnknownMethodError,
    UnknownObjectError,
    VerificationError,
    WorkloadError,
)
from .executions import ENVIRONMENT_OBJECT, MethodExecution
from .graphs import is_acyclic, serialisation_graph
from .history import AUTO, History, HistoryBuilder
from .registry import component_names, resolve_component
from .operations import (
    ABORTED,
    AbortOperation,
    FunctionalOperation,
    IncrementVariable,
    LocalOperation,
    LocalStep,
    MessageStep,
    ReadVariable,
    Step,
    WriteVariable,
)
from .state import EMPTY_STATE, AppliedStep, ObjectState, UndoLog
from .theorems import (
    check_determinacy,
    execution_serial_order,
    is_serialisable,
    serialisation_cycle,
    serialise,
)

__all__ = [
    "ABORTED",
    "AUTO",
    "AbortOperation",
    "ConflictSpec",
    "ConflictTable",
    "ConservativeConflictSpec",
    "EMPTY_STATE",
    "ENVIRONMENT_OBJECT",
    "ExploredConflictSpec",
    "FunctionalOperation",
    "History",
    "HistoryBuilder",
    "IllegalHistoryError",
    "IllegalStepSequenceError",
    "IncrementVariable",
    "InvalidOperationError",
    "LocalOperation",
    "LocalStep",
    "MessageStep",
    "MethodExecution",
    "ModelError",
    "ObjectState",
    "PerObjectConflicts",
    "PrecedenceDag",
    "ReadVariable",
    "ReadWriteConflictSpec",
    "ReproError",
    "SimulationError",
    "Step",
    "UnknownExecutionError",
    "UnknownMethodError",
    "UnknownObjectError",
    "VerificationError",
    "WorkloadError",
    "WriteVariable",
    "component_names",
    "resolve_component",
    "check_determinacy",
    "execution_serial_order",
    "is_acyclic",
    "is_serialisable",
    "AppliedStep",
    "UndoLog",
    "operations_commute_on_state",
    "operations_commute_on_states",
    "serialisation_cycle",
    "serialisation_graph",
    "serialise",
    "steps_commute_on_state",
    "steps_commute_on_states",
]
