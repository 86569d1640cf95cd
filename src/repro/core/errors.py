"""Exception hierarchy for the object-base reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all exceptions raised by the library."""


class ModelError(ReproError):
    """Base class for errors in the formal model layer (:mod:`repro.core`)."""


class IllegalHistoryError(ModelError):
    """A history violates one of the legality conditions of Definition 6.

    The offending condition is recorded in :attr:`condition` (a short string
    such as ``"2b"``) and a human readable explanation is carried in the
    exception message.
    """

    def __init__(self, message: str, condition: str | None = None):
        super().__init__(message)
        self.condition = condition


class IllegalStepSequenceError(ModelError):
    """A sequence of local steps is not legal on the given initial state.

    Raised when a recorded return value disagrees with the value the
    operation actually produces when replayed (Definition 2 / Definition 6,
    condition 3).
    """


class UnknownObjectError(ModelError):
    """An object name was referenced that does not exist in the object base."""


class UnknownMethodError(ModelError):
    """A method name was invoked on an object that does not define it."""


class UnknownExecutionError(ModelError):
    """A method-execution identifier was referenced that is not in the history."""


class InvalidOperationError(ModelError):
    """A local operation was applied to a state it cannot handle."""


class SimulationError(ReproError):
    """Base class for errors raised by the simulation engine."""


class WorkloadError(SimulationError):
    """A workload generator was configured with inconsistent parameters."""


class SweepSpecError(SimulationError):
    """A scenario/sweep specification (:mod:`repro.sweep`) is invalid.

    Raised at specification construction time — unknown workload or
    scheduler names, parameters that do not exist on the referenced
    workload, non-JSON-serialisable values, or malformed grid axes — so
    that misconfigured sweeps fail before any worker process is spawned.
    """


class VerificationError(ReproError):
    """Post-hoc certification of a run found a correctness violation."""
