"""Local operations, local steps and message steps.

Definition 2 of the paper: a *local operation* ``a`` of an object is a pair
``(rho_a, sigma_a)`` where ``rho_a`` maps states to return values and
``sigma_a`` maps states to states.  A *local step* is a pair ``(a, v)``
pairing the operation with the value it actually returned; a *message step*
is the invocation of a method of some object together with the value that
invocation returned.

The classes below realise these notions.  :class:`LocalOperation` combines
``rho`` and ``sigma`` into a single :meth:`LocalOperation.apply` that maps a
state to ``(return value, new state)`` — this is equivalent to the paper's
pair of functions and far more convenient to implement.  Concrete operations
are provided for plain variables (read / write / increment) and an
:class:`AbortOperation` models the distinguished ``Abort`` operation used by
the paper's treatment of transaction failures.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable

from .errors import InvalidOperationError
from .state import ObjectState

ABORT_OPERATION_NAME = "Abort"
ABORTED = "aborted"


class LocalOperation:
    """An atomic operation on the variables of a single object.

    Subclasses implement :meth:`apply`, which plays the role of both
    ``rho_a`` (through the returned value) and ``sigma_a`` (through the
    returned state).  Operations should be deterministic functions of the
    state: the formal model has no other source of non-determinism.

    Attributes
    ----------
    name:
        The operation's type name (e.g. ``"Read"``, ``"Enqueue"``).  Conflict
        tables are keyed by this name.
    args:
        The operation's arguments, as a tuple.  Two operations with the same
        name but different arguments may conflict differently (e.g. writes to
        different variables commute).
    """

    name: str = "LocalOperation"

    def __init__(self, *args: Any):
        self.args: tuple[Any, ...] = args

    # -- semantics ----------------------------------------------------------

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        """Execute the operation on ``state``.

        Returns ``(value, new_state)`` where ``value`` is ``rho_a(state)``
        and ``new_state`` is ``sigma_a(state)``.
        """
        raise NotImplementedError

    def return_value(self, state: ObjectState) -> Any:
        """The paper's ``rho_a``: the value returned when applied to ``state``."""
        value, _ = self.apply(state)
        return value

    def transition(self, state: ObjectState) -> ObjectState:
        """The paper's ``sigma_a``: the state produced when applied to ``state``."""
        _, new_state = self.apply(state)
        return new_state

    # -- optional static classification --------------------------------------

    def read_set(self) -> frozenset[str] | None:
        """Variables this operation may read, or ``None`` if unknown."""
        return None

    def write_set(self) -> frozenset[str] | None:
        """Variables this operation may write, or ``None`` if unknown."""
        return None

    def is_read_only(self) -> bool:
        """True when the operation is known never to modify the state."""
        write_set = self.write_set()
        return write_set is not None and not write_set

    # -- identity -----------------------------------------------------------

    def signature(self) -> tuple:
        """A hashable identity used by conflict tables and lock managers."""
        return (self.name, self.args)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LocalOperation):
            return self.signature() == other.signature()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.signature())

    def __repr__(self) -> str:
        rendered_args = ", ".join(repr(argument) for argument in self.args)
        return f"{self.name}({rendered_args})"


class FunctionalOperation(LocalOperation):
    """A local operation defined by a plain Python function.

    The supplied ``body`` receives the current :class:`ObjectState` followed
    by the operation arguments and must return ``(value, new_state)``.  This
    is the quickest way for abstract data types and tests to define bespoke
    operations without subclassing.
    """

    def __init__(
        self,
        name: str,
        body: Callable[..., tuple[Any, ObjectState]],
        *args: Any,
        reads: Iterable[str] | None = None,
        writes: Iterable[str] | None = None,
    ):
        super().__init__(*args)
        self.name = name
        self._body = body
        self._reads = frozenset(reads) if reads is not None else None
        self._writes = frozenset(writes) if writes is not None else None

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        return self._body(state, *self.args)

    def read_set(self) -> frozenset[str] | None:
        return self._reads

    def write_set(self) -> frozenset[str] | None:
        return self._writes


class ReadVariable(LocalOperation):
    """Read a single variable and return its value."""

    name = "Read"

    def __init__(self, variable: str, default: Any = None):
        super().__init__(variable)
        self.variable = variable
        self.default = default

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        return state.get(self.variable, self.default), state

    def read_set(self) -> frozenset[str]:
        return frozenset({self.variable})

    def write_set(self) -> frozenset[str]:
        return frozenset()


class WriteVariable(LocalOperation):
    """Write a value into a variable; returns the value written."""

    name = "Write"

    def __init__(self, variable: str, value: Any):
        super().__init__(variable, value)
        self.variable = variable
        self.value = value

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        return self.value, state.set(self.variable, self.value)

    def read_set(self) -> frozenset[str]:
        return frozenset()

    def write_set(self) -> frozenset[str]:
        return frozenset({self.variable})


class IncrementVariable(LocalOperation):
    """Add ``amount`` to a numeric variable and return the new value.

    Increments of the same variable commute with one another (the final
    state does not depend on their order) but their *return values* do, so
    at the step level two increments conflict while at the state level they
    do not.  The operation is useful for exercising that distinction.
    """

    name = "Increment"

    def __init__(self, variable: str, amount: float = 1):
        super().__init__(variable, amount)
        self.variable = variable
        self.amount = amount

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        current = state.get(self.variable, 0)
        try:
            new_value = current + self.amount
        except TypeError as exc:
            raise InvalidOperationError(
                f"cannot increment non-numeric variable {self.variable!r}={current!r}"
            ) from exc
        return new_value, state.set(self.variable, new_value)

    def read_set(self) -> frozenset[str]:
        return frozenset({self.variable})

    def write_set(self) -> frozenset[str]:
        return frozenset({self.variable})


class AbortOperation(LocalOperation):
    """The distinguished ``Abort`` operation (Section 3, Transaction Failures).

    Aborting has no effect on the object's state; the fact that the issuing
    method execution aborted is reflected in the operation's return value,
    which the parent observes through the enclosing message step.
    """

    name = ABORT_OPERATION_NAME

    def __init__(self, reason: str = ""):
        super().__init__(reason)
        self.reason = reason

    def apply(self, state: ObjectState) -> tuple[Any, ObjectState]:
        return ABORTED, state

    def read_set(self) -> frozenset[str]:
        return frozenset()

    def write_set(self) -> frozenset[str]:
        return frozenset()


class Step:
    """Base class of history steps (Definition 2).

    Steps have library-assigned integer identities so that the partial
    orders of a history can be represented as relations over step ids.
    Identity (not structure) determines equality: the same operation issued
    twice yields two distinct steps.  Each subclass sets both slots itself
    (an id of ``None`` draws the next one from ``_id_counter``).
    """

    _id_counter = itertools.count(1)

    __slots__ = ("step_id", "execution_id")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Step):
            return self.step_id == other.step_id
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.step_id)


class LocalStep(Step):
    """A local step ``(a, v)``: an operation together with its return value."""

    __slots__ = ("object_name", "operation", "return_value")

    def __init__(
        self,
        execution_id: str,
        object_name: str,
        operation: LocalOperation,
        return_value: Any,
        step_id: int | None = None,
    ):
        self.step_id = step_id if step_id is not None else next(Step._id_counter)
        self.execution_id = execution_id
        self.object_name = object_name
        self.operation = operation
        self.return_value = return_value

    def is_abort(self) -> bool:
        """True when this step is an execution of the ``Abort`` operation."""
        return self.operation.name == ABORT_OPERATION_NAME

    def __repr__(self) -> str:
        return (
            f"LocalStep(id={self.step_id}, exec={self.execution_id!r}, "
            f"object={self.object_name!r}, op={self.operation!r}, "
            f"ret={self.return_value!r})"
        )


class MessageStep(Step):
    """A message step ``(m, v)``: a method invocation and its return value."""

    __slots__ = ("target_object", "target_method", "arguments", "return_value")

    def __init__(
        self,
        execution_id: str,
        target_object: str,
        target_method: str,
        arguments: tuple[Any, ...] = (),
        return_value: Any = None,
        step_id: int | None = None,
    ):
        self.step_id = step_id if step_id is not None else next(Step._id_counter)
        self.execution_id = execution_id
        self.target_object = target_object
        self.target_method = target_method
        self.arguments = tuple(arguments)
        self.return_value = return_value

    def __repr__(self) -> str:
        return (
            f"MessageStep(id={self.step_id}, exec={self.execution_id!r}, "
            f"target={self.target_object!r}.{self.target_method}, "
            f"args={self.arguments!r}, ret={self.return_value!r})"
        )
