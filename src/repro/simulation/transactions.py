"""Transaction programmes and the method context.

Methods (and top-level transactions, which are methods of the environment)
are written as Python *generator functions*: the body receives a
:class:`MethodContext` plus its arguments, and drives the simulation by
``yield``-ing requests built through the context:

* ``value = yield ctx.local(operation)`` — execute a local operation on
  the method's own object and receive its return value;
* ``value = yield ctx.invoke(object_name, method_name, *args)`` — send a
  message: the named method of the named object runs as a child execution
  and its return value is delivered when it completes;
* ``values = yield ctx.parallel(ctx.call(...), ctx.call(...))`` — send
  several messages whose child executions may interleave with one another
  (internal parallelism, Section 1(c) of the paper); the list of return
  values is delivered once all of them complete.

The engine interprets these requests, consults the scheduler, records the
resulting history and feeds return values back into the generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple

from ..core.errors import SimulationError
from ..core.operations import LocalOperation


class LocalRequest(NamedTuple):
    """Request to execute a local operation on the issuing method's object."""

    operation: LocalOperation


class InvokeRequest(NamedTuple):
    """Request to invoke ``method_name`` of ``object_name`` as a child execution."""

    object_name: str
    method_name: str
    arguments: tuple[Any, ...] = ()


class ParallelRequest(NamedTuple):
    """Request to run several invocations as concurrent child executions."""

    invocations: tuple[InvokeRequest, ...]


Request = LocalRequest | InvokeRequest | ParallelRequest


class MethodContext:
    """Hands a method body the means to issue requests.

    One context is created per method execution; it knows which object and
    execution it belongs to, so ``ctx.local`` does not need to repeat the
    object name.
    """

    __slots__ = ("object_name", "execution_id", "method_name")

    def __init__(self, object_name: str, execution_id: str, method_name: str):
        self.object_name = object_name
        self.execution_id = execution_id
        self.method_name = method_name

    def local(self, operation: LocalOperation) -> LocalRequest:
        """A request to run ``operation`` on this method's own object."""
        if not isinstance(operation, LocalOperation):
            raise SimulationError(
                f"ctx.local expects a LocalOperation, got {type(operation).__name__}"
            )
        return LocalRequest(operation)

    def invoke(self, object_name: str, method_name: str, *arguments: Any) -> InvokeRequest:
        """A request to invoke another object's method as a child execution."""
        return InvokeRequest(object_name, method_name, tuple(arguments))

    # ``call`` is an alias of ``invoke`` that reads better inside ``parallel``.
    call = invoke

    def parallel(self, *invocations: InvokeRequest) -> ParallelRequest:
        """A request to run the given invocations as parallel children."""
        flattened: list[InvokeRequest] = []
        for invocation in invocations:
            if isinstance(invocation, ParallelRequest):
                flattened.extend(invocation.invocations)
            elif isinstance(invocation, InvokeRequest):
                flattened.append(invocation)
            else:
                raise SimulationError(
                    "ctx.parallel expects InvokeRequest instances (use ctx.call(...))"
                )
        if not flattened:
            raise SimulationError("ctx.parallel needs at least one invocation")
        return ParallelRequest(tuple(flattened))

    def __repr__(self) -> str:
        return (
            f"MethodContext(object={self.object_name!r}, execution={self.execution_id!r}, "
            f"method={self.method_name!r})"
        )


@dataclass
class TransactionSpec:
    """One top-level transaction to submit to the engine.

    ``method_name`` must be a transaction type registered on the
    environment object; ``arguments`` are passed to its body.  ``label`` is
    used in metrics and traces (it defaults to the method name).
    """

    method_name: str
    arguments: tuple[Any, ...] = ()
    label: str = ""
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.label:
            self.label = self.method_name
