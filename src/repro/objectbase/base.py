"""The object base: objects, their methods, and the environment.

Definition 1: an object base is a set of objects; an object is a pair
``(V, M)`` of variables and methods; there is a distinguished object called
the *environment* whose methods are the users' transactions.

This module provides the runtime description of an object base that the
simulation engine executes:

* :class:`MethodDefinition` — a method is a programme.  Here it is a Python
  generator function that receives a *method context* plus its arguments
  and ``yield``-s requests (local operations, message sends, parallel
  message sends) to the engine, receiving each request's return value as
  the result of the ``yield`` expression.
* :class:`ObjectDefinition` — one object: name, initial state, methods,
  and conflict specifications at both granularities (operation-level and
  step-level), plus an optional preferred intra-object synchroniser used by
  the modular scheduler of Section 5.3.
* :class:`ObjectBase` — the collection of object definitions, with helpers
  to derive the per-object conflict registry and initial states that the
  core model and the schedulers need.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Callable

from ..core.conflicts import ConflictSpec, ConservativeConflictSpec, PerObjectConflicts
from ..core.errors import ModelError, UnknownMethodError, UnknownObjectError
from ..core.executions import ENVIRONMENT_OBJECT
from ..core.state import ObjectState

MethodBody = Callable[..., Any]
"""A generator function ``body(ctx, *args)`` implementing a method."""


@dataclass
class MethodDefinition:
    """A method of an object.

    Attributes
    ----------
    name:
        Method name, used as the target of message steps.
    body:
        Generator function implementing the method.  It is called as
        ``body(ctx, *args)`` where ``ctx`` is the engine-provided method
        context; it must ``yield`` request objects created through the
        context (``ctx.local``, ``ctx.invoke``, ``ctx.parallel``) and may
        ``return`` a value, which becomes the return value of the message
        step that invoked it.
    """

    name: str
    body: MethodBody


@dataclass
class ObjectDefinition:
    """One object of the object base: variables, methods and conflict data."""

    name: str
    initial_state: ObjectState = field(default_factory=ObjectState)
    methods: dict[str, MethodDefinition] = field(default_factory=dict)
    operation_conflicts: ConflictSpec = field(default_factory=ConservativeConflictSpec)
    step_conflicts: ConflictSpec | None = None
    intra_object_synchroniser: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.initial_state, ObjectState):
            self.initial_state = ObjectState(self.initial_state)

    def conflicts(self, level: str = "operation") -> ConflictSpec:
        """The conflict specification at the requested granularity."""
        if level == "operation":
            return self.operation_conflicts
        if level == "step":
            return self.step_conflicts if self.step_conflicts is not None else self.operation_conflicts
        raise ModelError(f"unknown conflict granularity {level!r}")

    def add_method(self, definition: MethodDefinition) -> None:
        if definition.name in self.methods:
            raise ModelError(
                f"object {self.name!r} already defines method {definition.name!r}"
            )
        self.methods[definition.name] = definition

    def method(self, method_name: str) -> MethodDefinition:
        try:
            return self.methods[method_name]
        except KeyError as exc:
            raise UnknownMethodError(
                f"object {self.name!r} has no method {method_name!r}"
            ) from exc


class ObjectBase:
    """A collection of object definitions plus the distinguished environment.

    The environment object always exists; its methods are registered through
    :meth:`register_transaction` (or by workloads) and constitute the
    top-level transactions users may submit.
    """

    def __init__(self) -> None:
        self._objects: dict[str, ObjectDefinition] = {}
        self._objects[ENVIRONMENT_OBJECT] = ObjectDefinition(
            ENVIRONMENT_OBJECT,
            ObjectState(),
            {},
            ConservativeConflictSpec(),
        )

    # -- registration ---------------------------------------------------------

    def register(self, definition: ObjectDefinition) -> ObjectDefinition:
        """Add an object definition to the base (names must be unique)."""
        if definition.name in self._objects and definition.name != ENVIRONMENT_OBJECT:
            raise ModelError(f"object {definition.name!r} already registered")
        self._objects[definition.name] = definition
        return definition

    def register_transaction(self, definition: MethodDefinition) -> MethodDefinition:
        """Register a top-level transaction type (a method of the environment)."""
        self.environment.methods[definition.name] = definition
        return definition

    # -- lookups ---------------------------------------------------------------

    @property
    def environment(self) -> ObjectDefinition:
        return self._objects[ENVIRONMENT_OBJECT]

    def definition(self, object_name: str) -> ObjectDefinition:
        try:
            return self._objects[object_name]
        except KeyError as exc:
            raise UnknownObjectError(f"unknown object {object_name!r}") from exc

    def method(self, object_name: str, method_name: str) -> MethodDefinition:
        try:
            return self._objects[object_name].methods[method_name]
        except KeyError:  # the two lookups name whichever key is unknown
            return self.definition(object_name).method(method_name)

    def object_names(self, include_environment: bool = False) -> list[str]:
        names = [name for name in self._objects if name != ENVIRONMENT_OBJECT]
        if include_environment:
            names.append(ENVIRONMENT_OBJECT)
        return sorted(names)

    def __contains__(self, object_name: str) -> bool:
        return object_name in self._objects

    def __len__(self) -> int:
        return len(self._objects) - 1  # the environment is not counted

    # -- derived structures -----------------------------------------------------

    def initial_states(self) -> dict[str, ObjectState]:
        """Initial state of every object (including the environment)."""
        return {name: definition.initial_state for name, definition in self._objects.items()}

    def conflicts(self, level: str = "operation") -> PerObjectConflicts:
        """Per-object conflict registry at the requested granularity."""
        registry = PerObjectConflicts()
        for name, definition in self._objects.items():
            registry.register(name, definition.conflicts(level))
        return registry

    def describe(self) -> dict[str, dict[str, Any]]:
        """A plain-data summary of the base (used by examples and reports)."""
        summary: dict[str, dict[str, Any]] = {}
        for name, definition in self._objects.items():
            if name == ENVIRONMENT_OBJECT:
                continue
            summary[name] = {
                "variables": sorted(definition.initial_state),
                "methods": sorted(definition.methods),
                "intra_object_synchroniser": definition.intra_object_synchroniser,
            }
        return summary


def single_operation_method(
    name: str,
    operation_factory: Callable[..., Any],
) -> MethodDefinition:
    """Build a method whose body issues exactly one local operation.

    Abstract data types expose most of their functionality this way: the
    method ``enqueue(item)`` of a queue object simply performs the local
    operation ``Enqueue(item)`` on the object's own variables and returns
    its value.
    """

    def body(ctx, *args):
        result = yield ctx.local(operation_factory(*args))
        return result

    return MethodDefinition(name=name, body=body)


def build_object_base(definitions: Mapping[str, ObjectDefinition] | list[ObjectDefinition]) -> ObjectBase:
    """Convenience constructor from a list or mapping of object definitions."""
    base = ObjectBase()
    iterable = definitions.values() if isinstance(definitions, Mapping) else definitions
    for definition in iterable:
        base.register(definition)
    return base
