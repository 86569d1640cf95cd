"""Commutativity and conflict of local operations and steps.

Definition 3 of the paper: step ``t1`` *commutes with* ``t2`` iff for every
state on which ``t1, t2`` is legal, ``t2, t1`` is also legal and leaves the
object in the same final state; ``t1`` *conflicts with* ``t2`` otherwise.
Note that the relation is not necessarily symmetric.

Concurrency-control algorithms rarely decide conflicts from first principles
at run time; instead each object type declares a *conflict specification*.
The paper's Section 5 distinguishes two granularities:

* **operation-level** conflicts (conservative): whether two operations may
  ever produce conflicting steps, irrespective of return values.  This is
  what Moss' locking and the conservative variant of NTO use.
* **step-level** conflicts (return-value aware): whether two concrete steps
  — operations *with* their return values — conflict.  This is Weihl's
  observation that return values can be exploited to enhance concurrency
  (e.g. an ``Enqueue`` only conflicts with a ``Dequeue`` that returns the
  enqueued item).

:class:`ConflictSpec` captures both granularities.  The module also provides
state-exploration utilities that *derive* conflicts from operation semantics
by testing Definition 3 on a set of sample states; these power the
property-based tests and :class:`ExploredConflictSpec`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Any

from .operations import LocalOperation, LocalStep
from .state import ObjectState


class ConflictSpec:
    """Declares which operations / steps of one object type conflict.

    Subclasses override :meth:`operations_conflict` and, when they can
    exploit return values, :meth:`steps_conflict`.  The default step-level
    rule simply falls back to the operation-level rule, which is always a
    sound (conservative) choice.
    """

    def operations_conflict(self, first: LocalOperation, second: LocalOperation) -> bool:
        """True when ``first`` may fail to commute with ``second``."""
        raise NotImplementedError

    def steps_conflict(self, first: LocalStep, second: LocalStep) -> bool:
        """True when the concrete step ``first`` conflicts with ``second``.

        The default implementation ignores return values and delegates to
        the operation-level relation.
        """
        return self.operations_conflict(first.operation, second.operation)

    def conflicting(self, earlier, later, step_level: bool) -> bool:
        """Definition 3 at a granularity: does ``earlier`` conflict with ``later``?

        The relation is directional.  ``earlier`` was processed (locked,
        recorded, executed) before ``later``, and only "earlier conflicts
        with later" forces an order between the two — commutativity may be
        asymmetric, and testing the one direction admits strictly more
        concurrency.  Either argument is a :class:`LocalStep` or a bare
        :class:`LocalOperation`: at step level two steps are compared with
        their return values; at operation level, or when either side is an
        operation, steps are unwrapped and their operations compared.
        """
        if step_level and isinstance(earlier, LocalStep) and isinstance(later, LocalStep):
            return self.steps_conflict(earlier, later)
        if isinstance(earlier, LocalStep):
            earlier = earlier.operation
        if isinstance(later, LocalStep):
            later = later.operation
        return self.operations_conflict(earlier, later)


class ConservativeConflictSpec(ConflictSpec):
    """Every pair of operations on the object conflicts.

    This is the safest possible specification — it corresponds to executing
    the object's methods in mutual exclusion — and serves as the default for
    objects that do not declare anything better.
    """

    def operations_conflict(self, first: LocalOperation, second: LocalOperation) -> bool:
        return True


class ReadWriteConflictSpec(ConflictSpec):
    """Variable-granularity read/write conflicts.

    Two operations conflict iff they touch a common variable and at least
    one of them writes it.  Operations that do not declare their read/write
    sets (``read_set()``/``write_set()`` returning ``None``) are treated
    conservatively: they conflict with everything.

    This specification reduces the object-base model to the classical
    read/write model when every local operation is a read or a write of a
    single variable, which is exactly the setting of Moss' original
    algorithm (footnote 7 of the paper).
    """

    def operations_conflict(self, first: LocalOperation, second: LocalOperation) -> bool:
        first_reads, first_writes = first.read_set(), first.write_set()
        second_reads, second_writes = second.read_set(), second.write_set()
        if None in (first_reads, first_writes, second_reads, second_writes):
            return True
        return bool(
            (first_writes & (second_reads | second_writes))
            | (second_writes & (first_reads | first_writes))
        )


class ConflictTable(ConflictSpec):
    """An explicit operation-level conflict table keyed by operation names.

    Parameters
    ----------
    conflicting_pairs:
        Iterable of ``(name, name)`` pairs.  The pair ``(a, b)`` declares
        that operation ``a`` conflicts with operation ``b``.
    symmetric:
        When true (the default) each declared pair is mirrored, giving a
        symmetric conflict relation; commutativity in the paper is allowed
        to be asymmetric, so asymmetric tables are supported by passing
        ``symmetric=False``.
    default:
        The verdict for pairs of operation names not mentioned in the table.
    """

    def __init__(
        self,
        conflicting_pairs: Iterable[tuple[str, str]],
        *,
        symmetric: bool = True,
        default: bool = False,
    ):
        self._pairs: set[tuple[str, str]] = set()
        for first_name, second_name in conflicting_pairs:
            self._pairs.add((first_name, second_name))
            if symmetric:
                self._pairs.add((second_name, first_name))
        self._default = default
        self._known_names = {name for pair in self._pairs for name in pair}

    def operations_conflict(self, first: LocalOperation, second: LocalOperation) -> bool:
        pair = (first.name, second.name)
        if pair in self._pairs:
            return True
        if first.name in self._known_names and second.name in self._known_names:
            return False
        return self._default


class PerObjectConflicts(Mapping[str, ConflictSpec]):
    """Registry mapping object names to their conflict specifications.

    Histories and schedulers consult this registry to evaluate conflicts
    between steps of a particular object.  Objects without an explicit entry
    fall back to ``default`` (conservative mutual exclusion unless told
    otherwise).
    """

    def __init__(
        self,
        specs: Mapping[str, ConflictSpec] | None = None,
        default: ConflictSpec | None = None,
    ):
        self._specs: dict[str, ConflictSpec] = dict(specs or {})
        self._default = default if default is not None else ConservativeConflictSpec()

    def __getitem__(self, object_name: str) -> ConflictSpec:
        return self._specs.get(object_name, self._default)

    def __iter__(self):
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)

    def register(self, object_name: str, spec: ConflictSpec) -> None:
        """Associate ``spec`` with ``object_name`` (replacing any prior spec)."""
        self._specs[object_name] = spec

    def steps_conflict(self, first: LocalStep, second: LocalStep) -> bool:
        """Conflict between two local steps, which must be of the same object."""
        if first.object_name != second.object_name:
            return False
        return self[first.object_name].steps_conflict(first, second)

    def copy(self) -> "PerObjectConflicts":
        return PerObjectConflicts(dict(self._specs), self._default)


# ---------------------------------------------------------------------------
# Semantics-based commutativity checking (Definition 3, executable form)
# ---------------------------------------------------------------------------


def steps_commute_on_state(
    first: LocalStep, second: LocalStep, state: ObjectState
) -> bool:
    """Check Definition 3 for the two steps on one particular state.

    ``first, second`` being *legal* on ``state`` means the recorded return
    values match what the operations produce when replayed in that order.
    When the pair is not legal on ``state`` the definition is vacuously
    satisfied for that state.
    """
    value_one, mid_state = first.operation.apply(state)
    if value_one != first.return_value:
        return True
    value_two, end_state = second.operation.apply(mid_state)
    if value_two != second.return_value:
        return True
    # The pair is legal on this state: the transposed pair must also be
    # legal and reach the same final state.
    swapped_two, swapped_mid = second.operation.apply(state)
    if swapped_two != second.return_value:
        return False
    swapped_one, swapped_end = first.operation.apply(swapped_mid)
    if swapped_one != first.return_value:
        return False
    return swapped_end == end_state


def steps_commute_on_states(
    first: LocalStep, second: LocalStep, states: Iterable[ObjectState]
) -> bool:
    """True when the steps commute on every state in ``states``."""
    return all(steps_commute_on_state(first, second, state) for state in states)


def operations_commute_on_state(
    first: LocalOperation, second: LocalOperation, state: ObjectState
) -> bool:
    """Operation-level commutativity on a single state.

    The two operations commute on ``state`` when applying them in either
    order yields the same pair of return values and the same final state.
    """
    value_one, mid_state = first.apply(state)
    value_two, end_state = second.apply(mid_state)
    swapped_two, swapped_mid = second.apply(state)
    swapped_one, swapped_end = first.apply(swapped_mid)
    return (
        value_one == swapped_one
        and value_two == swapped_two
        and end_state == swapped_end
    )


def operations_commute_on_states(
    first: LocalOperation, second: LocalOperation, states: Iterable[ObjectState]
) -> bool:
    """True when the operations commute on every state in ``states``."""
    return all(operations_commute_on_state(first, second, state) for state in states)


class ExploredConflictSpec(ConflictSpec):
    """Derive conflicts by exploring operation semantics over sample states.

    Given a finite collection of representative states of the object, two
    operations are declared conflicting when they fail to commute on at
    least one sample state, and two steps are declared conflicting when they
    fail Definition 3 on at least one sample state.  With a sufficiently
    rich set of sample states this matches the paper's semantic notion of
    conflict exactly; with a sparse set it may under-approximate conflicts,
    so it is intended for testing and for small, finite-state objects.
    """

    def __init__(self, sample_states: Iterable[ObjectState]):
        self._states: list[ObjectState] = list(sample_states)
        self._operation_cache: dict[tuple[Any, Any], bool] = {}

    def operations_conflict(self, first: LocalOperation, second: LocalOperation) -> bool:
        key = (first.signature(), second.signature())
        if key not in self._operation_cache:
            self._operation_cache[key] = not operations_commute_on_states(
                first, second, self._states
            )
        return self._operation_cache[key]

    def steps_conflict(self, first: LocalStep, second: LocalStep) -> bool:
        return not steps_commute_on_states(first, second, self._states)

    @property
    def sample_states(self) -> list[ObjectState]:
        return list(self._states)
