"""Method executions (nested transactions).

Definition 4: a *method execution* (equivalently, a *transaction*) of object
``o`` is a partial order ``(T, prec)`` where ``T`` is a set of local and
message steps — all local steps being steps of ``o`` — and ``prec`` orders
every pair of conflicting steps.  The partial order reflects the
algorithmic structure of the method's implementation (its "programme
order"), so any history containing the execution must respect it
(Definition 6, condition 2a).

Top-level method executions belong to the distinguished *environment*
object (Definition 1): they are the transactions users submit.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from .errors import ModelError
from .operations import LocalStep, MessageStep, Step

ENVIRONMENT_OBJECT = "environment"
"""Name of the fictitious object whose methods are the users' transactions."""


class MethodExecution:
    """One execution of a method of one object.

    Attributes
    ----------
    execution_id:
        Unique identifier of this execution within a history.
    object_name:
        The object whose method this is.  Local steps of the execution act
        on this object's variables.
    method_name:
        The name of the method being executed (informational).
    parent_id:
        Identifier of the parent execution, or ``None`` for top-level
        executions (methods of the environment).
    invoking_step_id:
        Identifier of the message step (in the parent execution) whose
        ``B`` image this execution is, or ``None`` for top-level executions.
    """

    __slots__ = (
        "execution_id",
        "object_name",
        "method_name",
        "parent_id",
        "invoking_step_id",
        "_steps",
        "_step_sequence",
        "_program_order",
        "_po_successors",
        "_po_reachable",
    )

    def __init__(
        self,
        execution_id: str,
        object_name: str,
        method_name: str,
        parent_id: str | None = None,
        invoking_step_id: int | None = None,
    ):
        self.execution_id = execution_id
        self.object_name = object_name
        self.method_name = method_name
        self.parent_id = parent_id
        self.invoking_step_id = invoking_step_id
        self._steps: dict[int, Step] = {}
        self._step_sequence: list[int] = []
        self._program_order: set[tuple[int, int]] = set()
        # Memoised programme-order reachability; invalidated on mutation.
        self._po_successors: dict[int, set[int]] | None = None
        self._po_reachable: dict[int, set[int]] = {}

    # -- construction --------------------------------------------------------

    def add_step(self, step: Step, after: Iterable[Step | int] | None = None) -> Step:
        """Add ``step`` to the execution.

        ``after`` lists the steps of this execution that must precede the
        new step in the programme order ``prec``.  Passing ``None`` (the
        default) means the step follows *every* step added so far — i.e.
        purely sequential method code.  Passing an explicit (possibly
        empty) iterable models internal parallelism: the step is ordered
        only after the steps named.
        """
        if step.execution_id != self.execution_id:
            raise ModelError(
                f"step {step.step_id} belongs to execution {step.execution_id!r}, "
                f"not {self.execution_id!r}"
            )
        if isinstance(step, LocalStep) and step.object_name != self.object_name:
            raise ModelError(
                f"local step {step.step_id} acts on object {step.object_name!r} but "
                f"execution {self.execution_id!r} belongs to object {self.object_name!r}"
            )
        if step.step_id in self._steps:
            raise ModelError(f"duplicate step id {step.step_id} in execution {self.execution_id!r}")

        if after is None:
            predecessor_ids = list(self._step_sequence)
        else:
            predecessor_ids = [item.step_id if isinstance(item, Step) else int(item) for item in after]
            unknown = [pid for pid in predecessor_ids if pid not in self._steps]
            if unknown:
                raise ModelError(
                    f"programme-order predecessors {unknown} are not steps of "
                    f"execution {self.execution_id!r}"
                )

        self._steps[step.step_id] = step
        self._step_sequence.append(step.step_id)
        for predecessor_id in predecessor_ids:
            self._program_order.add((predecessor_id, step.step_id))
        self._invalidate_program_order_caches()
        return step

    def order_steps(self, first: Step | int, second: Step | int) -> None:
        """Add an explicit programme-order constraint ``first prec second``."""
        first_id = first.step_id if isinstance(first, Step) else int(first)
        second_id = second.step_id if isinstance(second, Step) else int(second)
        for step_id in (first_id, second_id):
            if step_id not in self._steps:
                raise ModelError(
                    f"step {step_id} is not part of execution {self.execution_id!r}"
                )
        self._program_order.add((first_id, second_id))
        self._invalidate_program_order_caches()

    def _invalidate_program_order_caches(self) -> None:
        self._po_successors = None
        self._po_reachable.clear()

    # -- inspection -----------------------------------------------------------

    @property
    def is_top_level(self) -> bool:
        """True for executions with no parent (methods of the environment)."""
        return self.parent_id is None

    def steps(self) -> list[Step]:
        """All steps, in the order they were added."""
        return [self._steps[step_id] for step_id in self._step_sequence]

    def step(self, step_id: int) -> Step:
        return self._steps[step_id]

    def step_ids(self) -> list[int]:
        return list(self._step_sequence)

    def step_ids_iter(self) -> Iterable[int]:
        """Step ids in insertion order, without copying the sequence."""
        return iter(self._step_sequence)

    def local_steps(self) -> list[LocalStep]:
        return [step for step in self.steps() if isinstance(step, LocalStep)]

    def message_steps(self) -> list[MessageStep]:
        return [step for step in self.steps() if isinstance(step, MessageStep)]

    def program_order_pairs(self) -> frozenset[tuple[int, int]]:
        """The generating pairs of the programme order ``prec`` (not closed)."""
        return frozenset(self._program_order)

    def program_precedes(self, first: Step | int, second: Step | int) -> bool:
        """True when ``first prec second`` holds in the transitive closure.

        Reachability is memoised per source step (and the successor
        adjacency built once), so repeated queries — the serialisation-graph
        builders ask about every message pair — cost ``O(1)`` after the
        first one.
        """
        first_id = first.step_id if isinstance(first, Step) else int(first)
        second_id = second.step_id if isinstance(second, Step) else int(second)
        if first_id == second_id:
            return False
        reachable = self._po_reachable.get(first_id)
        if reachable is None:
            if self._po_successors is None:
                successors: dict[int, set[int]] = {}
                for before, after in self._program_order:
                    successors.setdefault(before, set()).add(after)
                self._po_successors = successors
            reachable = set()
            frontier = list(self._po_successors.get(first_id, ()))
            while frontier:
                current = frontier.pop()
                if current in reachable:
                    continue
                reachable.add(current)
                frontier.extend(self._po_successors.get(current, ()))
            self._po_reachable[first_id] = reachable
        return second_id in reachable

    def is_aborted(self) -> bool:
        """True when the execution contains an ``Abort`` local step."""
        return any(step.is_abort() for step in self.local_steps())

    def __iter__(self) -> Iterator[Step]:
        return iter(self.steps())

    def __len__(self) -> int:
        return len(self._steps)

    def __repr__(self) -> str:
        flavour = "top-level" if self.is_top_level else f"child of {self.parent_id!r}"
        return (
            f"MethodExecution({self.execution_id!r}, {self.object_name!r}."
            f"{self.method_name}, {flavour}, {len(self._steps)} steps)"
        )


def execution_return_value(execution: MethodExecution) -> Any:
    """Best-effort return value of an execution: its last local step's value."""
    local_steps = execution.local_steps()
    if not local_steps:
        return None
    return local_steps[-1].return_value
