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

import re
from typing import Iterable, Iterator

from .dag import reachable
from .errors import ModelError
from .operations import LocalStep, MessageStep, Step

ENVIRONMENT_OBJECT = "environment"
"""Name of the fictitious object whose methods are the users' transactions."""


def natural_execution_key(execution_id: str) -> tuple[tuple[int, int | str], ...]:
    """Sort key ordering execution ids by their numeric components.

    ``HistoryBuilder`` numbers top-level transactions ``T1, T2, ...``; a
    plain string sort puts ``T10`` before ``T2``, which would make the
    serial-order tie-break depend on how many transactions the run happens
    to contain (and would leave the streaming certifier unable to emit a
    rolling order: a transaction begun *later* could still sort before
    every pending one).  Splitting the id into digit runs compares the
    numbers numerically, so later-begun transactions always carry larger
    keys.  The streaming certifier keys each transaction once and keeps the
    key with the transaction's own state.
    """
    return tuple(
        (1, int(part)) if part.isdigit() else (0, part)
        for part in re.split(r"(\d+)", execution_id)
    )


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
        "execution_id", "object_name", "method_name", "parent_id", "invoking_step_id",
        "_steps", "_predecessors", "_maximal", "_sequential", "_po_successors", "_po_reachable",
    )  # fmt: skip

    def __init__(self, execution_id: str, object_name: str, method_name: str,
                 parent_id: str | None = None, invoking_step_id: int | None = None):  # fmt: skip
        self.execution_id = execution_id
        self.object_name = object_name
        self.method_name = method_name
        self.parent_id = parent_id
        self.invoking_step_id = invoking_step_id
        self._steps: dict[int, Step] = {}  # in the order they were added
        # The generating pairs of ``prec`` by later step: id -> ids it follows.
        self._predecessors: dict[int, tuple[int, ...]] = {}
        self._maximal: tuple[int, ...] = ()  # see maximal_step_ids
        self._sequential = True  # see is_sequential
        # Memoised programme-order reachability; dropped on mutation.
        self._po_successors: dict[int, set[int]] | None = None
        self._po_reachable: dict[int, dict] | None = None

    # -- construction --------------------------------------------------------

    def add_step(self, step: Step, after: Iterable[Step | int] | None = None) -> Step:
        """Add ``step`` to the execution.

        ``after`` lists the steps of this execution that must precede the
        new step in the programme order ``prec``.  Passing ``None`` (the
        default) means the step follows *every* step added so far — i.e.
        purely sequential method code; it is linked from the maximal steps
        only, which implies the rest.  Passing an explicit (possibly empty)
        iterable models internal parallelism: the step is ordered only
        after the steps named.
        """
        step_id = step.step_id
        if step.execution_id != self.execution_id:
            raise ModelError(
                f"step {step_id} belongs to execution {step.execution_id!r}, "
                f"not {self.execution_id!r}"
            )
        if isinstance(step, LocalStep) and step.object_name != self.object_name:
            raise ModelError(
                f"local step {step_id} acts on object {step.object_name!r} but "
                f"execution {self.execution_id!r} belongs to object {self.object_name!r}"
            )
        steps = self._steps
        if step_id in steps:
            raise ModelError(f"duplicate step id {step_id} in execution {self.execution_id!r}")

        if after is None:
            predecessor_ids = self._maximal
            self._maximal = (step_id,)
        else:
            predecessor_ids = tuple(
                dict.fromkeys(item.step_id if isinstance(item, Step) else int(item) for item in after)
            )
            unknown = [pid for pid in predecessor_ids if pid not in steps]
            if unknown:
                raise ModelError(
                    f"programme-order predecessors {unknown} are not steps of "
                    f"execution {self.execution_id!r}"
                )
            maximal = tuple(pid for pid in self._maximal if pid not in predecessor_ids)
            self._maximal = maximal + (step_id,)
            if maximal:  # two maximal steps are unordered, and stay unordered
                self._sequential = False

        steps[step_id] = step
        if predecessor_ids:
            self._predecessors[step_id] = predecessor_ids
        if self._po_successors is not None:
            self._po_successors = self._po_reachable = None
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
        # An added pair leaves every step preceding some step of _maximal.
        existing = self._predecessors.get(second_id, ())
        if first_id not in existing:
            self._predecessors[second_id] = existing + (first_id,)
        self._po_successors = self._po_reachable = None

    # -- inspection -----------------------------------------------------------

    @property
    def is_top_level(self) -> bool:
        """True for executions with no parent (methods of the environment)."""
        return self.parent_id is None

    def steps(self) -> list[Step]:
        """All steps, in the order they were added."""
        return list(self._steps.values())

    def step(self, step_id: int) -> Step:
        return self._steps[step_id]

    def step_ids(self) -> list[int]:
        return list(self._steps)

    def step_ids_iter(self) -> Iterable[int]:
        """Step ids in insertion order, without copying the sequence."""
        return iter(self._steps)

    def local_steps(self) -> list[LocalStep]:
        return [step for step in self._steps.values() if isinstance(step, LocalStep)]

    def message_steps(self) -> list[MessageStep]:
        return [step for step in self._steps.values() if isinstance(step, MessageStep)]

    def is_sequential(self) -> bool:
        """True when ``prec`` orders every two steps: no step was ever added
        beside another (an explicit ``after`` that left two maximal steps)."""
        return self._sequential

    def maximal_step_ids(self) -> tuple[int, ...]:
        """Steps that every step precedes or is (the maximal ones, unless
        :meth:`order_steps` ordered one of them before another step)."""
        return self._maximal

    def program_order_items(self) -> Iterable[tuple[int, tuple[int, ...]]]:
        """:meth:`program_order_pairs` grouped by later step, as a live view:
        ``(step id, ids it directly follows)`` for each step that follows any."""
        return self._predecessors.items()

    def program_order_pairs(self) -> frozenset[tuple[int, int]]:
        """The generating pairs of the programme order ``prec`` (not closed)."""
        pairs = self._predecessors.items()
        return frozenset((before, after) for after, befores in pairs for before in befores)

    def program_precedes(self, first: Step | int, second: Step | int) -> bool:
        """True when ``first prec second`` holds in the transitive closure.

        A generating pair answers at once.  Otherwise the closure from
        ``first`` (:func:`~repro.core.dag.reachable`) is memoised per source
        step (and the successor adjacency built once), so repeated queries —
        the serialisation-graph builders ask about every message pair — cost
        ``O(1)`` after the first one.
        """
        first_id = first.step_id if isinstance(first, Step) else int(first)
        second_id = second.step_id if isinstance(second, Step) else int(second)
        if first_id == second_id:
            return False
        if first_id in self._predecessors.get(second_id, ()):
            return True
        if self._po_successors is None:
            successors: dict[int, set[int]] = {}
            for after, befores in self._predecessors.items():
                for before in befores:
                    successors.setdefault(before, set()).add(after)
            self._po_successors = successors
            self._po_reachable = {}
        reached = self._po_reachable.get(first_id)
        if reached is None:
            reached = self._po_reachable[first_id] = reachable(self._po_successors, (first_id,))
        return second_id in reached

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
