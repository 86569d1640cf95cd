"""Executable forms of the paper's theorems.

* **Theorem 1** (determinacy): the final state of each object in a legal
  history does not depend on which topological sort of its local steps is
  replayed.  :func:`check_determinacy` tests this directly by replaying
  several randomly tie-broken sorts.
* **Theorem 2** (the Serialisability Theorem): if ``SG(h)`` is acyclic then
  ``h`` is serialisable.  :func:`is_serialisable` applies the acyclicity
  test; :func:`serialise` goes further and *constructs* the equivalent
  serial history following the proof of the theorem (the ``=>`` relation,
  extended level by level, then the ``<_s`` order of Claims 2-6).
* **Theorem 5** (modular synchronisation) is checked by the certifier,
  :func:`repro.analysis.theorem_5_conditions`.

The brute-force oracle the tests cross-check Theorem 2 against lives in
``tests/oracles/serial.py``.
"""

from __future__ import annotations

import itertools
import random

from .dag import cyclic_nodes, topological_order
from .errors import IllegalStepSequenceError, ModelError, VerificationError
from .executions import natural_execution_key
from .graphs import is_acyclic, serialisation_graph
from .history import History
from .operations import LocalStep, Step


# ---------------------------------------------------------------------------
# Theorem 1 — determinacy of legal histories
# ---------------------------------------------------------------------------


def check_determinacy(history: History, attempts: int = 5, seed: int = 0) -> bool:
    """Replay each object under several topological sorts and compare states.

    Returns ``True`` when every replay is legal and all replays of an object
    agree on its final state — the guarantee of Theorem 1.  Raises
    :class:`IllegalStepSequenceError` if some sort is not legal on the
    initial state (which would mean the history itself is not legal).
    """
    rng = random.Random(seed)
    for object_name in sorted(history.object_names()):
        reference = history.replay(object_name)
        steps = history.local_steps(object_name)
        for _ in range(attempts):
            order = _random_topological_sort(history, steps, rng)
            state = history.replay(object_name, order)
            if state != reference:
                return False
    return True


def _random_topological_sort(
    history: History, steps: list[LocalStep], rng: random.Random
) -> list[LocalStep]:
    """Kernel order under seeded random keys: any linear extension of ``<`` can come out."""
    by_id = {step.step_id: step for step in steps}
    keys = {step_id: rng.random() for step_id in by_id}
    pairs = ((first.step_id, second.step_id) for first, second in history.ordered_step_pairs(steps))
    order = topological_order(by_id, pairs, keys.__getitem__)
    if order is None:
        raise ModelError("temporal order contains a cycle among local steps")
    return [by_id[step_id] for step_id in order]


# ---------------------------------------------------------------------------
# Theorem 2 — the serialisability theorem
# ---------------------------------------------------------------------------


def is_serialisable(history: History) -> bool:
    """Sufficient condition of Theorem 2: ``SG(h)`` acyclic implies serialisable."""
    return is_acyclic(serialisation_graph(history))


def serialisation_cycle(history: History) -> tuple[str, ...] | None:
    """The executions on some cycle of ``SG(h)``, sorted, or ``None`` when it is acyclic."""
    return cyclic_nodes(serialisation_graph(history)) or None


def execution_serial_order(history: History) -> list[str]:
    """A total order of all executions compatible with ``SG(h)``.

    The order is produced exactly as in the proof of Theorem 2: siblings
    under each parent (and the top-level executions) are ordered by a
    topological sort of the serialisation graph restricted to them, and the
    ordering is inherited by descendants.  Raises :class:`ModelError` when
    ``SG(h)`` is cyclic.
    """
    index = _serial_index(history)
    return sorted(index, key=lambda execution_id: index[execution_id])


def _serial_index(history: History) -> dict[str, tuple[int, ...]]:
    graph = serialisation_graph(history)
    if not is_acyclic(graph):
        raise ModelError("serialisation graph has a cycle; history may not be serialisable")
    # SG(h) restricted to each sibling group, filed under the siblings' parent.
    sibling_edges: dict[str | None, list[tuple[str, str]]] = {}
    for source, target in graph:
        parent_id = history.parent_of(source)
        if parent_id == history.parent_of(target):
            sibling_edges.setdefault(parent_id, []).append((source, target))
    index: dict[str, tuple[int, ...]] = {}

    def assign(parent_id: str | None, prefix: tuple[int, ...]) -> None:
        if parent_id is None:
            siblings = history.top_level_executions()
        else:
            siblings = history.children_of(parent_id)
        edges = sibling_edges.get(parent_id, ())
        for position, execution_id in enumerate(topological_order(siblings, edges, natural_execution_key)):
            index[execution_id] = prefix + (position,)
            assign(execution_id, prefix + (position,))

    assign(None, ())
    return index


def serialise(history: History, verify: bool = True) -> History:
    """Construct the serial history ``h_s`` equivalent to ``history``.

    This follows the proof of Theorem 2: an ordering ``=>`` of incomparable
    executions is derived from the (acyclic) serialisation graph by ordering
    siblings level by level and inheriting the order to descendants; the
    serial order ``<_s`` over steps is then generated by the rules
    ``<_s.1(a)-(c)`` for steps of comparable executions and ``<_s.2`` for
    steps of incomparable executions.  With ``verify=True`` the constructed
    history is checked to be legal, serial and equivalent to the input —
    i.e. the statement of Theorem 2 is validated on the instance.
    """
    index = _serial_index(history)

    def execution_before(first_id: str, second_id: str) -> bool:
        return index[first_id] < index[second_id]

    pairs: set[tuple[int, int]] = set()
    executions = history.executions

    # <_s.1 — steps of comparable method executions.
    for first_id, second_id in itertools.product(executions, repeat=2):
        first_execution = executions[first_id]
        second_execution = executions[second_id]
        first_is_ancestor = history.is_ancestor(first_id, second_id)
        second_is_ancestor = history.is_ancestor(second_id, first_id)
        if not (first_is_ancestor or second_is_ancestor):
            continue
        for first_step in first_execution.steps():
            for second_step in second_execution.steps():
                if first_step.step_id == second_step.step_id:
                    continue
                if _comparable_steps_ordered(
                    history, first_step, second_step, first_is_ancestor, second_is_ancestor
                ):
                    pairs.add((first_step.step_id, second_step.step_id))

    # <_s.2 — steps of incomparable method executions follow the => order.
    for first_id, second_id in itertools.permutations(executions, 2):
        if not history.are_incomparable(first_id, second_id):
            continue
        if not execution_before(first_id, second_id):
            continue
        for first_step in executions[first_id].steps():
            for second_step in executions[second_id].steps():
                pairs.add((first_step.step_id, second_step.step_id))

    serial_history = History(
        list(executions.values()),
        history.initial_states,
        conflicts=history.conflicts,
        order_pairs=pairs,
    )
    if verify:
        serial_history.check_legal()
        if not serial_history.is_serial():
            raise VerificationError("constructed history is not serial")
        if not serial_history.equivalent_to(history):
            raise VerificationError("constructed serial history is not equivalent to the input")
    return serial_history


def _comparable_steps_ordered(
    history: History,
    first_step: Step,
    second_step: Step,
    first_is_ancestor: bool,
    second_is_ancestor: bool,
) -> bool:
    """Evaluate rules ``<_s.1(a)-(c)`` for one ordered pair of steps."""
    # (a) conflicting steps keep their temporal order.
    if isinstance(first_step, LocalStep) and isinstance(second_step, LocalStep):
        if first_step.object_name == second_step.object_name and history.precedes(
            first_step, second_step
        ):
            spec = history.conflicts
            if spec.steps_conflict(first_step, second_step) or spec.steps_conflict(
                second_step, first_step
            ):
                return True
    # (b) the ancestor execution's programme order is respected.
    if first_is_ancestor:
        ancestor_execution = history.execution(first_step.execution_id)
        surrogate = _ancestor_step_in(history, second_step, ancestor_execution.execution_id)
        if surrogate is not None and ancestor_execution.program_precedes(first_step, surrogate):
            return True
    # (c) symmetric case: the other execution is the ancestor.
    if second_is_ancestor:
        ancestor_execution = history.execution(second_step.execution_id)
        surrogate = _ancestor_step_in(history, first_step, ancestor_execution.execution_id)
        if surrogate is not None and ancestor_execution.program_precedes(surrogate, second_step):
            return True
    return False


def _ancestor_step_in(history: History, step: Step, ancestor_execution_id: str) -> Step | None:
    """The ancestor of ``step`` among the steps of ``ancestor_execution_id``.

    If the step already belongs to that execution it is its own ancestor;
    otherwise the surrogate is the message step of the ancestor execution
    whose subtree contains the step.
    """
    if step.execution_id == ancestor_execution_id:
        return step
    current_id = step.execution_id
    while current_id is not None:
        execution = history.execution(current_id)
        if execution.parent_id == ancestor_execution_id:
            if execution.invoking_step_id is None:
                return None
            return history.step(execution.invoking_step_id)
        current_id = execution.parent_id
    return None
