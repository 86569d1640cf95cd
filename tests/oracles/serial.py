"""A brute-force serialisability oracle for small histories (Theorem 2's check).

:func:`brute_force_serialisable` searches serial arrangements of a
history's executions for one with the same final states, sharing no code
with ``SG(h)`` or :func:`repro.core.serialise`; the tests hold
:func:`repro.core.is_serialisable` against it.
"""

from __future__ import annotations

import itertools

from repro.core import History, LocalStep, MessageStep, ModelError, ObjectState
from repro.core.dag import topological_order


def brute_force_serialisable(history: History, candidate_limit: int = 20000) -> bool:
    """Search serial arrangements of the executions for an equivalent one.

    The oracle enumerates orderings of siblings at every level of the
    execution forest (up to ``candidate_limit`` arrangements), replays each
    object's local steps in the induced serial order and compares final
    states with the input history.  It considers serial histories in which
    every execution's steps and its children's subtrees appear as contiguous
    blocks; this covers all serial histories needed for the library's test
    cases, but is in principle an under-approximation, so a ``False`` result
    means "no block-serial equivalent found".
    """
    reference_states = history.final_states()

    sibling_groups: list[list[str]] = []
    sibling_groups.append(sorted(history.top_level_executions()))
    for execution_id in sorted(history.execution_ids()):
        children = sorted(history.children_of(execution_id))
        if children:
            sibling_groups.append(children)

    permutation_sets = [list(itertools.permutations(group)) for group in sibling_groups]
    total = 1
    for permutations in permutation_sets:
        total *= len(permutations)
    if total > candidate_limit:
        raise ModelError(
            f"brute-force search space of {total} arrangements exceeds the limit "
            f"of {candidate_limit}"
        )

    for assignment in itertools.product(*permutation_sets):
        ordering = {tuple(sorted(perm)): list(perm) for perm in assignment}
        if _serial_arrangement_matches(history, ordering, reference_states):
            return True
    return False


def _serial_arrangement_matches(
    history: History,
    ordering: dict[tuple[str, ...], list[str]],
    reference_states: dict[str, ObjectState],
) -> bool:
    per_object: dict[str, list[LocalStep]] = {name: [] for name in history.object_names()}

    def ordered_siblings(siblings: list[str]) -> list[str]:
        return ordering.get(tuple(sorted(siblings)), sorted(siblings))

    def emit(execution_id: str) -> None:
        execution = history.execution(execution_id)
        child_rank = {
            child: rank
            for rank, child in enumerate(ordered_siblings(history.children_of(execution_id)))
        }

        steps = {step.step_id: step for step in execution.steps()}

        def preference(step_id: int) -> tuple[int, int]:
            step = steps[step_id]
            if isinstance(step, MessageStep):
                return (child_rank.get(history.child_of_message(step), 0), step_id)
            return (0, step_id)

        # Programme order, each message placed by its child's rank.
        for step_id in topological_order(steps, execution.program_order_pairs(), preference):
            step = steps[step_id]
            if isinstance(step, LocalStep):
                per_object.setdefault(step.object_name, []).append(step)
            elif isinstance(step, MessageStep):
                child_id = history.child_of_message(step)
                if child_id is not None:
                    emit(child_id)

    for top_level in ordered_siblings(history.top_level_executions()):
        emit(top_level)

    for object_name, steps in per_object.items():
        state = history.initial_state(object_name)
        for step in steps:
            value, state = step.operation.apply(state)
            if value != step.return_value and not step.is_abort():
                return False
        if state != reference_states.get(object_name, ObjectState()):
            return False
    return True
