"""Quadratic reference implementations for :class:`repro.core.History`.

Kept out of ``src/``: production never runs them, the property tests hold
the indexed implementations against them.

* :func:`order_pairs_legacy` — the permutation enumeration of ``<`` that
  ``History.order_pairs``' sorted-interval sweep replaced;
* :func:`precedes_oracle` — ``t < t'`` by a route that shares no code with
  ``History.precedes``: for interval histories, membership in that
  permutation enumeration; for order-pair histories, a closure walked
  from scratch on every call;
* :func:`check_condition_2c` — Definition 6 condition 2c as every ordered
  step pair × both descendant sets, copied verbatim from
  ``History._check_condition_two`` as it stood before the envelope sweep
  became its early exit;
* :func:`with_intervals` — the same executions under edited intervals, for
  building illegal interval histories out of ``HistoryBuilder`` ones.
"""

from __future__ import annotations

import functools
import itertools

from repro.core import History
from repro.core.errors import IllegalHistoryError
from repro.core.operations import Step


def order_pairs_legacy(history: History) -> set[tuple[int, int]]:
    """The original ``O(n^2)`` permutation enumeration of ``<``."""
    if history._intervals is None:
        return set(history._order_pairs)
    pairs: set[tuple[int, int]] = set()
    items = list(history._intervals.items())
    for (first_id, (_, first_end)), (second_id, (second_start, _)) in itertools.permutations(items, 2):
        if first_end < second_start:
            pairs.add((first_id, second_id))
    return pairs


# One enumeration per history, not per query: the tests ask about every pair.
_enumerated_order = functools.lru_cache(maxsize=4)(order_pairs_legacy)


def precedes_oracle(history: History, first: Step | int, second: Step | int) -> bool:
    """``t < t'``, independently of ``History.precedes`` and its caches."""
    first_id = first.step_id if isinstance(first, Step) else int(first)
    second_id = second.step_id if isinstance(second, Step) else int(second)
    if first_id == second_id:
        return False
    if history._intervals is not None:
        return (first_id, second_id) in _enumerated_order(history)
    successors: dict[int, set[int]] = {}
    for before, after in history._order_pairs:
        successors.setdefault(before, set()).add(after)
    reached: set[int] = set()
    frontier = list(successors.get(first_id, ()))
    while frontier:
        current = frontier.pop()
        if current in reached:
            continue
        reached.add(current)
        frontier.extend(successors.get(current, ()))
    return second_id in reached


def check_condition_2c(history: History) -> None:
    """Raise :class:`IllegalHistoryError` unless orderings propagate to descendants."""
    all_steps = list(history._steps.values())
    descendant_cache = {step.step_id: history.step_descendant_steps(step) for step in all_steps}
    for first, second in history.ordered_step_pairs(all_steps):
        for first_descendant in descendant_cache[first.step_id]:
            for second_descendant in descendant_cache[second.step_id]:
                if first_descendant == first.step_id and second_descendant == second.step_id:
                    continue
                if not history.precedes(first_descendant, second_descendant):
                    raise IllegalHistoryError(
                        f"{first.step_id} < {second.step_id} but descendants "
                        f"{first_descendant} and {second_descendant} are not ordered accordingly",
                        condition="2c",
                    )


def with_intervals(history: History, changes: dict[int, tuple[int, int] | None]) -> History:
    """``history`` with each step in ``changes`` re-timed, or untimed when ``None``."""
    intervals = history.intervals()
    for step_id, interval in changes.items():
        if interval is None:
            del intervals[step_id]
        else:
            intervals[step_id] = interval
    return History(
        list(history.executions.values()),
        history.initial_states,
        conflicts=history.conflicts,
        intervals=intervals,
    )
