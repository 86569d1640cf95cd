"""Quadratic reference implementations for :class:`repro.core.History`.

Kept out of ``src/``: production never runs them, the property tests hold
the indexed implementations against them.

* :func:`order_pairs_legacy` — the permutation enumeration of ``<`` that
  ``History.order_pairs``' sorted-interval sweep replaced;
* :func:`check_condition_2c` — Definition 6 condition 2c as every ordered
  step pair × both descendant sets, copied verbatim from
  ``History._check_condition_two`` as it stood before the envelope sweep
  became its early exit;
* :func:`with_intervals` — the same executions under edited intervals, for
  building illegal interval histories out of ``HistoryBuilder`` ones.
"""

from __future__ import annotations

import itertools

from repro.core import History
from repro.core.errors import IllegalHistoryError


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
