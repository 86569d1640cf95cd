"""Histories: concurrent executions in an object base.

Definition 5: a history is a quadruple ``h = (E, <, B, S)`` where ``E`` is a
set of method executions, ``<`` is a partial order on the steps of ``h``
("t < t'" meaning step ``t`` completed before ``t'`` was initiated), ``B``
maps each message step to the method execution it caused, and ``S`` gives an
initial state for every object.

:class:`History` realises this quadruple together with the legality
conditions of Definition 6, replay of local steps to compute final states
(Theorem 1 guarantees the result is independent of the topological sort
chosen), history equivalence (Definition 7), serial histories (Definition 8)
and the abort semantics of the "Transaction Failures" subsection.

:class:`HistoryBuilder` offers a convenient, state-tracking way to construct
legal histories — it is used throughout the tests and by the simulation
engine, which records the history of every run it executes.

A history is effectively frozen at construction (``_steps`` is snapshotted
in ``__init__``), so :class:`History` also builds *persistent indexes* the
certification machinery relies on: per-object local-step lists, a
parent→children map, cached ancestor chains/sets, cached descendant
tuples, and — for interval-backed histories — per-step-set sorted-interval
sweeps that turn ``order_pairs`` and ordered-pair enumeration into
``O(n log n + k)`` binary-search scans instead of ``O(n^2)`` permutations,
and Definition 6 condition 2c into an ``O(n log n)`` envelope sweep
(DESIGN.md "Certification complexity", *Legality*).
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections.abc import Iterable, Mapping
from typing import Any

from .conflicts import PerObjectConflicts
from .dag import reachable, topological_order
from .errors import (
    IllegalHistoryError,
    IllegalStepSequenceError,
    ModelError,
    UnknownExecutionError,
    UnknownObjectError,
)
from .executions import ENVIRONMENT_OBJECT, MethodExecution
from .operations import AbortOperation, LocalOperation, LocalStep, MessageStep, Step
from .state import ObjectState

AUTO = object()
"""Sentinel: let the :class:`HistoryBuilder` compute a step's return value."""


def _interval_sweep_pairs(items: list[tuple[int, tuple[int, int]]]) -> set[tuple[int, int]]:
    """All ordered pairs among ``(step_id, (start, end))`` items.

    ``t < t'`` iff ``end(t) < start(t')``: sort by start instant, then for
    each item every item whose start lies strictly after its end follows it
    — a binary search per item, ``O(n log n + k)`` overall.
    """
    ordered = sorted(items, key=lambda item: item[1][0])
    starts = [interval[0] for _, interval in ordered]
    pairs: set[tuple[int, int]] = set()
    for step_id, (_, end) in ordered:
        for other_id, _ in ordered[bisect_right(starts, end):]:
            pairs.add((step_id, other_id))
    return pairs


class History:
    """A (possibly illegal) history over a set of method executions.

    Parameters
    ----------
    executions:
        The method executions ``E`` of the history.
    initial_states:
        ``S``: one initial :class:`ObjectState` per object.  Objects that
        are touched by local steps but missing from the mapping default to
        the empty state.
    conflicts:
        Per-object conflict specifications used to evaluate Definition 3
        when checking legality and building serialisation graphs.
    order_pairs:
        Generating pairs ``(t, t')`` of the temporal order ``<`` (the
        relation used is their transitive closure).  Mutually exclusive
        with ``intervals``.
    intervals:
        Alternative representation of ``<``: a mapping from step id to a
        ``(start, end)`` pair of logical instants, ``start <= end`` (a
        reversed interval raises :class:`ModelError`); then ``t < t'`` iff
        ``end(t) < start(t')``.  This is the representation produced by the
        simulation engine and by :class:`HistoryBuilder`.
    """

    def __init__(
        self,
        executions: Iterable[MethodExecution] | Mapping[str, MethodExecution],
        initial_states: Mapping[str, ObjectState],
        conflicts: PerObjectConflicts | None = None,
        order_pairs: Iterable[tuple[int, int]] | None = None,
        intervals: Mapping[int, tuple[int, int]] | None = None,
    ):
        if isinstance(executions, Mapping):
            self._executions: dict[str, MethodExecution] = dict(executions)
        else:
            self._executions = {execution.execution_id: execution for execution in executions}
        self._initial_states: dict[str, ObjectState] = {
            name: state if isinstance(state, ObjectState) else ObjectState(state)
            for name, state in initial_states.items()
        }
        self.conflicts = conflicts if conflicts is not None else PerObjectConflicts()

        if order_pairs is not None and intervals is not None:
            raise ModelError("provide either order_pairs or intervals, not both")
        self._intervals: dict[int, tuple[int, int]] | None = (
            dict(intervals) if intervals is not None else None
        )
        # ``<`` is transitive only if no interval ends before it starts.
        for step_id, (start, end) in (self._intervals or {}).items():
            if start > end:
                raise ModelError(f"interval ({start}, {end}) of step {step_id} ends before it starts")
        self._order_pairs: set[tuple[int, int]] = set(order_pairs or [])

        # Index steps, the B mapping and the persistent indexes (histories
        # are frozen at construction), in one pass over the executions.
        self._steps: dict[int, Step] = {}
        self._children_by_step: dict[int, str] = {}
        self._local_steps_by_object: dict[str, list[LocalStep]] = {}
        self._children_index: dict[str, list[str]] = {}
        for execution in self._executions.values():
            for step in execution.steps():
                if step.step_id in self._steps:
                    raise ModelError(f"step id {step.step_id} appears in two executions")
                self._steps[step.step_id] = step
                if isinstance(step, LocalStep):
                    self._local_steps_by_object.setdefault(step.object_name, []).append(step)
            if execution.invoking_step_id is not None:
                self._children_by_step.setdefault(execution.invoking_step_id, execution.execution_id)
            if execution.parent_id is not None:
                self._children_index.setdefault(execution.parent_id, []).append(execution.execution_id)

        self._ancestor_chain_cache: dict[str, tuple[str, ...]] = {}
        self._ancestor_set_cache: dict[str, frozenset[str]] = {}
        self._descendant_cache: dict[str, tuple[str, ...]] = {}
        self._successors_cache: dict[int, set[int]] | None = None
        self._reachability_cache: dict[int, dict] = {}
        self._final_states_cache: dict[str, ObjectState] | None = None

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def executions(self) -> dict[str, MethodExecution]:
        return dict(self._executions)

    @property
    def initial_states(self) -> dict[str, ObjectState]:
        return dict(self._initial_states)

    def execution(self, execution_id: str) -> MethodExecution:
        try:
            return self._executions[execution_id]
        except KeyError as exc:
            raise UnknownExecutionError(f"unknown execution {execution_id!r}") from exc

    def execution_ids(self) -> list[str]:
        return list(self._executions)

    def steps(self) -> list[Step]:
        return list(self._steps.values())

    def step(self, step_id: int) -> Step:
        return self._steps[step_id]

    def local_steps(self, object_name: str | None = None) -> list[LocalStep]:
        if object_name is not None:
            return list(self._local_steps_by_object.get(object_name, ()))
        return [step for step in self._steps.values() if isinstance(step, LocalStep)]

    def message_steps(self) -> list[MessageStep]:
        return [step for step in self._steps.values() if isinstance(step, MessageStep)]

    def object_names(self) -> set[str]:
        names = set(self._initial_states)
        names.update(step.object_name for step in self.local_steps())
        return names

    def initial_state(self, object_name: str) -> ObjectState:
        return self._initial_states.get(object_name, ObjectState())

    def intervals(self) -> dict[int, tuple[int, int]] | None:
        """The interval representation of ``<`` if one was supplied."""
        return dict(self._intervals) if self._intervals is not None else None

    # ------------------------------------------------------------------
    # the B mapping and the ancestry forest
    # ------------------------------------------------------------------

    def child_of_message(self, message_step: MessageStep | int) -> str | None:
        """``B(t)``: the execution caused by the given message step, if any."""
        step_id = message_step.step_id if isinstance(message_step, Step) else int(message_step)
        return self._children_by_step.get(step_id)

    def parent_of(self, execution_id: str) -> str | None:
        return self.execution(execution_id).parent_id

    def children_of(self, execution_id: str) -> list[str]:
        return list(self._children_index.get(execution_id, ()))

    def ancestors(self, execution_id: str, include_self: bool = False) -> list[str]:
        """Ancestors of the execution, nearest first (chains are memoised)."""
        chain = self._ancestor_chain_cache.get(execution_id)
        if chain is None:
            collected: list[str] = []
            seen = {execution_id}
            current = self.execution(execution_id).parent_id
            while current is not None:
                if current in seen:
                    break  # cyclic ancestry; reported by check_legal
                collected.append(current)
                seen.add(current)
                current = (
                    self._executions[current].parent_id if current in self._executions else None
                )
            chain = tuple(collected)
            self._ancestor_chain_cache[execution_id] = chain
        if include_self:
            return [execution_id, *chain]
        return list(chain)

    def _ancestor_set(self, execution_id: str) -> frozenset[str]:
        cached = self._ancestor_set_cache.get(execution_id)
        if cached is None:
            cached = frozenset(self.ancestors(execution_id))
            self._ancestor_set_cache[execution_id] = cached
        return cached

    def descendants(self, execution_id: str, include_self: bool = True) -> list[str]:
        cached = self._descendant_cache.get(execution_id)
        if cached is None:
            result: list[str] = [execution_id]
            visited = {execution_id}
            frontier = [execution_id]
            while frontier:
                current = frontier.pop()
                for child in self._children_index.get(current, ()):
                    if child in visited:
                        continue  # cyclic ancestry; reported by check_legal
                    visited.add(child)
                    result.append(child)
                    frontier.append(child)
            cached = tuple(result)
            self._descendant_cache[execution_id] = cached
        return list(cached) if include_self else list(cached[1:])

    def is_ancestor(self, ancestor_id: str, descendant_id: str, proper: bool = False) -> bool:
        if ancestor_id == descendant_id:
            return not proper
        return ancestor_id in self._ancestor_set(descendant_id)

    def are_comparable(self, first_id: str, second_id: str) -> bool:
        """True when one execution is a descendant of the other."""
        return self.is_ancestor(first_id, second_id) or self.is_ancestor(second_id, first_id)

    def are_incomparable(self, first_id: str, second_id: str) -> bool:
        return not self.are_comparable(first_id, second_id)

    def top_level_executions(self) -> list[str]:
        return [
            execution.execution_id
            for execution in self._executions.values()
            if execution.is_top_level
        ]

    def least_common_ancestor(self, execution_ids: Iterable[str]) -> str | None:
        """``lca``: the closest execution that is an ancestor of all the given ones."""
        ids = list(execution_ids)
        if not ids:
            return None
        common: set[str] | None = None
        for execution_id in ids:
            chain = set(self.ancestors(execution_id, include_self=True))
            common = chain if common is None else common & chain
        if not common:
            return None
        # The lca is the common ancestor with the greatest depth.
        return max(common, key=lambda eid: len(self.ancestors(eid)))

    def level(self, execution_id: str) -> int:
        """Number of proper ancestors (top-level executions are level 0)."""
        return len(self.ancestors(execution_id))

    # ------------------------------------------------------------------
    # the temporal order <
    # ------------------------------------------------------------------

    def order_pairs(self) -> set[tuple[int, int]]:
        """Generating pairs of ``<`` (derived from intervals when present).

        For interval-backed histories the pairs are enumerated with a
        sorted-interval sweep — ``O(n log n + k)`` for ``k`` ordered pairs —
        instead of the quadratic permutation scan.
        """
        if self._intervals is None:
            return set(self._order_pairs)
        return _interval_sweep_pairs(list(self._intervals.items()))

    def precedes(self, first: Step | int, second: Step | int) -> bool:
        """``t < t'``: ``first`` completed before ``second`` was initiated."""
        first_id = first.step_id if isinstance(first, Step) else int(first)
        second_id = second.step_id if isinstance(second, Step) else int(second)
        if first_id == second_id:
            return False
        if self._intervals is not None:
            first_interval = self._intervals.get(first_id)
            second_interval = self._intervals.get(second_id)
            if first_interval is None or second_interval is None:
                return False
            return first_interval[1] < second_interval[0]
        # The closure from ``first`` over the generating pairs, memoised per
        # source (the successor adjacency is built once).
        reached = self._reachability_cache.get(first_id)
        if reached is None:
            if self._successors_cache is None:
                successors: dict[int, set[int]] = {}
                for before, after in self._order_pairs:
                    successors.setdefault(before, set()).add(after)
                self._successors_cache = successors
            reached = reachable(self._successors_cache, (first_id,))
            self._reachability_cache[first_id] = reached
        return second_id in reached

    def ordered(self, first: Step | int, second: Step | int) -> bool:
        """True when the two steps are related by ``<`` in either direction."""
        return self.precedes(first, second) or self.precedes(second, first)

    def ordered_step_pairs(self, steps: list[Step]) -> Iterable[tuple[Step, Step]]:
        """All pairs ``(t, t')`` among ``steps`` with ``t < t'``.

        Interval-backed histories use the sorted-interval sweep (binary
        search over start instants); order-pair histories fall back to the
        pairwise reachability test.  Each ordered pair is yielded exactly
        once.
        """
        if self._intervals is None:
            for first, second in itertools.permutations(steps, 2):
                if self.precedes(first, second):
                    yield first, second
            return
        entries = sorted(
            (
                (self._intervals[step.step_id][0], step)
                for step in steps
                if step.step_id in self._intervals
            ),
            key=lambda entry: entry[0],
        )
        starts = [start for start, _ in entries]
        by_start = [step for _, step in entries]
        for _, step in entries:
            end = self._intervals[step.step_id][1]
            # start <= end for every interval, so the suffix never contains
            # the step itself.
            for later in by_start[bisect_right(starts, end):]:
                yield step, later

    def ordered_conflicting_pairs(
        self, object_name: str
    ) -> Iterable[tuple[LocalStep, LocalStep]]:
        """Ordered pairs ``t < t'`` of the object's local steps with ``t`` conflicting with ``t'``."""
        for first, second in self.ordered_step_pairs(self.local_steps(object_name)):
            if self.conflicts.steps_conflict(first, second):
                yield first, second

    def step_descendant_steps(self, step: Step | int) -> set[int]:
        """All step ids that are descendants of the given step (inclusive).

        A local step is its own only descendant; a message step's
        descendants are itself plus every step of every execution in the
        subtree rooted at ``B(step)``.
        """
        step_obj = self._steps[step.step_id if isinstance(step, Step) else int(step)]
        result = {step_obj.step_id}
        child_id = self.child_of_message(step_obj) if isinstance(step_obj, MessageStep) else None
        if child_id is not None:
            result.update(self._subtree_step_ids(child_id))
        return result

    # ------------------------------------------------------------------
    # replay and final states (Definition 6 condition 3, Theorem 1)
    # ------------------------------------------------------------------

    def topological_local_order(self, object_name: str) -> list[LocalStep]:
        """The object's local steps sorted consistently with ``<``, smallest ready step id first."""
        steps = self.local_steps(object_name)
        by_id = {step.step_id: step for step in steps}
        pairs = ((first.step_id, second.step_id) for first, second in self.ordered_step_pairs(steps))
        order = topological_order(by_id, pairs, int)
        if order is None:
            raise IllegalHistoryError(
                "the temporal order < contains a cycle among local steps", condition="2"
            )
        return [by_id[step_id] for step_id in order]

    def replay(
        self,
        object_name: str,
        order: list[LocalStep] | None = None,
        *,
        ignore_aborted: bool = False,
        strict: bool = True,
    ) -> ObjectState:
        """Replay the object's local steps and return the resulting state.

        With ``strict`` (the default) a recorded return value that differs
        from the value produced by the replay raises
        :class:`IllegalStepSequenceError` — i.e. the sequence is not legal
        on the initial state.  ``ignore_aborted`` drops local steps that
        belong to aborted method executions before replaying (used by the
        abort-semantics checks and by the simulation engine's undo).
        """
        if order is None:
            order = self.topological_local_order(object_name)
        state = self.initial_state(object_name)
        for step in order:
            if ignore_aborted and self._belongs_to_aborted(step):
                continue
            value, state = step.operation.apply(state)
            if strict and value != step.return_value and not step.is_abort():
                raise IllegalStepSequenceError(
                    f"step {step.step_id} of object {object_name!r} recorded return value "
                    f"{step.return_value!r} but replay produced {value!r}"
                )
        return state

    def _belongs_to_aborted(self, step: LocalStep) -> bool:
        execution_id = step.execution_id
        for ancestor in self.ancestors(execution_id, include_self=True):
            if ancestor in self._executions and self._executions[ancestor].is_aborted():
                return True
        return False

    def final_states(self) -> dict[str, ObjectState]:
        """The final state of every object after the history (Theorem 1)."""
        if self._final_states_cache is None:
            self._final_states_cache = {
                object_name: self.replay(object_name) for object_name in sorted(self.object_names())
            }
        return dict(self._final_states_cache)

    def final_state(self, object_name: str) -> ObjectState:
        if object_name not in self.object_names():
            raise UnknownObjectError(f"object {object_name!r} does not appear in the history")
        return self.final_states()[object_name]

    # ------------------------------------------------------------------
    # legality (Definition 6)
    # ------------------------------------------------------------------

    def check_legal(self) -> None:
        """Raise :class:`IllegalHistoryError` unless the history is legal."""
        self._check_condition_one()
        self._check_condition_two()
        self._check_condition_three()

    def is_legal(self) -> bool:
        try:
            self.check_legal()
        except IllegalHistoryError:
            return False
        return True

    def _check_condition_one(self) -> None:
        # B is defined on every message step (and 1-1 by representation: an
        # execution records the one message step whose image it is).
        for message in self.message_steps():
            child_id = self.child_of_message(message)
            if child_id is None:
                raise IllegalHistoryError(
                    f"message step {message.step_id} has no resulting method execution",
                    condition="1",
                )
            child = self.execution(child_id)
            if child.parent_id != message.execution_id:
                raise IllegalHistoryError(
                    f"execution {child_id!r} records parent {child.parent_id!r} but its "
                    f"invoking message step belongs to {message.execution_id!r}",
                    condition="1",
                )
        # Executions that claim an invoking step must contain a matching
        # message step, and no two may claim the same one (B is a function).
        for execution in self._executions.values():
            claimant = self._children_by_step.get(execution.invoking_step_id)
            if claimant is not None and claimant != execution.execution_id:
                raise IllegalHistoryError(
                    f"executions {claimant!r} and {execution.execution_id!r} both claim "
                    f"invoking message step {execution.invoking_step_id} (B not a function)",
                    condition="1",
                )
            if execution.invoking_step_id is None:
                if execution.parent_id is not None:
                    raise IllegalHistoryError(
                        f"execution {execution.execution_id!r} has a parent but no invoking "
                        "message step",
                        condition="1",
                    )
                continue
            if execution.invoking_step_id not in self._steps or not isinstance(
                self._steps[execution.invoking_step_id], MessageStep
            ):
                raise IllegalHistoryError(
                    f"execution {execution.execution_id!r} claims invoking step "
                    f"{execution.invoking_step_id} which is not a message step of the history",
                    condition="1",
                )
        # No execution is a proper ancestor of itself.
        for execution_id in self._executions:
            visited = {execution_id}
            current = self._executions[execution_id].parent_id
            while current is not None:
                if current == execution_id:
                    raise IllegalHistoryError(
                        f"execution {execution_id!r} is a proper ancestor of itself",
                        condition="1",
                    )
                if current in visited:
                    break
                visited.add(current)
                current = (
                    self._executions[current].parent_id if current in self._executions else None
                )
        # Top-level executions belong to the environment.
        for execution_id in self.top_level_executions():
            execution = self._executions[execution_id]
            if execution.object_name != ENVIRONMENT_OBJECT:
                raise IllegalHistoryError(
                    f"top-level execution {execution_id!r} belongs to object "
                    f"{execution.object_name!r}, not the environment",
                    condition="1",
                )

    def _check_condition_two(self) -> None:
        # 2a: the temporal order extends every execution's programme order.
        for execution in self._executions.values():
            for before_id, after_id in execution.program_order_pairs():
                if not self.precedes(before_id, after_id):
                    raise IllegalHistoryError(
                        f"programme order {before_id} prec {after_id} of execution "
                        f"{execution.execution_id!r} is not respected by <",
                        condition="2a",
                    )
        # 2b: conflicting local steps are ordered.
        for object_name in self.object_names():
            steps = self.local_steps(object_name)
            for first, second in itertools.combinations(steps, 2):
                conflict = self.conflicts.steps_conflict(first, second) or self.conflicts.steps_conflict(
                    second, first
                )
                if conflict and not self.ordered(first, second):
                    raise IllegalHistoryError(
                        f"conflicting steps {first.step_id} and {second.step_id} of object "
                        f"{object_name!r} are unordered",
                        condition="2b",
                    )
        # 2c: orderings propagate to descendants.  The enumeration words every
        # violation and is the only checker of order-pair histories.
        if self._intervals is not None and self._envelopes_follow_order():
            return
        all_steps = list(self._steps.values())
        descendant_cache = {step.step_id: self.step_descendant_steps(step) for step in all_steps}
        for first, second in self.ordered_step_pairs(all_steps):
            for first_descendant in descendant_cache[first.step_id]:
                for second_descendant in descendant_cache[second.step_id]:
                    if first_descendant == first.step_id and second_descendant == second.step_id:
                        continue
                    if not self.precedes(first_descendant, second_descendant):
                        raise IllegalHistoryError(
                            f"{first.step_id} < {second.step_id} but descendants "
                            f"{first_descendant} and {second_descendant} are not ordered accordingly",
                            condition="2c",
                        )

    def _envelopes_follow_order(self) -> bool:
        """Condition 2c of an interval order, in ``O(n log n)`` (DESIGN.md, *Legality*).

        ``env(t) = (min start, max end)`` over ``step_descendant_steps(t)``, one
        bottom-up pass over the execution forest; a descendant with no
        interval widens it to ``(-inf, +inf)``, as ``precedes`` is
        ``False`` for it.  2c holds iff ``envmax(a) < envmin(b)`` whenever ``b``
        starts after ``a`` ends: one suffix minimum, one bisect per step.
        """
        intervals, infinity = self._intervals, float("inf")
        subtree: dict[str, tuple[float, float]] = {}
        envelope: dict[int, tuple[float, float]] = {}
        for execution_id in sorted(self._executions, key=self.level, reverse=True):
            low, high = infinity, -infinity
            for step_id in self._executions[execution_id].step_ids_iter():
                start, end = intervals.get(step_id, (-infinity, infinity))
                if step_id in self._children_by_step:
                    below = subtree[self._children_by_step[step_id]]  # deeper, so done
                    start, end = min(start, below[0]), max(end, below[1])
                envelope[step_id] = (start, end)
                low, high = min(low, start), max(high, end)
            subtree[execution_id] = (low, high)
        timed = sorted((intervals[sid][0], sid) for sid in envelope if sid in intervals)
        starts = [start for start, _ in timed]
        # floor[i]: the least envmin among timed[i:].
        floor = list(itertools.accumulate((envelope[sid][0] for _, sid in reversed(timed)), min))[::-1]
        for _, step_id in timed:
            later = bisect_right(starts, intervals[step_id][1])
            if later < len(timed) and envelope[step_id][1] >= floor[later]:
                return False
        return True

    def _check_condition_three(self) -> None:
        for object_name in sorted(self.object_names()):
            try:
                self.replay(object_name)
            except IllegalStepSequenceError as exc:
                raise IllegalHistoryError(str(exc), condition="3") from exc

    # ------------------------------------------------------------------
    # serial histories and equivalence (Definitions 7 and 8)
    # ------------------------------------------------------------------

    def is_serial(self) -> bool:
        """True when incomparable executions never interleave (Definition 8)."""
        execution_ids = list(self._executions)
        for first_id, second_id in itertools.combinations(execution_ids, 2):
            if not self.are_incomparable(first_id, second_id):
                continue
            first_steps = self._subtree_step_ids(first_id)
            second_steps = self._subtree_step_ids(second_id)
            if not first_steps or not second_steps:
                continue
            first_before = all(
                self.precedes(s1, s2) for s1 in first_steps for s2 in second_steps
            )
            second_before = all(
                self.precedes(s2, s1) for s1 in first_steps for s2 in second_steps
            )
            if not (first_before or second_before):
                return False
        return True

    def _subtree_step_ids(self, execution_id: str) -> list[int]:
        step_ids: list[int] = []
        for descendant_id in self.descendants(execution_id):
            if descendant_id in self._executions:
                step_ids.extend(self._executions[descendant_id].step_ids())
        return step_ids

    def equivalent_to(self, other: "History") -> bool:
        """Definition 7: same executions, same B, same S, same final states."""
        if set(self._executions) != set(other._executions):
            return False
        for execution_id, execution in self._executions.items():
            other_execution = other._executions[execution_id]
            if set(execution.step_ids()) != set(other_execution.step_ids()):
                return False
            if execution.parent_id != other_execution.parent_id:
                return False
            if execution.invoking_step_id != other_execution.invoking_step_id:
                return False
        if self._initial_states != other._initial_states:
            return False
        mine = self.final_states()
        theirs = other.final_states()
        objects = set(mine) | set(theirs)
        return all(mine.get(name, ObjectState()) == theirs.get(name, ObjectState()) for name in objects)

    # ------------------------------------------------------------------
    # aborts (Section 3, "Transaction Failures")
    # ------------------------------------------------------------------

    def check_abort_semantics(self) -> None:
        """Check conditions (a) and (b) of the paper's abort semantics.

        (a) For every object, the subsequence of local steps belonging to
            non-aborted executions is legal on the initial state and yields
            the same final state as the full sequence.
        (b) If an execution aborts then so do all the executions its message
            steps created.
        """
        for object_name in sorted(self.object_names()):
            full_order = self.topological_local_order(object_name)
            full_state = self.replay(object_name, full_order, strict=False)
            survivors = [step for step in full_order if not self._belongs_to_aborted(step)]
            surviving_state = self.initial_state(object_name)
            for step in survivors:
                value, surviving_state = step.operation.apply(surviving_state)
                if value != step.return_value:
                    raise IllegalHistoryError(
                        f"abort semantics (a): surviving steps of {object_name!r} are not "
                        f"legal on the initial state (step {step.step_id})",
                        condition="abort-a",
                    )
            if surviving_state != full_state:
                raise IllegalHistoryError(
                    f"abort semantics (a): aborted steps changed the final state of "
                    f"{object_name!r}",
                    condition="abort-a",
                )
        for execution in self._executions.values():
            if not execution.is_aborted():
                continue
            for message in execution.message_steps():
                child_id = self.child_of_message(message)
                if child_id is None:
                    continue
                if not self.execution(child_id).is_aborted():
                    raise IllegalHistoryError(
                        f"abort semantics (b): execution {execution.execution_id!r} aborted "
                        f"but its child {child_id!r} did not",
                        condition="abort-b",
                    )

    def __repr__(self) -> str:
        return (
            f"History({len(self._executions)} executions, {len(self._steps)} steps, "
            f"{len(self.object_names())} objects)"
        )


class HistoryBuilder:
    """Incrementally construct a legal history while tracking object states.

    The builder maintains a logical clock and the current state of every
    object.  Each local step is stamped with the clock instant at which it
    executed; message steps span the interval from invocation to the
    completion of the child execution, which makes condition 2c of
    Definition 6 hold by construction (a descendant's interval lies inside
    its message step's — DESIGN.md "Certification complexity", *Legality*).
    When a local step's return value is left as :data:`AUTO` the builder
    computes it by applying the operation to the object's current state, so
    condition 3 also holds by construction.
    """

    def __init__(
        self,
        initial_states: Mapping[str, ObjectState | Mapping[str, Any]] | None = None,
        conflicts: PerObjectConflicts | None = None,
    ):
        self._initial_states: dict[str, ObjectState] = {
            name: state if isinstance(state, ObjectState) else ObjectState(state)
            for name, state in (initial_states or {}).items()
        }
        self._conflicts = conflicts if conflicts is not None else PerObjectConflicts()
        self._current_states: dict[str, ObjectState] = dict(self._initial_states)
        self._executions: dict[str, MethodExecution] = {}
        self._intervals: dict[int, tuple[int, int]] = {}
        # Execution id -> (its invoking message step, the message's start).
        self._open_messages: dict[str, tuple[MessageStep, int]] = {}
        self._clock = 0  # one instant per recorded step and per finish
        self._top_level_counter = itertools.count(1)
        self._child_counters: dict[str, int] = {}

    # -- clock ---------------------------------------------------------------

    @property
    def clock(self) -> int:
        return self._clock

    # -- executions ----------------------------------------------------------

    def begin_top_level(
        self, method_name: str = "transaction", execution_id: str | None = None
    ) -> MethodExecution:
        """Start a new top-level transaction (a method of the environment)."""
        if execution_id is None:
            execution_id = f"T{next(self._top_level_counter)}"
        if execution_id in self._executions:
            raise ModelError(f"duplicate execution id {execution_id!r}")
        execution = MethodExecution(execution_id, ENVIRONMENT_OBJECT, method_name)
        self._executions[execution_id] = execution
        return execution

    def invoke(
        self,
        parent: MethodExecution | str,
        target_object: str,
        target_method: str,
        arguments: tuple[Any, ...] = (),
        after: Iterable[Step | int] | None = None,
        execution_id: str | None = None,
    ) -> MethodExecution:
        """Record a message step in ``parent`` and create the child execution."""
        parent_execution = self._resolve(parent)
        parent_id = parent_execution.execution_id
        if execution_id is None:
            number = self._child_counters.get(parent_id, 0) + 1
            self._child_counters[parent_id] = number
            execution_id = f"{parent_id}.{number}"
        if execution_id in self._executions:
            raise ModelError(f"duplicate execution id {execution_id!r}")

        message = MessageStep(parent_id, target_object, target_method, arguments)
        parent_execution.add_step(message, after=after)
        self._clock = start = self._clock + 1
        child = MethodExecution(
            execution_id, target_object, target_method, parent_id, message.step_id
        )
        self._executions[execution_id] = child
        self._open_messages[execution_id] = (message, start)  # finish() closes it
        return child

    def local(
        self,
        execution: MethodExecution | str,
        operation: LocalOperation,
        return_value: Any = AUTO,
        after: Iterable[Step | int] | None = None,
    ) -> LocalStep:
        """Record a local step of ``execution`` on its own object."""
        resolved = self._resolve(execution)
        object_name = resolved.object_name
        state = self._current_states.get(object_name, ObjectState())
        produced_value, new_state = operation.apply(state)
        value = produced_value if return_value is AUTO else return_value
        step = LocalStep(resolved.execution_id, object_name, operation, value)
        resolved.add_step(step, after=after)
        self._clock = instant = self._clock + 1
        self._intervals[step.step_id] = (instant, instant)
        self._current_states[object_name] = new_state
        self._initial_states.setdefault(object_name, ObjectState())
        return step

    def record_local(self, execution: MethodExecution, step: LocalStep) -> LocalStep:
        """The simulation engine's fast path for :meth:`local`: record ``step``.

        The engine has already applied the operation and built the step the
        scheduler granted (its state table is authoritative — it also *undoes*
        aborted effects, which the builder's state mirror never does), so the
        step is recorded as it is.  Standalone construction uses :meth:`local`.
        """
        execution.add_step(step)
        self._clock = instant = self._clock + 1
        self._intervals[step.step_id] = (instant, instant)
        if step.object_name not in self._initial_states:
            self._initial_states[step.object_name] = ObjectState()
        return step

    def abort(self, execution: MethodExecution | str, reason: str = "") -> LocalStep:
        """Record an ``Abort`` step as the execution's last operation."""
        return self.local(execution, AbortOperation(reason))

    def finish(self, execution: MethodExecution | str, return_value: Any = None) -> None:
        """Mark the execution complete, closing its invoking message step."""
        execution_id = self._resolve(execution).execution_id
        self._clock = end = self._clock + 1
        opened = self._open_messages.pop(execution_id, None)
        if opened is not None:
            message, start = opened
            self._intervals[message.step_id] = (start, end)
            message.return_value = return_value

    def _resolve(self, execution: MethodExecution | str) -> MethodExecution:
        if isinstance(execution, MethodExecution):
            return execution
        try:
            return self._executions[execution]
        except KeyError as exc:
            raise UnknownExecutionError(f"unknown execution {execution!r}") from exc

    # -- handing subtrees over ------------------------------------------------

    def forget(
        self, execution_ids: Iterable[str]
    ) -> tuple[list[MethodExecution], dict[int, tuple[int, int]]]:
        """Drop the given executions and every record of their steps.

        Returns the executions and their steps' intervals (for a committed
        subtree, final and complete: what the streaming certifier takes).
        Forgetting each transaction once it settles leaves only in-flight
        records; a later :meth:`build` covers only what was never forgotten.
        """
        executions: list[MethodExecution] = []
        intervals: dict[int, tuple[int, int]] = {}
        for execution_id in execution_ids:
            execution = self._executions.pop(execution_id, None)
            if execution is None:
                continue
            executions.append(execution)
            for step_id in execution.step_ids_iter():
                interval = self._intervals.pop(step_id, None)
                if interval is not None:
                    intervals[step_id] = interval
            self._child_counters.pop(execution_id, None)
            self._open_messages.pop(execution_id, None)
        return executions, intervals

    # -- building ------------------------------------------------------------

    def build(self) -> History:
        """Produce the :class:`History` (:meth:`History.check_legal` verifies it)."""
        # Close any message steps whose executions were never finished.
        for message, start in self._open_messages.values():
            self._clock += 1
            self._intervals[message.step_id] = (start, self._clock)
        self._open_messages.clear()
        return History(
            list(self._executions.values()),
            self._initial_states,
            conflicts=self._conflicts,
            intervals=self._intervals,
        )

    @property
    def conflicts(self) -> PerObjectConflicts:
        return self._conflicts
