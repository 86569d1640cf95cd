"""Reference engines for :class:`repro.simulation.SimulationEngine`.

Kept out of ``src/``: production never runs them, the bit-identity tests
run the same scenario on both and compare every observable.

* :class:`ScanLoopEngine` — the hot loop as it stood before the ready list:
  every tick scans the whole frame table for ready frames.  The candidate
  list comes out in frame-table insertion order, which is the order the
  production ready list maintains, so a run (RNG draws included) must be
  bit-identical (``tests/simulation/test_hot_loop.py``).
* :class:`ReplayCheckedEngine` — after the production incremental undo of
  every abort, re-derives every object state and surviving return value
  by replaying the surviving recorded steps from the initial states, and
  raises on any divergence (``tests/simulation/test_undo.py`` and the
  fault / open-system / adaptive cells that abort mid-stream).
* :class:`WaitsCheckedEngine` — after every decision, maps each parked
  frame's waits to disjoint-ancestor nodes and raises if they form a
  cycle; and holds every cycle abort of the run's waits-for relation to a
  cycle of live records (``tests/scheduler/test_waits.py``).
"""

from __future__ import annotations

import networkx as nx

from repro.core.errors import SimulationError
from repro.core.operations import LocalStep
from repro.core.state import ObjectState
from repro.core.waits import DEADLOCK, VALIDATION
from repro.scheduler.base import disjoint_ancestors
from repro.simulation import SimulationEngine
from repro.simulation.engine import _PARKED, _READY


class ScanLoopEngine(SimulationEngine):
    """Chooses each tick's frame by scanning the frame table."""

    def _run_until(self, horizon: int) -> int:
        before = self.metrics.decisions
        while (self._frames or self._events) and self._tick < horizon:
            self._release_due_events()
            candidates = [frame for frame in self._frames.values() if frame.status == _READY]
            if not candidates:
                if not self._has_work():
                    break
                if self._events:
                    self._tick = min(self._events[0][0], horizon)
                elif self._frames:
                    raise self._wedged()
                continue
            frame = self.rng.choice(candidates)
            self._tick += 1
            self.metrics.decisions += 1
            self._advance(frame)
        return self.metrics.decisions - before


class ReplayCheckedEngine(SimulationEngine):
    """Holds every incremental undo against a full replay of the run so far.

    The replay also re-derives every surviving step's return value.  Once
    an abort and the cascade it set off are done, and again when the run
    ends, a survivor may differ from what it recorded only if it is
    read-only and its transaction is still in flight (the commit gate
    aborts that one later).  Needs the whole history, so online
    certification (which forgets settled transactions) is refused.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self._certifier is not None:
            raise SimulationError("the replay oracle needs the whole history: certify=False")
        self._abort_depth = 0
        self._mismatches: list[LocalStep] = []

    def _abort_transaction(self, top_level_id: str, reason: str) -> None:
        self._abort_depth += 1
        try:
            super()._abort_transaction(top_level_id, reason)
        finally:
            self._abort_depth -= 1
        if not self._abort_depth:
            self._check_survivors(self._mismatches)

    def _finalise_run(self):
        self._check_survivors(self._replay_states(set())[2])
        return super()._finalise_run()

    def _check_survivors(self, mismatches: list[LocalStep]) -> None:
        live = {eid for ids in self._executions_by_transaction.values() for eid in ids}
        for step in mismatches:
            if step.execution_id not in live or not step.operation.is_read_only():
                raise SimulationError(
                    f"surviving step {step!r} no longer returns its recorded value on replay"
                )

    def _undo_states(self, top_level_id: str, subtree_ids: set[str]) -> tuple[int, list[str]]:
        removed, stale = super()._undo_states(top_level_id, subtree_ids)
        replayed, wasted, self._mismatches = self._replay_states(subtree_ids)
        if self._states != replayed:
            differing = sorted(
                name
                for name in set(self._states) | set(replayed)
                if self._states.get(name) != replayed.get(name)
            )
            raise SimulationError(
                "incremental undo diverged from full replay on objects "
                f"{differing} after abort of {top_level_id}"
            )
        if removed != wasted:
            raise SimulationError(
                f"incremental undo removed {removed} steps of {top_level_id}; "
                f"the recorded history holds {wasted}"
            )
        return removed, stale

    def _replay_states(
        self, subtree_ids: set[str]
    ) -> tuple[dict[str, ObjectState], int, list[LocalStep]]:
        """Every object state from the surviving recorded steps, in recorded order.

        Also counts the recorded local steps of ``subtree_ids`` — what the
        abort wasted — and lists the survivors whose replayed return value
        differs from the recorded one.  The history builder keeps every
        step of every attempt in the order the engine recorded (and so
        applied) them: step ids are drawn in creation order, and the engine
        records each granted step as it creates it.
        """
        states = dict(self.object_base.initial_states())
        wasted = 0
        mismatches = []
        recorded = sorted(
            (
                step
                for execution in self._builder._executions.values()
                for step in execution.local_steps()
            ),
            key=lambda step: step.step_id,
        )
        for step in recorded:
            if step.execution_id in subtree_ids:
                wasted += 1
            if step.execution_id not in self._aborted_executions:
                state = states.get(step.object_name, ObjectState())
                value, states[step.object_name] = step.operation.apply(state)
                if value != step.return_value:
                    mismatches.append(step)
        return states, wasted, mismatches


class WaitsCheckedEngine(SimulationEngine):
    """Holds the run's waits-for relation to the waits the engine parks.

    * After every decision, each parked frame waits on each live key it is
      parked on; mapped to their disjoint ancestors these waits must form
      no cycle (networkx decides) — a cycle the relation let through would
      outlive the decision that closed it.
    * Every ABORT the relation answers names a cycle in wait order, and
      each of its edges is the requester's new wait or a record the
      relation held when it was asked, between live frames.  A
      ``validation`` cycle is made of commit waits alone.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        waits = self._waits
        block = waits.block

        def checked_block(waiter, response, *, commit=False):
            records = waits._records.values()
            held = {edge for _, edges, _ in records for edge in edges}
            held_commits = {
                edge for _, edges, at_commit in records if at_commit for edge in edges
            }
            answer = block(waiter, response, commit=commit)
            if answer.aborted:
                self._check_cycle(
                    waiter, response.blockers, commit, held, held_commits, answer.reason
                )
            return answer

        waits.block = checked_block  # the scheduler and its gate ask this relation

    def _check_cycle(self, waiter, blockers, commit, held, held_commits, reason):
        frames = self._frames
        new = {
            disjoint_ancestors(frames[waiter].info, frames[key].info)
            for key in blockers
            if key in frames
        } - {None}
        validation = reason.startswith(VALIDATION + " ")
        if not validation and not reason.startswith(DEADLOCK + " "):
            raise SimulationError(f"abort at tick {self._tick} names no wait cycle: {reason!r}")
        nodes = reason.split(" cycle ", 1)[1].split(" -> ")
        edges = list(zip(nodes, nodes[1:]))
        allowed = (held_commits if validation else held) | new
        if (
            (validation and not commit)
            or len(nodes) < 2
            or nodes[0] != nodes[-1]
            or not set(nodes) <= frames.keys()
            or not set(edges) <= allowed
            or not set(edges) & new
        ):
            raise SimulationError(
                f"abort at tick {self._tick} names no cycle of live records: {reason!r}"
            )

    def _advance(self, frame) -> None:
        super()._advance(frame)
        frames = self._frames
        waits = nx.DiGraph()
        for parked in frames.values():
            if parked.status == _PARKED:
                for key in parked.parked_on:
                    if key in frames:
                        pair = disjoint_ancestors(parked.info, frames[key].info)
                        if pair is not None:
                            waits.add_edge(*pair)
        if not nx.is_directed_acyclic_graph(waits):
            raise SimulationError(
                f"parked frames wait in a cycle after tick {self._tick}: {nx.find_cycle(waits)}"
            )
