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
"""

from __future__ import annotations

from repro.core.errors import SimulationError
from repro.core.operations import LocalStep
from repro.core.state import ObjectState
from repro.simulation import SimulationEngine
from repro.simulation.engine import _READY


class ScanLoopEngine(SimulationEngine):
    """Chooses each tick's frame by scanning the frame table."""

    def _run_until(self, horizon: int) -> int:
        before = self.metrics.decisions
        while (self._frames or self._events) and self._tick < horizon:
            self._release_due_events()
            candidates = [frame for frame in self._frames.values() if frame.status == _READY]
            if not candidates:
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
