"""Adaptive per-object strategy management for the modular scheduler.

The paper's licence is modularity: each object may run whatever
intra-object synchroniser suits it, and Theorem 5's inter-object
conditions keep the whole serialisable regardless of the mix.  The
:class:`~repro.scheduler.modular.ModularScheduler` realises the split but
fixes the mix at attach time; this module makes the mix *dynamic*.

:class:`AdaptiveModularScheduler` watches per-object contention signals —
blocked requests (waits), abort responses (restarts) and distinct parked
transactions — over a sliding window of scheduling decisions, and moves
each object along the **policy ladder** ``certifier → timestamp →
locking``: promotion towards the pessimistic end when a window's
contention score reaches :data:`PROMOTE_THRESHOLD`, demotion towards the
optimistic end after :data:`HYSTERESIS` consecutive calm windows at or
below :data:`DEMOTE_THRESHOLD`.  Hot objects end up paying for blocking
locks because they save restarts; cold objects keep the certifier's
zero-overhead hot path.

Correctness rests on two pillars, argued in DESIGN.md:

* **Quiescent swaps.** A strategy swap is executed only when the object
  is quiescent: no live transaction has touched the object (so every
  transaction sees exactly one regime per object), and the outgoing
  synchroniser's retained state is empty after its own decision-invariant
  garbage collection (so no information that could steer a future
  decision is lost).  Swaps that cannot run yet are deferred and retried
  whenever a transaction finishes on the object.
* **Strategy-agnostic global safety.** Serialisability and recoverability
  are enforced by the inter-object coordinator and the commit gate, which
  never depend on which intra-object strategy produced a step — so any
  mix, static or dynamic, stays within Theorem 5's conditions.

Every input to an adaptation decision (operation counts, per-object
counters, the window) is a deterministic function of the run,
so repeats at a fixed seed remain bit-identical — the property the E19
benchmark asserts on every adaptive row.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from .base import ExecutionInfo, OperationRequest, SchedulerResponse, STEP_LEVEL
from .modular import IntraObjectSynchroniser, ModularScheduler, make_intra_strategy
from .recovery import CASCADE_MODE

#: The policy ladder, optimistic to pessimistic.  Every non-pinned object
#: starts on rung 0.
DEFAULT_LADDER = ("certifier", "timestamp", "locking")
#: Window contention score (waits + restarts + distinct parked
#: transactions, attributed to the requested object) at which an object
#: moves one rung up the ladder.
PROMOTE_THRESHOLD = 4
#: Score at or below which a window counts as calm.
DEMOTE_THRESHOLD = 0
#: Consecutive calm windows before an object moves one rung back down —
#: the damper that stops a border-line object from oscillating between
#: rungs every window.
HYSTERESIS = 2
#: The most live transactions a promotion drain may block behind.
#: Draining a busier object would stall every new entrant for as long as
#: the live set takes to empty — under a flash crowd that is effectively
#: forever, and the blocked newcomers feed deadlock cycles and cascade
#: storms instead of a swap.  Promotions on busier objects stay
#: opportunistic (executed at the next natural quiescent point).
DRAIN_LIMIT = 4
#: Evaluation windows a desired promotion may stay pending before it is
#: cancelled.  A promotion that cannot find quiescence within the patience
#: is evidence the object is too busy to swap safely; cancelling re-arms
#: the sampler instead of letting a stale desire barrier new entrants
#: indefinitely.
DRAIN_PATIENCE = 8


class AdaptiveModularScheduler(ModularScheduler):
    """A modular scheduler that re-assigns intra-object strategies online.

    Args:
        window: scheduling decisions between adaptation evaluations.
        per_object_strategy: objects pinned to a fixed strategy spec; they
            never adapt.  Objects whose definition names a preferred
            synchroniser (``intra_object_synchroniser``, e.g. the b-tree's
            key-granular locking) are likewise left on their preference —
            the generic ladder cannot reproduce that structure.
        level / restart_policy / gate_mode: as on
            :class:`~repro.scheduler.modular.ModularScheduler`.
    """

    name = "adaptive"

    def __init__(
        self,
        window: int = 128,
        per_object_strategy: dict[str, Any] | None = None,
        level: str = STEP_LEVEL,
        restart_policy: Any = "immediate",
        gate_mode: str = CASCADE_MODE,
    ):
        if window < 1:
            raise ValueError(f"adaptation window must be >= 1, got {window}")
        self.window = window
        super().__init__(
            default_strategy=DEFAULT_LADDER[0],
            per_object_strategy=per_object_strategy,
            level=level,
            restart_policy=restart_policy,
            gate_mode=gate_mode,
        )

    # -- wiring ---------------------------------------------------------------

    def _reset(self) -> None:
        super()._reset()
        self._rungs: dict[str, int] = {}
        self._desired: dict[str, int] = {}
        self._desired_age: dict[str, int] = defaultdict(int)
        self._calm_windows: dict[str, int] = defaultdict(int)
        self._ops_seen = 0
        self._waits: dict[str, int] = defaultdict(int)
        self._restarts: dict[str, int] = defaultdict(int)
        self._parked: dict[str, set[str]] = defaultdict(set)
        self._live_on: dict[str, set[str]] = defaultdict(set)
        self.strategy_swaps = 0
        self.deferred_swaps = 0
        self.cancelled_swaps = 0
        self.barrier_blocks = 0
        self.windows_evaluated = 0

    def attach(self, object_base) -> None:
        # The modular attach already gave every object its pin, its
        # definition's preference or the default, rung 0; only the latter
        # adapt.
        super().attach(object_base)
        for object_name in self._synchronisers:
            if object_name in self.per_object_strategy:
                continue  # explicitly pinned objects never adapt
            if object_base.definition(object_name).intra_object_synchroniser:
                # A definition-preferred synchroniser (e.g. the b-tree's
                # key-granular locking) encodes structure the generic
                # ladder cannot reproduce; flattening it to a whole-object
                # rung measurably thrashes, so preferences stay pinned.
                continue
            self._rungs[object_name] = 0

    def _commit_ordered(self) -> bool:
        # A swap can move an object off locking mid-run, which would void
        # the attach-time proof; the coordinator always runs the full check.
        return False

    # -- contention sampling ------------------------------------------------------

    def on_operation(self, request: OperationRequest) -> SchedulerResponse:
        object_name = request.object_name
        rung = self._rungs.get(object_name)
        if rung is not None and self._desired.get(object_name, rung) > rung:
            # Draining barrier — promotions only: a contended object is
            # never *naturally* quiescent, so new entrants wait until its
            # live set empties and the swap towards the pessimistic end
            # can run.  Demotions are opportunistic (they execute at the
            # next natural quiescent point) because paying a drain to
            # relax an object that just went calm re-creates the very
            # contention the demotion says is gone.  The block goes
            # to the run's waits-for relation like any other, so a drain
            # that would deadlock aborts the requester.  The barrier only
            # arms when the live set is small enough (:data:`DRAIN_LIMIT`) to
            # actually empty soon; stalling every newcomer behind a
            # flash-crowd-sized live set breeds deadlock cycles and
            # cascade storms worth far more than the swap.
            live = self._live_on.get(object_name)
            transaction_id = request.info.top_level_id
            if (
                live
                and transaction_id not in live
                and len(live) <= DRAIN_LIMIT
            ):
                self.barrier_blocks += 1
                self._ops_seen += 1
                if self._ops_seen % self.window == 0:
                    self._evaluate_window()
                return self._count_wait(
                    self.waits.block(
                        request.info.execution_id,
                        SchedulerResponse.block(
                            f"strategy swap pending on {object_name}: draining "
                            f"live transactions",
                            blockers=set(live),
                        ),
                    )
                )
        response = super().on_operation(request)
        if object_name in self._rungs:
            transaction_id = request.info.top_level_id
            # Conservative liveness tracking: any request marks the
            # transaction as (potentially) holding state on the object
            # until it resolves, which is what gates quiescent swaps.
            self._live_on[object_name].add(transaction_id)
            if response.blocked:
                self._waits[object_name] += 1
                self._parked[object_name].add(transaction_id)
            elif response.aborted:
                self._restarts[object_name] += 1
        self._ops_seen += 1
        if self._ops_seen % self.window == 0:
            self._evaluate_window()
        return response

    def _note_commit_veto(
        self, synchroniser: IntraObjectSynchroniser, response: SchedulerResponse
    ) -> None:
        # A commit-time certification veto is a restart the optimistic rung
        # caused; feed it into the vetoing object's score so the sampler
        # sees commit-path contention, not just operation-path blocks.
        if response.aborted and synchroniser.object_name in self._rungs:
            self._restarts[synchroniser.object_name] += 1

    def _finish_transaction(self, info: ExecutionInfo, *, committed: bool) -> None:
        transaction_id = info.top_level_id
        # The base class's request index (popped by the call below) names
        # every object this transaction may be live on.
        touched = self._objects_of.get(transaction_id, ())
        super()._finish_transaction(info, committed=committed)
        for object_name in touched:
            live = self._live_on.get(object_name)
            if live is not None:
                live.discard(transaction_id)
            if object_name in self._desired:
                self._try_swap(object_name)

    # -- adaptation ---------------------------------------------------------------

    def _evaluate_window(self) -> None:
        self.windows_evaluated += 1
        top = len(DEFAULT_LADDER) - 1
        for object_name, rung in self._rungs.items():
            pending = object_name in self._desired
            target = self._desired.get(object_name, rung)
            score = (
                self._waits[object_name]
                + self._restarts[object_name]
                + len(self._parked[object_name])
            )
            if score >= PROMOTE_THRESHOLD:
                self._calm_windows[object_name] = 0
                if target < top:
                    target += 1
            elif score <= DEMOTE_THRESHOLD:
                self._calm_windows[object_name] += 1
                if self._calm_windows[object_name] >= HYSTERESIS:
                    self._calm_windows[object_name] = 0
                    if target > 0:
                        target -= 1
            else:
                self._calm_windows[object_name] = 0
            if pending and target != rung:
                # A still-pending desire ages; one that never finds its
                # quiescent point within the patience is cancelled — the
                # object is too busy to swap safely right now, and the
                # sampler will re-raise the desire if contention persists.
                self._desired_age[object_name] += 1
                if self._desired_age[object_name] >= DRAIN_PATIENCE:
                    self.cancelled_swaps += 1
                    target = rung
            if target != rung:
                if not pending:
                    self._desired_age[object_name] = 0
                self._desired[object_name] = target
                self._try_swap(object_name)
            else:
                self._desired.pop(object_name, None)
                self._desired_age.pop(object_name, None)
        self._waits.clear()
        self._restarts.clear()
        self._parked.clear()

    def _try_swap(self, object_name: str) -> bool:
        """Execute a pending strategy swap if the object is quiescent now."""
        rung = self._rungs.get(object_name)
        target = self._desired.get(object_name)
        if rung is None or target is None:
            return False
        if target == rung:
            self._desired.pop(object_name, None)
            return False
        if self._live_on.get(object_name):
            self.deferred_swaps += 1
            return False
        outgoing = self._synchronisers[object_name]
        outgoing.collect_garbage()
        if outgoing.live_state_size():
            # Retained state survived its own GC: not provably droppable,
            # so the swap waits for a deeper quiescent point.
            self.deferred_swaps += 1
            return False
        registry = self.conflicts_for(self.level)
        self._synchronisers[object_name] = make_intra_strategy(
            DEFAULT_LADDER[target],
            object_name,
            registry[object_name],
            self.level == STEP_LEVEL,
        )
        self._rungs[object_name] = target
        self._desired.pop(object_name, None)
        self._desired_age.pop(object_name, None)
        self._refresh_commit_checkers()
        self.strategy_swaps += 1
        return True

    # -- descriptive ------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        description = super().describe()
        description.update(
            {
                "name": self.name,
                "window": self.window,
                "strategy_swaps": self.strategy_swaps,
                "deferred_swaps": self.deferred_swaps,
                "cancelled_swaps": self.cancelled_swaps,
                "barrier_blocks": self.barrier_blocks,
                "windows_evaluated": self.windows_evaluated,
            }
        )
        return description
