"""Pluggable transaction-restart policies.

An abort is only half of a scheduling error; the other half is *when* the
transaction is resubmitted.  The paper treats "scheduling errors requiring
abortions" as the price non-strict schedulers pay for admitting more
interleavings, but resubmitting an aborted transaction immediately into an
unchanged conflict pattern turns that price into a storm: on contended
hotspot workloads every cascading abort restarts straight back into the
same hot set and the commit rate collapses (the pre-PR-4 behaviour, kept
as :class:`ImmediateRestart`).

A :class:`RestartPolicy` decides, per abort, how many ticks to wait before
the transaction is resubmitted.  The engine delegates its abort/respawn
path to the scheduler's policy and realises positive delays as *delayed
restarts* on its unified event heap (drained by
:meth:`~repro.simulation.engine.SimulationEngine._release_due_events`),
so a waiting transaction consumes no scheduling decisions — the delay
shows up as makespan, not as polling.

Policies are identified by *lineage*, the transaction's original
submission index, which is preserved across restarts: attempt 3 of the
first-submitted transaction still reports lineage 0.  That is what lets
:class:`OrderedRestart` implement a wait-die-style seniority rule — the
oldest unfinished transaction always restarts immediately, so it can never
cascade forever.

All randomness is owned by the policy and seeded deterministically from
the engine seed (:meth:`RestartPolicy.bind`), so a run remains a pure
function of ``(workload seed, engine seed, scheduler configuration)`` and
the sweep layer's serial/parallel determinism guarantee extends to delayed
restarts.
"""

from __future__ import annotations

import random
from typing import Any, Mapping

from ..core.registry import LazyTable, resolve_component

#: Registry name of the default (pre-PR-4) policy.
IMMEDIATE_RESTART = "immediate"


class RestartPolicy:
    """Decides how long an aborted transaction waits before restarting.

    The engine drives one policy instance per run:

    * :meth:`bind` — called once at engine construction with the engine
      seed; must reset all policy state (policies may be constructed once
      and bound to a fresh run later);
    * :meth:`on_submit` — a new lineage entered the system (first
      attempt only, in submission order);
    * :meth:`delay` — attempt ``attempt`` of ``lineage`` just aborted for
      ``reason``; return the number of ticks to wait before resubmission
      (``0`` restarts within the same tick, exactly the legacy path);
    * :meth:`on_finished` — the lineage left the system for good (it
      committed or exhausted its restart budget).
    """

    name = "abstract"

    def bind(self, seed: int) -> None:
        """Reset the policy for a fresh run seeded with the engine seed."""

    def on_submit(self, lineage: int) -> None:
        """Lineage ``lineage`` was submitted (first attempt)."""

    def on_finished(self, lineage: int) -> None:
        """Lineage ``lineage`` committed or gave up."""

    def delay(self, lineage: int, attempt: int, reason: str) -> int:
        """Ticks to wait before restarting ``lineage`` after ``attempt`` aborted."""
        return 0

    def describe(self) -> dict[str, Any]:
        """Policy description merged into run metadata."""
        return {"name": self.name}

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class ImmediateRestart(RestartPolicy):
    """Restart at once — the legacy behaviour and the storm baseline."""

    name = "immediate"


#: Window (in ticks) of a backoff policy's first retry.
BACKOFF_BASE = 32
#: Maximum number of doublings of a backoff policy's window.
BACKOFF_CAP = 8
#: Ticks an ordered policy defers per older unfinished lineage.
ORDERED_STRIDE = 100


class RandomizedBackoff(RestartPolicy):
    """Deterministic seeded randomized-exponential backoff.

    Attempt ``a`` waits a uniformly random number of ticks from
    ``[1, BACKOFF_BASE * 2^min(a - 1, BACKOFF_CAP)]``: repeated aborts of
    one lineage back off exponentially (up to the cap), and the
    randomization de-correlates the restart times of distinct lineages so
    they stop re-colliding on the same hot objects in lockstep.  The RNG
    is seeded from the engine seed at :meth:`bind`, which keeps a scenario
    a pure function of its spec.
    """

    name = "backoff"

    def __init__(self):
        self.bind(0)

    def bind(self, seed: int) -> None:
        # XOR with a fixed odd constant decouples the policy's stream from
        # the engine's tick-choice stream without introducing any
        # process-dependent state (str hashes would break spawn workers).
        self._rng = random.Random(seed ^ 0x9E3779B9)

    def delay(self, lineage: int, attempt: int, reason: str) -> int:
        window = BACKOFF_BASE << min(max(attempt, 1) - 1, BACKOFF_CAP)
        return 1 + self._rng.randrange(window)


class OrderedRestart(RestartPolicy):
    """Wait-die-style seniority: young lineages defer to old ones.

    The delay is :data:`ORDERED_STRIDE` ticks per unfinished lineage
    *older* than the aborted one (smaller original submission index).  The
    oldest unfinished lineage therefore always restarts immediately and
    faces progressively less competition — it can never cascade forever —
    while younger lineages queue up behind their seniors instead of
    storming back into the hot set.
    """

    name = "ordered"

    def __init__(self):
        self._unfinished: set[int] = set()

    def bind(self, seed: int) -> None:
        self._unfinished = set()

    def on_submit(self, lineage: int) -> None:
        self._unfinished.add(lineage)

    def on_finished(self, lineage: int) -> None:
        self._unfinished.discard(lineage)

    def delay(self, lineage: int, attempt: int, reason: str) -> int:
        rank = sum(1 for other in self._unfinished if other < lineage)
        return ORDERED_STRIDE * rank


RESTART_POLICIES: LazyTable = LazyTable(
    __name__,
    {
        "immediate": ":ImmediateRestart",
        "backoff": ":RandomizedBackoff",
        "ordered": ":OrderedRestart",
    },
)


def restart_policy_names() -> list[str]:
    """Names accepted by :func:`make_restart_policy` (and scheduler factories)."""
    return sorted(RESTART_POLICIES)


def make_restart_policy(
    policy: "str | Mapping[str, Any] | RestartPolicy" = IMMEDIATE_RESTART,
) -> RestartPolicy:
    """Build a restart policy from a name, a config mapping, or an instance.

    Accepted shapes (all JSON-friendly, so sweep axes can target
    ``scheduler_kwargs.restart_policy`` directly):

    * ``"backoff"`` — a registry name;
    * ``{"name": "backoff"}`` — the same name as a mapping (a policy
      takes no keywords: its constants are module-level);
    * a ready :class:`RestartPolicy` instance (returned unchanged).

    Raises:
        KeyError: on an unknown policy name.
        TypeError: on any keyword, or an unsupported specification type.
    """
    return resolve_component(
        RESTART_POLICIES, policy, kind="restart policy", instance_of=RestartPolicy
    )
