"""Deterministic fault injection: crash in-flight transactions mid-stream.

A fault plan kills live top-level transactions at predetermined points of
the simulated clock.  A *crash* is an engine-initiated abort: the victim's
whole execution subtree is discarded, its effects are rolled back through
the undo log (exactly the paper's abort semantics; the fault tests run it
on an engine that re-derives every state by full replay), the scheduler
releases its locks and gate state, and the ordinary restart policy
resubmits the lineage.  Injected faults therefore exercise the recovery
machinery — undo, garbage collection of scheduler state, cascade handling
for transactions that read the victim's dirty writes — under load rather
than only at scheduler-chosen abort points.

Like arrival processes and restart policies, plans are deterministic:
explicit crash ticks are part of the configuration, the optional victim
randomisation is seeded from the engine seed, and a run stays a pure
function of ``(workload seed, engine seed, fault plan)``.  Plans are
JSON-friendly registry components (:func:`make_fault_plan` accepts
``name | {"name", ...kwargs} | instance``), so ``engine_params``
in a sweep spec can carry ``{"fault_plan": {"name": "crash", "at": [500]}}``.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Mapping

from ..core.registry import resolve_component

#: Victim-selection policies of :class:`CrashPlan`.
VICTIM_POLICIES = ("oldest", "newest", "random")


class FaultPlan:
    """Decides when faults fire and which live transaction each one kills.

    The engine drives one plan instance per run:

    * :meth:`bind` — called once at run start with the engine seed; must
      reset all plan state;
    * :meth:`initial_ticks` — the explicit crash ticks to queue up front;
    * :meth:`next_after` — the due tick of the next recurring fault after
      ``tick``, or ``None``;
    * :meth:`choose_victim` — pick the casualty among the live top-level
      transactions (ordered oldest lineage first); ``None`` skips the
      fault.
    """

    name = "abstract"

    def bind(self, seed: int) -> None:
        """Reset the plan for a fresh run seeded with the engine seed."""

    def initial_ticks(self) -> tuple[int, ...]:
        """Explicit fault ticks, queued when the run starts."""
        return ()

    def next_after(self, tick: int) -> int | None:
        """Due tick of the next recurring fault strictly after ``tick``."""
        return None

    def choose_victim(self, candidates: list[str]) -> str | None:
        """The transaction to kill; ``None`` lets this fault pass."""
        return None

    def describe(self) -> dict[str, Any]:
        """Plan description merged into run metadata."""
        return {"name": self.name}

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class CrashPlan(FaultPlan):
    """Crash one in-flight transaction at each configured tick.

    Args:
        at: explicit simulated-clock ticks at which to inject one crash
            each (sorted internally; duplicates fire twice).
        period: additionally crash every ``period`` ticks, re-armed after
            each firing for as long as transactions remain in flight.
        victim: ``"oldest"`` (longest-lived lineage — the victim whose
            undo is largest), ``"newest"``, or ``"random"`` (seeded).
        max_faults: stop injecting after this many crashes landed on a
            victim (``None`` = unlimited).
        seed: explicit RNG seed for ``victim="random"``; ``None`` derives
            one from the engine seed at :meth:`bind` time.
    """

    name = "crash"

    def __init__(
        self,
        at: tuple = (),
        period: int | None = None,
        victim: str = "oldest",
        max_faults: int | None = None,
        seed: int | None = None,
    ):
        ticks = tuple(int(tick) for tick in at)
        if any(tick < 0 for tick in ticks):
            raise ValueError(f"crash ticks must be >= 0, got {sorted(ticks)}")
        if period is not None and period < 1:
            raise ValueError(f"crash period must be >= 1, got {period}")
        if victim not in VICTIM_POLICIES:
            raise ValueError(
                f"unknown victim policy {victim!r}; "
                f"available: {', '.join(VICTIM_POLICIES)}"
            )
        if max_faults is not None and max_faults < 1:
            raise ValueError(f"max_faults must be >= 1, got {max_faults}")
        self.at = tuple(sorted(ticks))
        self.period = period
        self.victim = victim
        self.max_faults = max_faults
        self.seed = seed
        self._rng = random.Random(seed)
        self._injected = 0

    def bind(self, seed: int) -> None:
        effective = self.seed if self.seed is not None else seed ^ 0x2545F491
        self._rng = random.Random(effective)
        self._injected = 0

    def initial_ticks(self) -> tuple[int, ...]:
        return self.at

    def next_after(self, tick: int) -> int | None:
        if self.period is None:
            return None
        if self.max_faults is not None and self._injected >= self.max_faults:
            return None
        return tick + self.period

    def choose_victim(self, candidates: list[str]) -> str | None:
        if not candidates:
            return None
        if self.max_faults is not None and self._injected >= self.max_faults:
            return None
        self._injected += 1
        if self.victim == "oldest":
            return candidates[0]
        if self.victim == "newest":
            return candidates[-1]
        return self._rng.choice(candidates)

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "at": list(self.at),
            "period": self.period,
            "victim": self.victim,
            "max_faults": self.max_faults,
        }


FAULT_REGISTRY: dict[str, Callable[..., FaultPlan]] = {
    "crash": CrashPlan,
}


def fault_plan_names() -> list[str]:
    """Names accepted by :func:`make_fault_plan`."""
    return sorted(FAULT_REGISTRY)


def make_fault_plan(
    plan: "str | Mapping[str, Any] | FaultPlan",
    **kwargs: Any,
) -> FaultPlan:
    """Build a fault plan from a name, a config mapping, or an instance.

    Accepted shapes (the uniform component-specification contract of
    :func:`repro.core.registry.resolve_component`):

    * ``"crash"`` — a registry name, optionally with ``**kwargs``;
    * ``{"name": "crash", "at": [500, 1500]}`` — a registry name plus
      constructor keywords (``**kwargs`` are merged in);
    * a ready :class:`FaultPlan` instance (returned unchanged; keywords
      are rejected).

    Raises:
        KeyError: on an unknown plan name.
        TypeError: on keywords the plan does not accept, or an
            unsupported specification type.
    """
    return resolve_component(
        FAULT_REGISTRY, plan, kind="fault plan", instance_of=FaultPlan, **kwargs
    )
