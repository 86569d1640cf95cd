"""Deterministic fault injection: crash in-flight transactions mid-stream.

A crash plan kills live top-level transactions at predetermined points of
the simulated clock.  A *crash* is an engine-initiated abort: the victim's
whole execution subtree is discarded, its effects are rolled back through
the undo log (exactly the paper's abort semantics; the fault tests run it
on an engine that re-derives every state by full replay), the scheduler
releases its locks and gate state, and the ordinary restart policy
resubmits the lineage.  Injected faults therefore exercise the recovery
machinery — undo, garbage collection of scheduler state, cascade handling
for transactions that read the victim's dirty writes — under load rather
than only at scheduler-chosen abort points.

The plan is a feed, like an arrival process: :meth:`CrashPlan.ticks`
yields the crash ticks in ascending order and the engine keeps the next
one on its event heap.  A pending crash is not work: a run whose
transactions have all settled ends at its last decision, whatever crashes
its plan still holds.  Plans draw nothing at random: the crash ticks are
part of the configuration and the victim is always the oldest live
lineage, so a run stays a pure function of ``(workload seed, engine
seed, fault plan)``.  Plans are JSON-friendly registry
components (:func:`make_fault_plan` accepts ``name | {"name", ...kwargs}
| instance``), so ``engine_params`` in a sweep spec can carry
``{"fault_plan": {"name": "crash", "at": [500]}}``.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Iterator, Mapping

from ..core.registry import LazyTable, resolve_component


class CrashPlan:
    """Crash the oldest in-flight transaction at each configured tick.

    The victim is the longest-lived lineage: the one whose undo is
    largest, and the one a restart policy ranks most senior.

    Args:
        at: explicit simulated-clock ticks at which to inject one crash
            each (sorted internally; duplicates fire twice).
        period: additionally crash at ``period``, ``2 * period``, ... —
            one schedule, merged with ``at`` (an explicit tick starts no
            schedule of its own).
        max_faults: stop injecting after this many crashes landed on a
            victim (``None`` = unlimited); a crash that finds no victim
            does not count.
    """

    name = "crash"

    def __init__(
        self,
        at: tuple = (),
        period: int | None = None,
        max_faults: int | None = None,
    ):
        ticks = tuple(int(tick) for tick in at)
        if any(tick < 0 for tick in ticks):
            raise ValueError(f"crash ticks must be >= 0, got {sorted(ticks)}")
        if period is not None and period < 1:
            raise ValueError(f"crash period must be >= 1, got {period}")
        if max_faults is not None and max_faults < 1:
            raise ValueError(f"max_faults must be >= 1, got {max_faults}")
        self.at = tuple(sorted(ticks))
        self.period = period
        self.max_faults = max_faults
        self._landed = 0

    def ticks(self) -> Iterator[int]:
        """The crash ticks, ascending, until ``max_faults`` crashes have landed.

        Read one at a time as each crash is released, so the cap sees the
        crashes landed so far.  Each call starts a fresh run's feed.
        """
        self._landed = 0
        periodic = itertools.count(self.period, self.period) if self.period else ()
        for tick in heapq.merge(self.at, periodic):
            if self.max_faults is not None and self._landed >= self.max_faults:
                return
            yield tick

    def strike(self, candidates: list[str]) -> str | None:
        """The victim: the first of ``candidates`` (oldest lineage first); ``None`` if there is none."""
        if not candidates:
            return None
        self._landed += 1
        return candidates[0]


FAULT_REGISTRY: LazyTable = LazyTable(
    __name__,
    {
        "crash": ":CrashPlan",
    },
)


def fault_plan_names() -> list[str]:
    """Names accepted by :func:`make_fault_plan`."""
    return sorted(FAULT_REGISTRY)


def make_fault_plan(
    plan: "str | Mapping[str, Any] | CrashPlan",
    **kwargs: Any,
) -> CrashPlan:
    """Build a fault plan from a name, a config mapping, or an instance.

    Accepted shapes (the uniform component-specification contract of
    :func:`repro.core.registry.resolve_component`):

    * ``"crash"`` — a registry name, optionally with ``**kwargs``;
    * ``{"name": "crash", "at": [500, 1500]}`` — a registry name plus
      constructor keywords (``**kwargs`` are merged in);
    * a ready :class:`CrashPlan` instance (returned unchanged; keywords
      are rejected).

    Raises:
        KeyError: on an unknown plan name.
        TypeError: on keywords the plan does not accept, or an
            unsupported specification type.
    """
    return resolve_component(
        FAULT_REGISTRY, plan, kind="fault plan", instance_of=CrashPlan, **kwargs
    )
