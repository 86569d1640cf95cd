"""The trace is complete: every counted event is also a recorded event.

The engine records trace events only when a run asks for a trace, so a
call site that drops its guard — or an event that stops being recorded —
must not pass silently.  The scan-loop oracle subclasses the engine and
shares every record site with it, so the bit-identity grid cannot catch a
missing event; this census can.  On plain runs of every registry
scheduler, each event kind appears in the trace exactly as often as its
``RunMetrics`` counter says the event happened.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import pytest

from repro.scheduler import make_scheduler, scheduler_names
from repro.simulation import SimulationEngine, make_workload
from repro.simulation.events import (
    ABORTED,
    BLOCKED,
    COMMITTED,
    GRANTED,
    INVOKE,
    RESTARTED,
    RESTART_SCHEDULED,
    WOKEN,
)

#: Trace event kind -> the RunMetrics counter of the same event.
CENSUS = {
    GRANTED: "local_steps",
    INVOKE: "invocations",
    COMMITTED: "committed",
    BLOCKED: "parks",
    WOKEN: "wakes",
    ABORTED: "aborted_attempts",
    RESTART_SCHEDULED: "delayed_restarts",
    RESTARTED: "restarts",
}


@lru_cache(maxsize=None)
def traced_stream(scheduler: str, seed: int = 21):
    """A contended 200-arrival hotspot stream, recorded with a trace (run once)."""
    base, specs = make_workload(
        "hotspot",
        transactions=200,
        hot_objects=2,
        cold_objects=32,
        operations_per_transaction=3,
        hot_probability=0.1,
        seed=seed,
    ).build()
    engine = SimulationEngine(
        base,
        make_scheduler(scheduler, restart_policy="backoff"),
        seed=seed,
        record_trace=True,
    )
    return engine.run_stream(specs, {"name": "poisson", "rate": 0.03})


@pytest.mark.parametrize("scheduler", scheduler_names())
def test_every_counted_event_is_in_the_trace(scheduler):
    result = traced_stream(scheduler)
    kinds = Counter(event.kind for event in result.trace.events)
    metrics = result.metrics
    assert metrics.committed > 0 and metrics.local_steps > 0
    assert {kind: kinds[kind] for kind in CENSUS} == {
        kind: getattr(metrics, counter) for kind, counter in CENSUS.items()
    }


def test_the_census_covers_contention():
    # Parks, wakes, aborts and both kinds of restart all occur somewhere on
    # the grid, so no identity above holds only as 0 == 0.
    totals = Counter()
    for scheduler in ("n2pl", "nto", "certifier", "modular"):
        metrics = traced_stream(scheduler).metrics
        totals.update({counter: getattr(metrics, counter) for counter in CENSUS.values()})
    assert all(totals[counter] > 0 for counter in CENSUS.values()), totals
