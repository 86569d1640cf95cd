"""Trace events emitted by the simulation engine.

The trace is an append-only list of :class:`TraceEvent` records that the
analysis layer and the tests can inspect to understand what the engine and
scheduler decided as the run progressed: grants, parks (``blocked``),
wake-ups (``woken``), commits, aborts and restarts, stamped with the tick
at which they happened.  Traces can grow large; the engine only records
them when asked to (``record_trace=True``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One scheduler-visible event of a run."""

    tick: int
    kind: str
    execution_id: str
    object_name: str = ""
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        location = f" on {self.object_name}" if self.object_name else ""
        detail = f": {self.detail}" if self.detail else ""
        return f"[{self.tick:>6}] {self.kind:<10} {self.execution_id}{location}{detail}"


# Event kinds used by the engine (kept as constants so tests can reference
# them without typos).
BEGIN = "begin"
INVOKE = "invoke"
GRANTED = "granted"
BLOCKED = "blocked"
WOKEN = "woken"
ABORTED = "aborted"
RESTARTED = "restarted"
RESTART_SCHEDULED = "restart-scheduled"
COMPLETED = "completed"
COMMITTED = "committed"
GAVE_UP = "gave-up"
FAULT_INJECTED = "fault-injected"


@dataclass
class Trace:
    """An ordered collection of trace events."""

    events: list[TraceEvent] = field(default_factory=list)

    def record(self, event: TraceEvent) -> None:
        self.events.append(event)

    def of_kind(self, kind: str) -> list[TraceEvent]:
        return [event for event in self.events if event.kind == kind]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def render(self, limit: int | None = None) -> str:
        """A human-readable dump of (up to ``limit``) events."""
        selected = self.events if limit is None else self.events[:limit]
        return "\n".join(str(event) for event in selected)
