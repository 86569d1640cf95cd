"""Run metrics and results.

Every simulation run produces a :class:`RunResult`: the recorded history
(none when the run certified online), the final object states, the set of
executions that belong to aborted transaction attempts, and a
:class:`RunMetrics` summary with the quantities the experiments report —
committed/aborted transaction counts, abort reasons, blocking, wasted work
and the makespan in scheduler ticks.  A tick is one *productive*
scheduling decision for a runnable frame: parked frames consume no ticks,
so restarts lengthen the makespan (aborted work is redone) while blocking
shows up in the waiting counters below, not as a longer tick count.

The engine is event-driven: a frame whose operation is BLOCKed is *parked*
(removed from the runnable set) until a wake-up fires, so ``blocked_ticks``
measures the ticks frames actually spent waiting on conflicting owners —
contention — rather than how often a busy-wait loop re-polled the
scheduler.  ``parks``/``wakes`` count the park/wake transitions themselves,
and ``commit_wait_ticks`` separately accounts for time spent parked at the
commit point waiting for read-from dependencies to resolve (an optimistic
scheduler that never blocks an *operation* still reports 0 blocked ticks).

Restart policies (:mod:`repro.scheduler.restart`) add their own counters:
``restarts`` counts resubmissions actually performed, ``delayed_restarts``
the subset that waited on the engine's delayed-restart queue, and
``restart_delay_ticks`` the total scheduled waiting time.  A delayed
restart consumes no scheduling decisions while waiting; its delay overlaps
with other frames' work and only stretches the makespan when nothing else
is runnable (the engine then fast-forwards the clock to the next due
restart).  ``commit_rate`` — committed over submitted — is the headline
policy metric: cascade storms collapse it.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Any

from ..core.errors import SimulationError
from ..core.history import History
from ..core.state import ObjectState
from .events import Trace


def _update(merged: Counter, part: Counter) -> Counter:
    merged.update(part)
    return merged


#: How two shards' values of one field fold together (see
#: :func:`merge_run_metrics` for what each choice means for the fleet).
_MERGE_RULES = {"sum": operator.add, "max": max, "update": _update}


def _metric(merge: str, default: Any = 0, *, exported: bool = True) -> Any:
    """A :class:`RunMetrics` field: its merge rule, whether ``as_dict`` lists it.

    The field list is the one place a metric is declared;
    :meth:`RunMetrics.as_dict` and :func:`merge_run_metrics` are derived
    from it, so a new field cannot be silently dropped from sharded totals.
    """
    metadata = {"merge": merge, "exported": exported}
    if callable(default):
        return field(default_factory=default, metadata=metadata)
    return field(default=default, metadata=metadata)


#: The keywords ``aborts_by_reason`` files an abort under, in precedence order.
_ABORT_CATEGORIES = ("deadlock", "timestamp", "cascad", "validation", "inter-object",
                     "intra-object", "fault")

#: The derived quantities :meth:`RunMetrics.as_dict` reports next to the fields.
_DERIVED = (
    "mean_latency", "live_state_per_in_flight", "throughput", "commit_rate",
    "abort_rate", "blocked_fraction", "wasted_fraction",
)


@dataclass
class RunMetrics:
    """Aggregate counters of one simulation run."""

    total_ticks: int = _metric("max")
    #: Scheduling decisions actually made (one runnable frame advanced per
    #: decision).  Equal to ``total_ticks`` on closed runs; smaller on runs
    #: whose clock fast-forwarded across idle gaps (delayed restarts,
    #: arrival streams), where the difference is exactly the skipped idle
    #: time.  ``decisions / wall-clock`` is the engine's raw service
    #: throughput, which benchmark E16 tracks.
    decisions: int = _metric("sum")
    committed: int = _metric("sum")
    aborted_attempts: int = _metric("sum")
    gave_up: int = _metric("sum")
    restarts: int = _metric("sum")
    delayed_restarts: int = _metric("sum")
    restart_delay_ticks: int = _metric("sum")
    local_steps: int = _metric("sum")
    wasted_steps: int = _metric("sum")
    blocked_ticks: int = _metric("sum")
    invocations: int = _metric("sum")
    #: Invocations shipped to another shard's engine (0 on plain runs).
    remote_invocations: int = _metric("sum")
    aborts_by_reason: Counter = _metric("update", Counter)
    faults_injected: int = _metric("sum")
    submitted: int = _metric("sum")
    parks: int = _metric("sum")
    wakes: int = _metric("sum")
    #: Always 0: no engine path wakes a frame its blockers did not free.
    #: Kept for the readers of the metrics row.
    forced_wakes: int = _metric("sum")
    commit_parks: int = _metric("sum")
    wait_ticks: int = _metric("sum")
    commit_wait_ticks: int = _metric("sum")
    # Open-system (streaming) quantities.  ``arrived`` counts transactions
    # released by an arrival stream (0 for closed-batch runs); the latency
    # aggregates cover every committed transaction, measured in ticks from
    # its arrival (tick 0 for closed submissions) to its commit, across
    # restarts.  ``in_flight_peak`` is the largest number of transactions
    # simultaneously in the system (arrived but not yet committed or given
    # up).
    arrived: int = _metric("sum")
    in_flight_peak: int = _metric("sum")
    latency_count: int = _metric("sum", exported=False)
    latency_sum: int = _metric("sum", exported=False)
    latency_max: int = _metric("max")
    # Live-state gauge, sampled at every garbage-collection pass: retained
    # scheduler records + candidate edges + undo-log segments + parked
    # frames.  ``live_state_peak`` is the largest sample;
    # ``live_state_ratio_peak`` the largest sample-to-in-flight ratio,
    # which a bounded-memory run keeps (roughly) flat however long the
    # stream goes.
    live_state_peak: int = _metric("sum")
    live_state_ratio_peak: float = _metric("max", 0.0)
    live_state_samples: int = _metric("sum")

    # -- recording helpers -------------------------------------------------------

    def note_abort(self, reason: str) -> None:
        """Record one aborted attempt under the first category its reason names."""
        self.aborted_attempts += 1
        lowered = reason.lower()
        category = next((name for name in _ABORT_CATEGORIES if name in lowered), "other")
        self.aborts_by_reason["cascade" if category == "cascad" else category] += 1

    def note_latency(self, latency: int) -> None:
        """Record one committed transaction's arrival-to-commit latency."""
        self.latency_count += 1
        self.latency_sum += latency
        if latency > self.latency_max:
            self.latency_max = latency

    def note_live_state(self, sample: int, in_flight: int) -> None:
        """Record one live-state gauge sample against the in-flight count."""
        self.live_state_samples += 1
        if sample > self.live_state_peak:
            self.live_state_peak = sample
        ratio = sample / max(1, in_flight)
        if ratio > self.live_state_ratio_peak:
            self.live_state_ratio_peak = ratio

    # -- derived quantities -----------------------------------------------------

    @property
    def throughput(self) -> float:
        """Committed transactions per tick (the headline concurrency metric)."""
        if self.total_ticks == 0:
            return 0.0
        return self.committed / self.total_ticks

    @property
    def commit_rate(self) -> float:
        """Committed transactions as a fraction of submissions.

        The headline restart-policy metric: a cascade storm shows up as a
        collapse of this rate (most submissions exhaust their restart
        budget and give up), independent of the machine the run executed
        on.
        """
        if self.submitted == 0:
            return 0.0
        return self.committed / self.submitted

    @property
    def abort_rate(self) -> float:
        """Aborted attempts as a fraction of all finished attempts."""
        finished = self.committed + self.aborted_attempts
        if finished == 0:
            return 0.0
        return self.aborted_attempts / finished

    @property
    def blocked_fraction(self) -> float:
        """Blocked waiting time relative to the makespan.

        Waiting frames overlap, so the fraction can exceed 1.0 on heavily
        contended runs — it is an aggregate waiting ratio, not a share of a
        single timeline.
        """
        if self.total_ticks == 0:
            return 0.0
        return self.blocked_ticks / self.total_ticks

    @property
    def wasted_fraction(self) -> float:
        """Fraction of executed local steps that belonged to aborted attempts."""
        if self.local_steps == 0:
            return 0.0
        return self.wasted_steps / self.local_steps

    @property
    def mean_latency(self) -> float:
        """Mean arrival-to-commit latency in ticks over committed transactions."""
        if self.latency_count == 0:
            return 0.0
        return self.latency_sum / self.latency_count

    @property
    def live_state_per_in_flight(self) -> float:
        """Peak live-state gauge relative to the peak in-flight population.

        The bounded-memory headline: on a garbage-collected stream this
        stays a (workload-dependent) constant however many transactions
        pass through, because retained state tracks the in-flight
        population, not the total arrival count.
        """
        if self.live_state_peak == 0:
            return 0.0
        return self.live_state_peak / max(1, self.in_flight_peak)

    def as_dict(self) -> dict[str, Any]:
        data = {
            spec.name: getattr(self, spec.name)
            for spec in fields(self)
            if spec.metadata.get("exported", True)
        }
        data["aborts_by_reason"] = dict(self.aborts_by_reason)  # plain, JSON-safe
        data.update((name, getattr(self, name)) for name in _DERIVED)
        return data


def merge_run_metrics(parts: "list[RunMetrics]") -> RunMetrics:
    """Fold per-shard metrics into one fleet-level :class:`RunMetrics`.

    Counters add across shards.  ``total_ticks`` is the maximum — shards
    advance between common barriers, so the slowest
    shard's clock is the fleet makespan.  The two peak gauges
    (``in_flight_peak``, ``live_state_peak``) add as a documented *upper
    bound*: per-shard peaks need not coincide in time, so the sum can
    overstate the simultaneous fleet peak but never understates it (the
    bounded-memory assertions stay conservative).  The ratio peak takes
    the worst shard.
    """
    merged = type(parts[0])() if parts else RunMetrics()
    for spec in fields(merged):
        rule = _MERGE_RULES.get(spec.metadata.get("merge"))
        if rule is None:
            raise TypeError(
                f"{type(merged).__name__}.{spec.name} declares no merge rule; "
                f"declare it with _metric({' / '.join(map(repr, _MERGE_RULES))})"
            )
        for metrics in parts:
            folded = rule(getattr(merged, spec.name), getattr(metrics, spec.name))
            setattr(merged, spec.name, folded)
    return merged


@dataclass
class RunResult:
    """Everything a simulation run produced."""

    #: The recorded history, aborted attempts included; ``None`` when the run
    #: certified online (``certify="stream"``), which forgets settled work.
    history: History | None
    #: The engine's object-state table at the end of the run: every granted
    #: step applied, every aborted attempt undone.
    states: dict[str, ObjectState]
    metrics: RunMetrics
    scheduler_description: dict[str, Any]
    aborted_execution_ids: frozenset[str]
    committed_transaction_ids: tuple[str, ...]
    #: The :class:`~repro.analysis.certify.CertificationReport` built online
    #: by the streaming certifier when the engine ran with
    #: ``certify="stream"``; ``None`` otherwise.  Typed loosely because
    #: :mod:`repro.analysis.certify` imports this module.
    streaming_report: Any | None = None
    trace: Trace | None = None
    #: The arrival process configuration of an open-system run
    #: (:meth:`~repro.simulation.arrivals.ArrivalProcess.describe`);
    #: ``None`` for closed-batch runs.
    arrival_description: dict[str, Any] | None = None

    def committed_history(self) -> History:
        """The committed projection: aborted transaction subtrees removed.

        The engine records an interval-backed history, and the surviving
        intervals are kept verbatim — the temporal order is never
        materialised as explicit pairs.

        Raises:
            SimulationError: on a run that certified online, which kept no
                history (a partial one would certify the wrong thing).
        """
        if self.history is None:
            raise SimulationError(
                "this run certified online (certify='stream') and kept no history; "
                "its verdicts are in streaming_report — run it again with "
                "certify=False to get a history"
            )
        surviving = [
            execution
            for execution_id, execution in self.history.executions.items()
            if execution_id not in self.aborted_execution_ids
        ]
        kept = {step_id for execution in surviving for step_id in execution.step_ids_iter()}
        return History(
            surviving,
            self.history.initial_states,
            conflicts=self.history.conflicts,
            intervals={
                step_id: interval
                for step_id, interval in self.history.intervals().items()
                if step_id in kept
            },
        )

    def final_states(self) -> dict[str, ObjectState]:
        """Final object states by name: the engine's state table, which is
        authoritative (the engine undid every aborted attempt in it), so
        nothing is replayed; the tests hold it to the committed replay."""
        return {name: self.states[name] for name in sorted(self.states)}

    def summary(self) -> dict[str, Any]:
        """A flat dictionary convenient for printing experiment tables."""
        data = self.metrics.as_dict()
        data["scheduler"] = self.scheduler_description.get("name", "?")
        return data
