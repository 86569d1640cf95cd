"""Run metrics and results.

Every simulation run produces a :class:`RunResult`: the recorded history,
the set of executions that belong to aborted transaction attempts, and a
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

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from ..core.history import History
from .events import Trace


@dataclass
class RunMetrics:
    """Aggregate counters of one simulation run."""

    total_ticks: int = 0
    #: Scheduling decisions actually made (one runnable frame advanced per
    #: decision).  Equal to ``total_ticks`` on closed runs; smaller on runs
    #: whose clock fast-forwarded across idle gaps (delayed restarts,
    #: arrival streams), where the difference is exactly the skipped idle
    #: time.  ``decisions / wall-clock`` is the engine's raw service
    #: throughput, which benchmark E16 tracks.
    decisions: int = 0
    committed: int = 0
    aborted_attempts: int = 0
    gave_up: int = 0
    restarts: int = 0
    delayed_restarts: int = 0
    restart_delay_ticks: int = 0
    local_steps: int = 0
    wasted_steps: int = 0
    blocked_ticks: int = 0
    invocations: int = 0
    #: Invocations shipped to another shard's engine (0 on plain runs).
    remote_invocations: int = 0
    aborts_by_reason: Counter = field(default_factory=Counter)
    faults_injected: int = 0
    submitted: int = 0
    parks: int = 0
    wakes: int = 0
    forced_wakes: int = 0
    commit_parks: int = 0
    wait_ticks: int = 0
    commit_wait_ticks: int = 0
    # Open-system (streaming) quantities.  ``arrived`` counts transactions
    # released by an arrival stream (0 for closed-batch runs); the latency
    # aggregates cover every committed transaction, measured in ticks from
    # its arrival (tick 0 for closed submissions) to its commit, across
    # restarts.  ``in_flight_peak`` is the largest number of transactions
    # simultaneously in the system (arrived but not yet committed or given
    # up).
    arrived: int = 0
    in_flight_peak: int = 0
    latency_count: int = 0
    latency_sum: int = 0
    latency_max: int = 0
    # Live-state gauge, sampled at every garbage-collection pass: retained
    # scheduler records + candidate edges + undo-log segments + parked
    # frames.  ``live_state_peak`` is the largest sample;
    # ``live_state_ratio_peak`` the largest sample-to-in-flight ratio,
    # which a bounded-memory run keeps (roughly) flat however long the
    # stream goes.
    live_state_peak: int = 0
    live_state_ratio_peak: float = 0.0
    live_state_samples: int = 0

    # -- recording helpers -------------------------------------------------------

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
        return {
            "total_ticks": self.total_ticks,
            "decisions": self.decisions,
            "committed": self.committed,
            "aborted_attempts": self.aborted_attempts,
            "gave_up": self.gave_up,
            "restarts": self.restarts,
            "delayed_restarts": self.delayed_restarts,
            "restart_delay_ticks": self.restart_delay_ticks,
            "local_steps": self.local_steps,
            "wasted_steps": self.wasted_steps,
            "blocked_ticks": self.blocked_ticks,
            "invocations": self.invocations,
            "remote_invocations": self.remote_invocations,
            "submitted": self.submitted,
            "parks": self.parks,
            "wakes": self.wakes,
            "forced_wakes": self.forced_wakes,
            "commit_parks": self.commit_parks,
            "wait_ticks": self.wait_ticks,
            "commit_wait_ticks": self.commit_wait_ticks,
            "arrived": self.arrived,
            "in_flight_peak": self.in_flight_peak,
            "mean_latency": self.mean_latency,
            "latency_max": self.latency_max,
            "live_state_peak": self.live_state_peak,
            "live_state_ratio_peak": self.live_state_ratio_peak,
            "live_state_samples": self.live_state_samples,
            "live_state_per_in_flight": self.live_state_per_in_flight,
            "throughput": self.throughput,
            "commit_rate": self.commit_rate,
            "abort_rate": self.abort_rate,
            "blocked_fraction": self.blocked_fraction,
            "wasted_fraction": self.wasted_fraction,
            "aborts_by_reason": dict(self.aborts_by_reason),
            "faults_injected": self.faults_injected,
        }


def merge_run_metrics(parts: "list[RunMetrics]") -> RunMetrics:
    """Fold per-shard metrics into one fleet-level :class:`RunMetrics`.

    Counters add across shards.  ``total_ticks`` is the maximum — shards
    advance lock-step rounds towards a common horizon, so the slowest
    shard's clock is the fleet makespan.  The two peak gauges
    (``in_flight_peak``, ``live_state_peak``) add as a documented *upper
    bound*: per-shard peaks need not coincide in time, so the sum can
    overstate the simultaneous fleet peak but never understates it (the
    bounded-memory assertions stay conservative).  The ratio peak takes
    the worst shard.
    """
    merged = RunMetrics()
    for metrics in parts:
        merged.total_ticks = max(merged.total_ticks, metrics.total_ticks)
        merged.decisions += metrics.decisions
        merged.committed += metrics.committed
        merged.aborted_attempts += metrics.aborted_attempts
        merged.gave_up += metrics.gave_up
        merged.restarts += metrics.restarts
        merged.delayed_restarts += metrics.delayed_restarts
        merged.restart_delay_ticks += metrics.restart_delay_ticks
        merged.local_steps += metrics.local_steps
        merged.wasted_steps += metrics.wasted_steps
        merged.blocked_ticks += metrics.blocked_ticks
        merged.invocations += metrics.invocations
        merged.remote_invocations += metrics.remote_invocations
        merged.aborts_by_reason.update(metrics.aborts_by_reason)
        merged.faults_injected += metrics.faults_injected
        merged.submitted += metrics.submitted
        merged.parks += metrics.parks
        merged.wakes += metrics.wakes
        merged.forced_wakes += metrics.forced_wakes
        merged.commit_parks += metrics.commit_parks
        merged.wait_ticks += metrics.wait_ticks
        merged.commit_wait_ticks += metrics.commit_wait_ticks
        merged.arrived += metrics.arrived
        merged.in_flight_peak += metrics.in_flight_peak
        merged.latency_count += metrics.latency_count
        merged.latency_sum += metrics.latency_sum
        merged.latency_max = max(merged.latency_max, metrics.latency_max)
        merged.live_state_peak += metrics.live_state_peak
        merged.live_state_ratio_peak = max(
            merged.live_state_ratio_peak, metrics.live_state_ratio_peak
        )
        merged.live_state_samples += metrics.live_state_samples
    return merged


@dataclass
class RunResult:
    """Everything a simulation run produced."""

    history: History
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

        Interval-backed histories (everything the engine records) keep the
        surviving intervals verbatim — the temporal order is never
        materialised as explicit pairs.  Order-pair histories restrict the
        *transitive* order to the surviving steps
        (:meth:`~repro.core.history.History.projected_order_pairs`), so
        orderings that passed through a dropped step are preserved.
        """
        surviving = [
            execution
            for execution_id, execution in self.history.executions.items()
            if execution_id not in self.aborted_execution_ids
        ]
        intervals = self.history.intervals()
        surviving_step_ids = {
            step.step_id for execution in surviving for step in execution.steps()
        }
        if intervals is not None:
            kept_intervals = {
                step_id: interval
                for step_id, interval in intervals.items()
                if step_id in surviving_step_ids
            }
            return History(
                surviving,
                self.history.initial_states,
                conflicts=self.history.conflicts,
                intervals=kept_intervals,
            )
        return History(
            surviving,
            self.history.initial_states,
            conflicts=self.history.conflicts,
            order_pairs=self.history.projected_order_pairs(surviving_step_ids),
        )

    def final_states(self) -> dict[str, Any]:
        """Final object states of the committed projection of the run.

        The full recorded history also contains the steps of aborted
        attempts, whose effects the engine undid, so replaying it would not
        reflect the object base's actual end state; the committed projection
        does.
        """
        return self.committed_history().final_states()

    def summary(self) -> dict[str, Any]:
        """A flat dictionary convenient for printing experiment tables."""
        data = self.metrics.as_dict()
        data["scheduler"] = self.scheduler_description.get("name", "?")
        return data
