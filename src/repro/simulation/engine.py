"""The simulation engine: interleaved execution of nested transactions.

The engine is the library's substitute for a real object-base management
system.  It executes a set of top-level transactions (methods of the
environment) written as generator programmes, interleaving them one local
step at a time under the control of a pluggable scheduler, and records the
run as a :class:`~repro.core.history.History` that the analysis layer can
certify against the paper's theory.

Execution model
---------------

* Every method execution in progress is a *frame* holding its generator,
  its :class:`~repro.scheduler.base.ExecutionInfo` and its pending request.
* Each *tick* the engine picks one runnable frame (uniformly at random
  under a seeded RNG, or round-robin) and resolves exactly one request for
  it: a local operation (consulting the scheduler and, when granted,
  executing it against the object states), a message send (creating a child
  frame), or the completion of the frame.
* The engine is **event-driven**: a frame whose operation is BLOCKed is
  *parked* — removed from the runnable set, keyed by the blocker
  identifiers the scheduler reports — and is re-awakened only when a
  wake-up fires for one of its blockers: the blocker commits, aborts, or
  transfers its locks (rule 5 inheritance).  A parked frame never
  re-issues its request in between, so the makespan and the blocking
  metrics measure contention, not polling.  A commit request may block
  too (optimistic schedulers wait for read-from dependencies); the frame
  then parks at its commit point.  Blocking with no identifiable live
  blocker falls back to retrying, which feeds the starvation valve.
* An ``ABORT`` decision aborts the whole top-level transaction: its frames
  are discarded, the affected object states are repaired by *incremental
  undo* — each touched object is rolled back to the snapshot taken before
  the transaction's first step on it and the surviving steps since are
  re-applied — and the transaction is resubmitted (up to ``max_restarts``
  times) as a fresh execution.  A live survivor that may write and now
  returns another value than it recorded aborts too (its transaction saw
  undone work).  The cost is proportional to the aborted subtree's
  footprint, not the length of the whole run (``tests/simulation/
  test_undo.py`` holds the repaired states and return values against a
  full replay of the surviving history and counts the re-applied steps).
* *When* an aborted transaction is resubmitted is decided by the
  scheduler's :class:`~repro.scheduler.restart.RestartPolicy`: a zero
  delay restarts within the same tick (the ``immediate`` policy — the
  classic storm-prone behaviour), a positive delay puts the restart on
  the engine's *event heap*, a min-heap keyed by due tick that also
  carries streamed arrivals.  Due events are released at the top of
  every scheduling iteration; a waiting restart consumes no ticks, and
  when nothing is runnable but an event is pending the engine
  fast-forwards the clock to the heap's next due tick instead of
  force-waking parked frames.  The transaction's *lineage* (its
  original submission index) is preserved across attempts so
  seniority-based policies (``ordered``) can privilege old
  transactions.

Hot loop
--------

Choosing the next runnable frame is O(1): the engine maintains a *ready
list* of ``(creation sequence, frame)`` pairs, updated at every status
transition (spawn, park, wake, wait, retire), that is always sorted by
frame-creation order — exactly the iteration order of the frame table
that a per-tick scan of the table would observe, so decisions (and the
RNG draw sequence) are bit-identical to such a scan.  The scan itself
lives in ``tests/oracles/engines.py``, where the bit-identity property
tests hold this loop against it; E16 gates the loop's decision throughput
against the committed pre-rewrite rows.

The recorded history contains the steps of aborted attempts as well; the
:class:`~repro.simulation.metrics.RunResult` exposes the committed
projection, which is what serialisability certification operates on.
Under ``certify="stream"`` the certifier checks each transaction as it
settles and the builder forgets it, so the engine keeps only in-flight
records and the result carries no history.
"""

from __future__ import annotations

import heapq
import itertools
import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Any

from ..core.errors import SimulationError
from ..core.history import HistoryBuilder
from ..core.operations import LocalStep
from ..core.state import ObjectState, UndoLog
from ..objectbase.base import ObjectBase
from ..scheduler.base import STEP_LEVEL, ExecutionInfo, OperationRequest, Scheduler
from ..scheduler.restart import ImmediateRestart, RestartPolicy
from .arrivals import ArrivalProcess, make_arrival_process
from .events import (
    ABORTED,
    BEGIN,
    BLOCKED,
    COMMITTED,
    COMPLETED,
    FAULT_INJECTED,
    GAVE_UP,
    GRANTED,
    INVOKE,
    RESTARTED,
    RESTART_SCHEDULED,
    WOKEN,
    Trace,
    TraceEvent,
)
from .faults import FaultPlan, make_fault_plan
from .metrics import RunMetrics, RunResult
from .transactions import (
    InvokeRequest,
    LocalRequest,
    MethodContext,
    ParallelRequest,
    TransactionSpec,
)

_READY = "ready"
_WAITING = "waiting"
_PARKED = "parked"
_DONE = "done"

# ObjectState is immutable, so one shared empty state serves every
# object the run never initialised (instead of allocating per lookup).
_EMPTY_STATE = ObjectState()

#: ``certify="stream"`` — maintain the certification verdict online via
#: :class:`~repro.analysis.streaming.StreamingCertifier` (the only engine
#: certify mode; post-hoc certification stays in :mod:`repro.analysis`).
STREAM_CERTIFY = "stream"

# Unified event-heap kinds.  At an equal due tick restarts sort before
# arrivals — the release order the split queues had (due restarts were
# drained first each iteration, then due arrivals).
_EVENT_RESTART = 0
_EVENT_ARRIVAL = 1
_EVENT_FAULT = 2


@dataclass(slots=True)
class _Frame:
    """One method execution in progress."""

    info: ExecutionInfo
    execution: Any  # MethodExecution handle returned by the HistoryBuilder
    generator: Any = None
    status: str = _READY
    inbox: Any = None
    pending_local: LocalRequest | None = None
    blocked_attempts: int = 0
    parent: "_Frame | None" = None
    waiting_on: set[str] = field(default_factory=set)
    parallel_results: dict[str, Any] = field(default_factory=dict)
    parallel_order: list[str] = field(default_factory=list)
    spec: TransactionSpec | None = None
    attempt: int = 1
    parked_on: frozenset[str] = frozenset()
    parked_since: int = 0
    pending_commit: bool = False
    commit_value: Any = None
    #: Monotonic creation index; the ready list sorts on it, which keeps
    #: the candidate order identical to frame-table insertion order.
    seq: int = 0
    #: Whether ``generator`` is an actual generator (vs a plain return
    #: value) — detected once at creation, not re-probed per advance.
    is_generator: bool = False
    #: Set on children spawned on behalf of a *remote* shard: the message
    #: identifier whose result travels back to the requesting shard when
    #: this frame completes.  ``None`` on every frame of a plain run.
    shard_remote_id: str | None = None

    @property
    def execution_id(self) -> str:
        return self.info.execution_id


def _proxy_session_marker():  # pragma: no cover - never advanced
    """Placeholder body for remote-session roots (driven imperatively)."""


@dataclass(slots=True)
class _ShardRuntime:
    """Per-shard execution state when the engine runs as one shard of many.

    Bound by :meth:`SimulationEngine.bind_shard_runtime`; ``None`` on plain
    engines, so every shard-mode check on the hot paths is a single
    attribute test.  The shard driver (:mod:`repro.shard`) owns the message
    transport; the engine only fills ``outbox``/``notes`` and consumes
    directives between tick rounds.
    """

    index: int
    count: int
    #: ``owns(object_name) -> bool`` — does this shard hold the object?
    owns: Any
    #: ``classify(spec) -> bool`` — does the spec touch foreign objects?
    #: (Advisory: a missed classification is repaired at the first actual
    #: remote invoke; see :meth:`SimulationEngine._send_remote_invoke`.)
    classify: Any
    #: Optional conflict observer fed every executed step of cross-shard
    #: transactions (``note_step(info, step)``), for the inter-shard
    #: coordinator's precedence graph.
    tracker: Any = None
    #: Execution-id namespace (``"s<i>:"``); empty at ``count == 1`` so a
    #: single-shard run is bit-identical to the plain engine.
    id_prefix: str = ""
    txn_counter: Any = None
    remote_counter: Any = None
    #: Home-side: top-level ids known (or discovered) to be cross-shard.
    cross: set[str] = field(default_factory=set)
    #: Home-side: prepared root frames awaiting the global commit decision.
    held: dict[str, "_Frame"] = field(default_factory=dict)
    #: Owner-side: one *session* root per foreign transaction, carrying the
    #: foreign top-level id as its own execution id so the local scheduler
    #: sees a perfectly ordinary nested transaction.
    sessions: dict[str, "_Frame"] = field(default_factory=dict)
    #: remote message id -> local frame waiting on its result.
    waiters: dict[str, str] = field(default_factory=dict)
    #: Outgoing messages for the coordinator, drained at the tick barrier.
    outbox: list[tuple] = field(default_factory=list)
    #: Outgoing lifecycle notes (prepared / aborted).
    notes: list[tuple] = field(default_factory=list)


class SimulationEngine:
    """Interleaves transaction programmes under a concurrency-control scheduler.

    Engines are single-use: construct, :meth:`submit` (or
    :meth:`submit_all`) the transactions, then :meth:`run` exactly once.
    All randomness — the interleaving choice each tick, plus whatever the
    scheduler's restart policy draws (randomized backoff is re-seeded
    deterministically from the engine seed at construction) — comes from
    seeded RNGs, so a run is a pure function of ``(object_base, scheduler,
    submissions, seed, options)``; the scenario-sweep layer
    (:mod:`repro.sweep`) relies on this for its serial/parallel
    determinism guarantee.

    Args:
        object_base: the objects, their conflict specifications, and the
            environment's transaction methods.
        scheduler: the concurrency-control algorithm to consult (attached
            to ``object_base`` during construction).
        seed: RNG seed for the per-tick runnable-frame choice.
        scheduling: ``"random"`` (seeded uniform choice) or
            ``"round-robin"``.
        max_restarts: restart budget per transaction before it gives up.
        starvation_limit: consecutive blocked attempts of one frame before
            its transaction is aborted for starvation.
        max_ticks: hard cap on scheduling decisions (truncates runaway
            runs; parked waiters are accounted before the result is
            built).  A run cut off with streamed arrivals still queued
            raises :class:`SimulationError` instead of silently dropping
            the tail of the stream — raise the cap to fit the schedule.
        record_trace: record a :class:`~repro.simulation.events.Trace` of
            every event (costs memory; off by default).
        gc_interval: live-state garbage collection cadence, in finished
            transaction attempts (commits plus aborts) between passes.
            Each pass prunes the committed prefix of the undo log, asks
            the scheduler to collect state nothing live can depend on
            (:meth:`~repro.scheduler.base.Scheduler.collect_garbage`) and
            samples the live-state gauge, so long streaming runs retain
            state proportional to the in-flight population, not to the
            total arrival count.

    Raises:
        SimulationError: on an unknown ``scheduling`` or ``certify`` value,
            or a non-positive ``gc_interval``.
    """

    def __init__(
        self,
        object_base: ObjectBase,
        scheduler: Scheduler,
        *,
        seed: int = 0,
        scheduling: str = "random",
        max_restarts: int = 25,
        starvation_limit: int = 2000,
        max_ticks: int = 2_000_000,
        record_trace: bool = False,
        gc_interval: int = 64,
        certify: bool | str = False,
        fault_plan: "FaultPlan | str | dict | None" = None,
    ):
        if scheduling not in ("random", "round-robin"):
            raise SimulationError(f"unknown scheduling policy {scheduling!r}")
        if gc_interval < 1:
            raise SimulationError(f"gc_interval must be >= 1, got {gc_interval}")
        if certify not in (False, STREAM_CERTIFY):
            raise SimulationError(
                f"unknown certify mode {certify!r}; the engine only certifies online "
                f"(certify={STREAM_CERTIFY!r}) — for post-hoc certification run "
                "repro.analysis.certify_run on the RunResult"
            )
        self.object_base = object_base
        self.scheduler = scheduler
        self.seed = seed
        self.rng = random.Random(seed)
        self.scheduling = scheduling
        self.max_restarts = max_restarts
        self.starvation_limit = starvation_limit
        self.max_ticks = max_ticks
        self.record_trace = record_trace
        self._trace = Trace() if record_trace else None

        self._builder = HistoryBuilder(
            initial_states=object_base.initial_states(),
            conflicts=object_base.conflicts(STEP_LEVEL),
        )
        self.certify = certify
        self._certifier = None
        if certify == STREAM_CERTIFY:
            # Deferred import: repro.analysis pulls in simulation.metrics,
            # which must not re-enter this module's import.
            from ..analysis.streaming import StreamingCertifier

            self._certifier = StreamingCertifier(
                conflicts=self._builder.conflicts,
                initial_states=object_base.initial_states(),
            )
        self._states: dict[str, ObjectState] = dict(object_base.initial_states())
        self._frames: dict[str, _Frame] = {}
        self._executions_by_transaction: dict[str, set[str]] = {}
        self._round_robin_cursor = 0
        # The ready list: (frame.seq, frame) pairs sorted by creation
        # sequence — the same order a scan over the insertion-ordered frame
        # table produces, so the O(1) chooser sees the identical candidate
        # sequence.  Maintained by _set_ready/_set_not_ready at every
        # status transition.
        self._frame_sequence = itertools.count()
        self._ready: list[tuple[int, _Frame]] = []
        self._parked_count = 0
        self._undo_log = UndoLog()
        self._aborted_executions: set[str] = set()
        self._committed: list[str] = []
        self._pending_specs: list[TransactionSpec] = []
        # Parked-frame reverse index: blocker key -> ids of frames parked on it.
        self._parked_by_key: dict[str, set[str]] = {}
        # Unified event heap: (due tick, kind, sequence, payload) covering
        # delayed restarts (payload = (spec, attempt, lineage)) and streamed
        # arrivals (payload = spec).  The kind keeps restarts ahead of
        # arrivals at an equal due tick and the sequence keeps equal
        # (due, kind) keys FIFO — both matching the order the split queues
        # had.  _schedule is the only writer.
        self._events: list[tuple[int, int, int, Any]] = []
        self._event_sequence = itertools.count()
        # Fault injection: explicit crash ticks enter the heap up front,
        # periodic crashes re-arm themselves at each firing (see
        # _inject_fault) for as long as work remains.
        self._fault_plan: FaultPlan | None = (
            make_fault_plan(fault_plan) if fault_plan is not None else None
        )
        if self._fault_plan is not None:
            self._fault_plan.bind(seed)
            for due in self._fault_plan.initial_ticks():
                self._schedule(due, _EVENT_FAULT)
            first_periodic = self._fault_plan.next_after(0)
            if first_periodic is not None:
                self._schedule(first_periodic, _EVENT_FAULT)
        self._last_arrival_tick = 0
        # Lineage = original submission index, preserved across restarts so
        # the restart policy can reason about transaction seniority.
        self._lineage_counter = itertools.count()
        self._lineage_of: dict[str, int] = {}
        self._arrival_process: ArrivalProcess | None = None
        # Arrival tick per lineage, for the arrival -> commit latency.
        self._arrival_tick_of: dict[int, int] = {}
        self._in_flight = 0
        self.gc_interval = gc_interval
        self._finished_since_gc = 0
        self.metrics = RunMetrics()
        self._tick = 0
        self._finished = False
        # Sharded execution state; None on plain engines (the hot paths
        # test this single attribute).  Bound via bind_shard_runtime.
        self._shard: _ShardRuntime | None = None

        self.scheduler.attach(object_base)
        # The scheduler transports the restart policy as configuration; the
        # engine drives it (and seeds its randomness deterministically).
        self.restart_policy: RestartPolicy = (
            getattr(scheduler, "restart_policy", None) or ImmediateRestart()
        )
        self.restart_policy.bind(seed)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit(self, spec: TransactionSpec | str, *arguments: Any) -> None:
        """Queue a top-level transaction for execution.

        Accepts either a :class:`TransactionSpec` or a method name plus
        arguments for convenience.

        Args:
            spec: the transaction to run, or the name of a transaction
                method registered on the environment.
            *arguments: positional arguments when ``spec`` is a name.

        Raises:
            SimulationError: when arguments accompany a full spec, or the
                named method does not exist on the environment.
        """
        if isinstance(spec, str):
            spec = TransactionSpec(spec, tuple(arguments))
        elif arguments:
            raise SimulationError("pass arguments inside the TransactionSpec")
        self.object_base.environment.method(spec.method_name)  # validate early
        self._pending_specs.append(spec)
        self.metrics.submitted += 1

    def submit_all(self, specs) -> None:
        """Queue every :class:`TransactionSpec` in ``specs``, in order."""
        for spec in specs:
            self.submit(spec)

    def submit_stream(self, specs, arrival: "ArrivalProcess | str | dict" = "poisson") -> None:
        """Queue transactions as an *open* arrival stream.

        Instead of entering the system at tick 0 like :meth:`submit_all`
        batches, each transaction is assigned a deterministic arrival tick
        by the arrival process and is released into the running engine as
        the simulated clock crosses it.  The run then reports open-system
        metrics: per-transaction latency (arrival to commit), the
        in-flight population and its peak, and the live-state gauge.

        Args:
            specs: the :class:`TransactionSpec` sequence, in arrival order.
            arrival: an :class:`~repro.simulation.arrivals.ArrivalProcess`,
                a registry name (``"poisson"``, ``"bursty"``), or a
                ``{"name": ..., **kwargs}`` mapping.  The process is bound
                to (re-seeded from) the engine seed, so the schedule is a
                pure function of the configuration.

        Raises:
            SimulationError: when the engine already ran, or a spec names
                an unknown transaction method.
        """
        if self._finished:
            raise SimulationError("engine instances are single-use; create a new one")
        process = make_arrival_process(arrival)
        process.bind(self.seed)
        self._arrival_process = process
        specs = [
            spec if isinstance(spec, TransactionSpec) else TransactionSpec(spec, ())
            for spec in specs
        ]
        for spec in specs:
            self.object_base.environment.method(spec.method_name)  # validate early
        # Successive streams are concatenated in time: the new schedule is
        # offset by the latest arrival tick queued so far.
        start = self._last_arrival_tick
        for tick, spec in zip(process.schedule(len(specs)), specs):
            due = start + tick
            self._last_arrival_tick = due
            self._schedule(due, _EVENT_ARRIVAL, spec)

    def submit_scheduled(self, pairs) -> None:
        """Queue ``(arrival_tick, spec)`` pairs with pre-computed due ticks.

        The sharded driver computes one global arrival schedule and splits
        it by home shard; each shard's engine receives its slice with the
        *absolute* ticks, so the merged run observes the same schedule the
        plain engine would have drawn.  Ticks must be non-decreasing in
        ``pairs`` order (the order the shared schedule was drawn in).

        Raises:
            SimulationError: when the engine already ran, or a spec names
                an unknown transaction method.
        """
        if self._finished:
            raise SimulationError("engine instances are single-use; create a new one")
        for due, spec in pairs:
            self.object_base.environment.method(spec.method_name)  # validate early
            if due > self._last_arrival_tick:
                self._last_arrival_tick = due
            self._schedule(due, _EVENT_ARRIVAL, spec)

    def run_stream(
        self, specs, arrival: "ArrivalProcess | str | dict" = "poisson"
    ) -> RunResult:
        """Convenience: :meth:`submit_stream` then :meth:`run`."""
        self.submit_stream(specs, arrival)
        return self.run()

    # ------------------------------------------------------------------
    # the main loop
    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        """Execute every submitted transaction to commit (or give-up).

        Returns:
            The :class:`~repro.simulation.metrics.RunResult`: the recorded
            history (aborted attempts included; ``None`` under
            ``certify="stream"``, which keeps only in-flight records), the
            final object states, the metrics, the committed transaction
            order and, when requested, the trace.

        Raises:
            SimulationError: when called twice (engines are single-use) or
                when a transaction programme itself raises.
        """
        self._admit_pending()
        self._run_until(self.max_ticks)
        return self._finalise_run()

    def _admit_pending(self) -> None:
        """Admit the closed-batch submissions queued by :meth:`submit`."""
        if self._finished:
            raise SimulationError("engine instances are single-use; create a new one")
        for spec in self._pending_specs:
            self._admit(spec)
        self._pending_specs = []

    def _finalise_run(self) -> RunResult:
        """Close the run and build its result (shared with shard finalize)."""
        self.metrics.total_ticks = self._tick
        self._check_arrival_truncation()

        # A run cut off at max_ticks may leave frames parked; account their
        # wait so the contention metrics do not understate truncated runs.
        for frame in self._frames.values():
            if frame.status == _PARKED:
                self._clear_parking(frame)

        # Final garbage-collection pass: with every transaction resolved
        # the schedulers should retain (nearly) nothing, which the closing
        # gauge sample records.
        self._collect_garbage()
        self._finished = True
        return RunResult(
            # Online certification forgot every settled transaction, so there
            # is no whole history to build (see RunResult.committed_history).
            history=self._builder.build() if self._certifier is None else None,
            states=self._states,
            metrics=self.metrics,
            scheduler_description=self.scheduler.describe(),
            aborted_execution_ids=frozenset(self._aborted_executions),
            committed_transaction_ids=tuple(self._committed),
            streaming_report=(
                self._certifier.finalise() if self._certifier is not None else None
            ),
            trace=self._trace,
            arrival_description=(
                self._arrival_process.describe()
                if self._arrival_process is not None
                else None
            ),
        )

    def _run_until(self, horizon: int) -> int:
        """The hot loop, run until the clock reaches ``horizon``.

        A plain run is one call with ``max_ticks``, a shard round one call
        with the round's horizon.  Per decision this touches the ready list
        tail (or one RNG draw), the heap head and the frame generator — no
        per-tick scans, no per-tick allocations.  Returns the decisions made.
        """
        frames = self._frames
        events = self._events
        ready = self._ready
        shard = self._shard
        rng_choice = self.rng.choice
        random_scheduling = self.scheduling == "random"
        decisions = 0
        try:
            while (frames or events) and self._tick < horizon:
                tick = self._tick
                if events and events[0][0] <= tick:
                    self._release_due_events()
                if ready:
                    if random_scheduling:
                        frame = rng_choice(ready)[1]
                    else:
                        index = self._round_robin_cursor % len(ready)
                        self._round_robin_cursor = index + 1
                        frame = ready[index][1]
                    self._tick = tick + 1
                    decisions += 1
                    self._advance(frame)
                elif events:
                    # Nothing is runnable until the next event matures:
                    # fast-forward the clock to its due tick (the wait
                    # costs time, not scheduling decisions), clamped so a
                    # run never reports a makespan beyond its horizon.
                    self._tick = min(events[0][0], horizon)
                elif shard is not None and (shard.waiters or shard.held or shard.sessions):
                    break  # blocked on the barrier until a directive arrives
                # Nothing runnable, nothing pending: parked frames mean a
                # missed wake-up (a scheduler bug) or an unresolvable wait;
                # force a retry round rather than dropping the transactions.
                elif not self._force_wake_all():
                    break
        finally:
            self.metrics.decisions += decisions
        return decisions

    def _schedule(self, due: int, kind: int, payload: Any = None) -> None:
        """Queue a restart, arrival or fault on the event heap."""
        heapq.heappush(self._events, (due, kind, next(self._event_sequence), payload))

    def _release_due_events(self) -> None:
        """Release every queued restart/arrival whose due tick was reached."""
        events = self._events
        tick = self._tick
        while events and events[0][0] <= tick:
            due, kind, _, payload = heapq.heappop(events)
            if kind == _EVENT_RESTART:
                spec, attempt, lineage = payload
                self.metrics.restarts += 1
                self._start_transaction(spec, attempt=attempt, lineage=lineage)
            elif kind == _EVENT_FAULT:
                self._inject_fault(due)
            else:
                self.metrics.submitted += 1
                self.metrics.arrived += 1
                self._admit(payload, arrival_tick=due)

    # ------------------------------------------------------------------
    # sharded execution (driven by repro.shard)
    # ------------------------------------------------------------------
    #
    # A sharded run partitions the object space across engines, one full
    # engine (+ scheduler) per shard.  Shards advance in lock-step *tick
    # rounds*: at each barrier the driver applies the coordinator's
    # directives (remote admissions, results, commit/abort decisions),
    # takes any open ballot's votes (commit_vote) and applies the
    # decisions, then runs the plain hot loop (_run_until) up to a common
    # horizon and drains the shard's outbox/notes.  All cross-shard
    # interaction happens at these barriers, so a sharded run is a pure
    # function of (spec, shard map, seed) regardless of transport —
    # in-process and multiprocess execution are bit-identical.
    #
    # Cross-shard transactions follow the paper's modular recipe one level
    # up: on its home shard the transaction runs normally until commit,
    # which is *held* for a two-phase decision; on every other shard its
    # remote invokes run under a local *session* root that carries the
    # foreign top-level id, so the owner's scheduler synchronises it like
    # any ordinary nested transaction (locks, timestamps and commit gates
    # all key by that id), and the session's locks are retained until the
    # coordinator's global decision.

    def bind_shard_runtime(
        self,
        *,
        index: int,
        count: int,
        owns,
        classify,
        tracker=None,
    ) -> None:
        """Run this engine as shard ``index`` of ``count``.

        Must be called before any work ran.  ``owns(object_name)`` says
        whether this shard holds the object; ``classify(spec)`` whether a
        submitted transaction may touch foreign objects (advisory — a
        missed classification is repaired at the first actual remote
        invoke); ``tracker`` optionally observes every executed step of
        cross-shard transactions for the coordinator's precedence graph.

        Raises:
            SimulationError: when the engine already ran or certifies
                online (per-shard certification happens post-hoc in the
                shard worker instead).
        """
        if self._finished or self._tick or self._frames:
            raise SimulationError("bind_shard_runtime must precede the run")
        if self._certifier is not None:
            raise SimulationError(
                "sharded engines cannot certify online; certify each shard's "
                "RunResult post-hoc in the shard worker instead"
            )
        self._shard = _ShardRuntime(
            index=index,
            count=count,
            owns=owns,
            classify=classify,
            tracker=tracker,
            id_prefix=f"s{index}:" if count > 1 else "",
            txn_counter=itertools.count(1),
            remote_counter=itertools.count(1),
        )

    def begin_shard_run(self) -> None:
        """Admit the pending closed-batch submissions, as :meth:`run` does."""
        self._admit_pending()

    def run_shard_round(self, horizon: int) -> int:
        """One round: the plain hot loop run to ``horizon``; returns its decisions."""
        return self._run_until(min(horizon, self.max_ticks))

    def apply_shard_directives(self, directives) -> None:
        """Apply one round's coordinator directives, in order.

        Directive tuples: ``("invoke", remote_id, gid, object, method,
        args)`` admits a remote invocation; ``("result", remote_id,
        value)`` delivers a remote result; ``("commit", gid)`` /
        ``("abort", gid, reason)`` apply the coordinator's global
        decision.  Votes are not directives: the shard worker asks
        :meth:`commit_vote` between applying a barrier's directives and
        running the next round.
        """
        for directive in directives:
            kind = directive[0]
            if kind == "invoke":
                _, remote_id, gid, object_name, method_name, arguments = directive
                self.admit_remote(gid, remote_id, object_name, method_name, arguments)
            elif kind == "result":
                self.deliver_remote_result(directive[1], directive[2])
            elif kind == "commit":
                self.apply_global_commit(directive[1])
            elif kind == "abort":
                self.apply_global_abort(directive[1], directive[2])
            else:
                raise SimulationError(f"unknown shard directive {directive!r}")

    def drain_shard_outbox(self) -> list[tuple]:
        """The messages queued since the last barrier (clears the outbox)."""
        shard = self._shard
        messages, shard.outbox = shard.outbox, []
        return messages

    def drain_shard_notes(self) -> list[tuple]:
        """The lifecycle notes queued since the last barrier (clears them)."""
        shard = self._shard
        notes, shard.notes = shard.notes, []
        return notes

    def shard_pending(self) -> bool:
        """Whether this shard still holds live work or barrier state."""
        shard = self._shard
        return bool(self._frames or self._events or shard.waiters or shard.held)

    def finalize_shard(self) -> RunResult:
        """Close the shard's run once the driver declares the fleet done."""
        return self._finalise_run()

    def _send_remote_invoke(self, frame: _Frame, invocation: InvokeRequest) -> str:
        """Queue a foreign-object invocation for the owning shard."""
        shard = self._shard
        gid = frame.info.top_level_id
        # Safety net for imprecise classifiers: the id is cross-shard from
        # the first remote invoke on, whatever classify() said at submit.
        shard.cross.add(gid)
        remote_id = f"{gid}/r{next(shard.remote_counter)}"
        shard.waiters[remote_id] = frame.execution_id
        shard.outbox.append(
            (
                "invoke",
                remote_id,
                gid,
                invocation.object_name,
                invocation.method_name,
                invocation.arguments,
            )
        )
        self.metrics.remote_invocations += 1
        self._record(
            INVOKE, remote_id, invocation.object_name, invocation.method_name
        )
        return remote_id

    def deliver_remote_result(self, remote_id: str, value: Any) -> None:
        """A remote invocation's result arrived (stale ids are dropped)."""
        shard = self._shard
        frame_id = shard.waiters.pop(remote_id, None)
        if frame_id is None:
            return
        frame = self._frames.get(frame_id)
        if frame is None or frame.status != _WAITING or remote_id not in frame.waiting_on:
            return
        self._deliver(frame, remote_id, value)

    def admit_remote(
        self,
        gid: str,
        remote_id: str,
        object_name: str,
        method_name: str,
        arguments: tuple,
    ) -> None:
        """Run a foreign transaction's invocation under a local session root.

        The first invocation for ``gid`` opens the session: an inert
        top-level frame whose execution id *is* the foreign id, so to the
        local scheduler the remote work is an ordinary nested transaction
        (begin, lock inheritance, commit gate and garbage collection all
        key by ``gid`` exactly as on the home shard).  Each invocation is
        spawned as a child of that root; the root itself never becomes
        runnable and is resolved only by the coordinator's global decision.
        A nested call that comes *back* to the transaction's home shard
        finds the transaction's own live root there: that root is its
        session, and the invocation is spawned under it.
        """
        shard = self._shard
        if gid in self._aborted_executions:
            return  # raced with a local abort; the coordinator re-relays
        session = shard.sessions.get(gid)
        if session is None and gid in shard.cross:
            session = self._frames.get(gid)
        if session is None:
            session = shard.sessions[gid] = self._open_root(
                "remote-session", gid, generator=_proxy_session_marker, status=_WAITING
            )
            self._record(BEGIN, gid, detail="remote session")
        child = self._spawn_child(
            session,
            InvokeRequest(object_name, method_name, tuple(arguments)),
            after=None,
        )
        child.shard_remote_id = remote_id
        session.waiting_on.add(child.execution_id)

    def _hold_commit(self, frame: _Frame, return_value: Any) -> None:
        """Park a prepared cross-shard root until the global decision."""
        shard = self._shard
        self._set_not_ready(frame, _WAITING)
        frame.pending_commit = True
        frame.commit_value = return_value
        shard.held[frame.execution_id] = frame
        shard.notes.append(("prepared", frame.execution_id))
        self._record(
            BLOCKED, frame.execution_id, detail="prepared: awaiting global commit"
        )

    def commit_vote(self, gid: str) -> tuple[str, str]:
        """This shard's two-phase vote on ``gid``: commit, defer or abort."""
        shard = self._shard
        frame = shard.held.get(gid) or shard.sessions.get(gid)
        if frame is None:
            return ("abort", "transaction unknown on this shard")
        response = self.scheduler.on_commit_request(frame.info)
        if response.blocked:
            return ("defer", response.reason or "commit deferred")
        if not response.granted:
            return ("abort", response.reason or "commit vetoed")
        return ("commit", "")

    def apply_global_commit(self, gid: str) -> None:
        """The coordinator decided commit: finalise the local share."""
        shard = self._shard
        frame = shard.held.pop(gid, None) or shard.sessions.get(gid)
        if frame is not None:
            shard.cross.discard(gid)
            self._finalise_commit(frame, frame.commit_value)

    def apply_global_abort(self, gid: str, reason: str) -> None:
        """The coordinator decided abort: discard the local share."""
        if gid in self._frames or gid in self._executions_by_transaction:
            # The standard abort path (on the home shard, restart policy
            # included); it re-notes the abort, which the coordinator
            # ignores for an already-resolved id.
            self._abort_transaction(gid, reason)

    def _check_arrival_truncation(self) -> None:
        """Refuse to end a run that silently dropped queued arrivals.

        The tick cap can cut a streamed run short while arrivals are still
        queued on the event heap; every metric downstream (commit rate,
        throughput, the bounded-memory gauge) would then describe a shorter
        stream than the one requested.  Restart events may be truncated
        silently — the transaction already arrived and its attempts are
        accounted — but an undelivered *arrival* means the workload itself
        was cut, which is an error, not a result.
        """
        if self._tick < self.max_ticks:
            return
        undelivered = sum(1 for event in self._events if event[1] == _EVENT_ARRIVAL)
        if undelivered:
            raise SimulationError(
                f"run truncated at max_ticks={self.max_ticks} with {undelivered} "
                "streamed arrival(s) still undelivered; raise max_ticks to cover "
                "the arrival schedule (the last arrival is due at tick "
                f"{max(event[0] for event in self._events if event[1] == _EVENT_ARRIVAL)})"
            )

    def _admit(self, spec: TransactionSpec, arrival_tick: int = 0) -> None:
        """A new lineage enters the system (first attempt)."""
        lineage = next(self._lineage_counter)
        self._arrival_tick_of[lineage] = arrival_tick
        self._in_flight += 1
        if self._in_flight > self.metrics.in_flight_peak:
            self.metrics.in_flight_peak = self._in_flight
        self._start_transaction(spec, attempt=1, lineage=lineage)

    # ------------------------------------------------------------------
    # the ready list
    # ------------------------------------------------------------------

    def _ready_add(self, frame: _Frame) -> None:
        """Insert a ready frame, keeping the list sorted by creation seq.

        Frames usually become ready in creation order, so the common case
        is an O(1) append; a wake of an old frame pays one bisect insert.
        """
        entry = (frame.seq, frame)
        ready = self._ready
        if not ready or frame.seq > ready[-1][0]:
            ready.append(entry)
        else:
            insort(ready, entry)

    def _ready_remove(self, frame: _Frame) -> None:
        ready = self._ready
        # (seq,) sorts immediately before (seq, frame), so bisect_left
        # lands on the entry itself; seqs are unique so the frame halves
        # of the pairs are never compared.
        index = bisect_left(ready, (frame.seq,))
        if index < len(ready) and ready[index][0] == frame.seq:
            del ready[index]

    def _set_ready(self, frame: _Frame) -> None:
        if frame.status != _READY:
            frame.status = _READY
            self._ready_add(frame)

    def _set_not_ready(self, frame: _Frame, status: str) -> None:
        if frame.status == _READY:
            self._ready_remove(frame)
        frame.status = status

    # ------------------------------------------------------------------
    # parking and wake-ups
    # ------------------------------------------------------------------

    def _live_blocker_keys(self, blockers: frozenset[str]) -> frozenset[str]:
        """The blocker identifiers that refer to live executions/transactions.

        A frame may only park on keys a future wake-up can fire for; dead or
        unknown identifiers are dropped (and a frame with none left falls
        back to retrying).
        """
        if not blockers:
            return frozenset()
        frames = self._frames
        # Live top-level ids == keys of the execution index: an entry is
        # created when the top frame starts and dropped in the same call
        # that retires it (commit or abort), so no set rebuild is needed.
        live_transactions = self._executions_by_transaction
        return frozenset(
            key for key in blockers if key in frames or key in live_transactions
        )

    def _park(self, frame: _Frame, blockers: frozenset[str], *, commit: bool) -> bool:
        """Park the frame on its blockers; False when no live key exists."""
        keys = self._live_blocker_keys(blockers)
        if not keys:
            return False
        self._set_not_ready(frame, _PARKED)
        self._parked_count += 1
        frame.parked_on = keys
        frame.parked_since = self._tick
        for key in keys:
            self._parked_by_key.setdefault(key, set()).add(frame.execution_id)
        self.metrics.parks += 1
        if commit:
            self.metrics.commit_parks += 1
        return True

    def _clear_parking(self, frame: _Frame) -> None:
        """Remove the frame from the park index and account its wait time."""
        self._parked_count -= 1
        for key in frame.parked_on:
            waiters = self._parked_by_key.get(key)
            if waiters is not None:
                waiters.discard(frame.execution_id)
                if not waiters:
                    del self._parked_by_key[key]
        elapsed = self._tick - frame.parked_since
        self.metrics.wait_ticks += elapsed
        if frame.pending_commit:
            self.metrics.commit_wait_ticks += elapsed
        else:
            self.metrics.blocked_ticks += elapsed
        frame.parked_on = frozenset()

    def _wake_frame(self, frame_id: str, detail: str) -> None:
        frame = self._frames.get(frame_id)
        if frame is None or frame.status != _PARKED:
            return
        self._clear_parking(frame)
        self._set_ready(frame)
        self.metrics.wakes += 1
        self._record(WOKEN, frame.execution_id, detail=detail)

    def _drain_wakeups(self, extra_keys=()) -> None:
        """Wake every frame parked on a freed blocker identifier.

        Combines the scheduler's accumulated wake set (lock releases and
        transfers) with the engine's own keys (transaction ends).
        """
        pending = self.scheduler.drain_wakeups()
        parked_by_key = self._parked_by_key
        if not parked_by_key:
            return
        if extra_keys:
            keys = set(pending)
            keys.update(extra_keys)
        elif pending:
            keys = pending
        else:
            return
        for key in keys:
            waiters = parked_by_key.get(key)
            if waiters:
                for frame_id in list(waiters):
                    self._wake_frame(frame_id, detail=key)

    def _force_wake_all(self) -> bool:
        """Last-resort stall breaker: wake every parked frame for a retry."""
        parked = [frame for frame in self._frames.values() if frame.status == _PARKED]
        if not parked:
            return False
        for frame in parked:
            self.metrics.forced_wakes += 1
            self._wake_frame(frame.execution_id, detail="forced")
        return True

    # ------------------------------------------------------------------
    # frame management
    # ------------------------------------------------------------------

    def _record(self, kind: str, execution_id: str, object_name: str = "", detail: str = "") -> None:
        if self._trace is not None:
            self._trace.record(TraceEvent(self._tick, kind, execution_id, object_name, detail))

    def _root_info(self, execution_id: str, method_name: str) -> ExecutionInfo:
        """The :class:`ExecutionInfo` of a top-level execution."""
        return ExecutionInfo(
            execution_id=execution_id,
            object_name=self.object_base.environment.name,
            method_name=method_name,
            parent_id=None,
            ancestor_ids=(),
            top_level_id=execution_id,
        )

    def _open_root(
        self, method_name: str, execution_id: str | None, **frame_fields: Any
    ) -> _Frame:
        """Begin a top-level execution — a transaction attempt or a session.

        Records it in the history (``execution_id=None`` takes the
        builder's next id), registers its frame and execution index, and
        announces it to the scheduler.
        """
        execution = self._builder.begin_top_level(method_name, execution_id)
        info = self._root_info(execution.execution_id, method_name)
        frame = _Frame(
            info=info, execution=execution, seq=next(self._frame_sequence), **frame_fields
        )
        self._frames[info.execution_id] = frame
        self._executions_by_transaction[info.execution_id] = {info.execution_id}
        self.scheduler.on_transaction_begin(info)
        return frame

    def _start_transaction(self, spec: TransactionSpec, attempt: int, lineage: int) -> None:
        definition = self.object_base.environment.method(spec.method_name)
        shard = self._shard
        # Namespaced ids keep top-level (and hence child) execution ids
        # globally unique across the shard fleet; single-shard runs keep
        # the builder's own ids so they stay bit-identical to plain runs.
        namespaced = (
            f"{shard.id_prefix}T{next(shard.txn_counter)}"
            if shard is not None and shard.id_prefix
            else None
        )
        frame = self._open_root(spec.method_name, namespaced, spec=spec, attempt=attempt)
        info = frame.info
        context = MethodContext(info.object_name, info.execution_id, spec.method_name)
        frame.generator = definition.body(context, *spec.arguments)
        frame.is_generator = self._is_generator(frame.generator)
        self._ready_add(frame)
        self._lineage_of[info.execution_id] = lineage
        if attempt == 1:
            self.restart_policy.on_submit(lineage)
        if shard is not None and shard.classify(spec):
            # Register the attempt for two-phase coordination; each restart
            # is a fresh id, so the coordinator sees attempts, not lineages.
            shard.cross.add(info.execution_id)
        if self._certifier is not None:
            self._certifier.note_begin(info.execution_id, self._builder.clock)
        self._record(BEGIN if attempt == 1 else RESTARTED, info.execution_id, detail=spec.label)

    def _spawn_child(self, parent: _Frame, invocation: InvokeRequest, after) -> _Frame:
        definition = self.object_base.method(invocation.object_name, invocation.method_name)
        child_execution = self._builder.invoke(
            parent.execution,
            invocation.object_name,
            invocation.method_name,
            invocation.arguments,
            after=after,
        )
        info = ExecutionInfo(
            execution_id=child_execution.execution_id,
            object_name=invocation.object_name,
            method_name=invocation.method_name,
            parent_id=parent.execution_id,
            ancestor_ids=(parent.execution_id,) + parent.info.ancestor_ids,
            top_level_id=parent.info.top_level_id,
        )
        child = _Frame(
            info=info,
            execution=child_execution,
            parent=parent,
            attempt=parent.attempt,
            seq=next(self._frame_sequence),
        )
        context = MethodContext(info.object_name, info.execution_id, info.method_name)
        child.generator = definition.body(context, *invocation.arguments)
        child.is_generator = self._is_generator(child.generator)
        self._frames[info.execution_id] = child
        self._ready_add(child)
        self._executions_by_transaction.setdefault(info.top_level_id, set()).add(info.execution_id)
        self.scheduler.on_invoke(parent.info, info)
        self.metrics.invocations += 1
        self._record(INVOKE, info.execution_id, invocation.object_name, invocation.method_name)
        return child

    # ------------------------------------------------------------------
    # advancing a frame by one request
    # ------------------------------------------------------------------

    def _advance(self, frame: _Frame) -> None:
        if frame.status != _READY:
            return
        if frame.pending_commit:
            self._complete_top_level(frame, frame.commit_value)
            return
        if frame.pending_local is not None:
            self._resolve_local(frame, frame.pending_local)
            return
        try:
            if not frame.is_generator:
                # A plain function body: its return value is immediate.
                self._complete_frame(frame, frame.generator)
                return
            request = frame.generator.send(frame.inbox)
        except StopIteration as stop:
            self._complete_frame(frame, stop.value)
            return
        except Exception as error:  # a bug in a transaction programme
            raise SimulationError(
                f"transaction programme {frame.info.method_name!r} raised {error!r}"
            ) from error
        frame.inbox = None
        self._handle_request(frame, request)

    @staticmethod
    def _is_generator(candidate: Any) -> bool:
        return hasattr(candidate, "send") and hasattr(candidate, "throw")

    def _handle_request(self, frame: _Frame, request: Any) -> None:
        if isinstance(request, LocalRequest):
            self._resolve_local(frame, request)
            return
        if isinstance(request, InvokeRequest):
            awaited = [self._dispatch(frame, request, after=None)]
            frame.parallel_order = []
        elif isinstance(request, ParallelRequest):
            existing_steps = list(frame.execution.step_ids())
            awaited = [
                self._dispatch(frame, invocation, after=existing_steps)
                for invocation in request.invocations
            ]
            frame.parallel_order = awaited
            frame.parallel_results = {}
        else:
            raise SimulationError(
                f"method {frame.info.method_name!r} yielded an unknown request: {request!r}"
            )
        self._set_not_ready(frame, _WAITING)
        frame.waiting_on = set(awaited)

    def _dispatch(self, frame: _Frame, invocation: InvokeRequest, after) -> str:
        """Start one invocation; returns the id whose result ``frame`` awaits.

        A local child's execution id, or — when another shard owns the
        object — the id of the message queued for that shard.
        """
        shard = self._shard
        if shard is not None and not shard.owns(invocation.object_name):
            return self._send_remote_invoke(frame, invocation)
        return self._spawn_child(frame, invocation, after).execution_id

    def _deliver(self, frame: _Frame, key: str, value: Any) -> None:
        """Hand ``frame`` the result it awaited under ``key``.

        ``key`` is a child execution id or a remote message id.  A
        parallel request gathers its results in ``parallel_order``; the
        frame becomes runnable when nothing is awaited any more.
        """
        frame.waiting_on.discard(key)
        if frame.parallel_order:
            frame.parallel_results[key] = value
            if not frame.waiting_on:
                frame.inbox = [
                    frame.parallel_results.get(awaited) for awaited in frame.parallel_order
                ]
                frame.parallel_order = []
                frame.parallel_results = {}
                self._set_ready(frame)
        elif not frame.waiting_on:
            frame.inbox = value
            self._set_ready(frame)

    def _wait(self, frame: _Frame, object_name: str, reason: str, blockers) -> None:
        """A BLOCK answer to ``frame``'s operation or commit request.

        The frame keeps its request pending and parks on the blockers the
        scheduler named; at ``starvation_limit`` consecutive blocked
        attempts its transaction is aborted instead.
        """
        frame.blocked_attempts += 1
        self._record(BLOCKED, frame.execution_id, object_name, reason)
        if frame.blocked_attempts >= self.starvation_limit:
            self._abort_transaction(frame.info.top_level_id, "starvation: blocked too long")
        elif not self._park(frame, blockers, commit=frame.pending_commit):
            # No live blocker to key a wake-up on: stay runnable and retry
            # (the pre-event-driven behaviour), which keeps the starvation
            # valve meaningful for degenerate schedulers.  A retried commit
            # is accounted as commit waiting, so "never blocks an
            # operation" schedulers still report zero blocked ticks.
            self.metrics.wait_ticks += 1
            if frame.pending_commit:
                self.metrics.commit_wait_ticks += 1
            else:
                self.metrics.blocked_ticks += 1

    # -- local operations ---------------------------------------------------------

    def _resolve_local(self, frame: _Frame, request: LocalRequest) -> None:
        info = frame.info
        object_name = info.object_name
        operation = request.operation
        metrics = self.metrics
        pre_state = self._states.get(object_name)
        if pre_state is None:
            pre_state = _EMPTY_STATE
        # One application serves both the provisional step the scheduler
        # inspects and — when granted — the recorded step: operations are
        # pure functions of the state, and the scheduler cannot change the
        # object states, so re-applying after the grant would recompute
        # the identical (value, new state) pair.
        value, new_state = operation.apply(pre_state)
        provisional_step = LocalStep(info.execution_id, object_name, operation, value)
        operation_request = OperationRequest(
            info=info,
            object_name=object_name,
            operation=operation,
            provisional_step=provisional_step,
        )
        response = self.scheduler.on_operation(operation_request)
        if response.blocked:
            frame.pending_local = request
            self._wait(frame, object_name, response.reason, response.blockers)
            return
        if response.aborted:
            frame.pending_local = None
            self._abort_transaction(info.top_level_id, response.reason)
            return

        # Granted: commit the already-computed transition and record the step.
        frame.pending_local = None
        frame.blocked_attempts = 0
        self._states[object_name] = new_state
        self._builder.record_local(frame.execution, operation, value)
        self._undo_log.record(
            object_name, info.execution_id, info.top_level_id, operation, pre_state, value
        )
        metrics.local_steps += 1
        self.scheduler.on_operation_executed(operation_request, value)
        shard = self._shard
        if (
            shard is not None
            and shard.tracker is not None
            and (info.top_level_id in shard.cross or info.top_level_id in shard.sessions)
        ):
            # Only cross-shard work feeds the inter-shard precedence graph;
            # purely local transactions are the local scheduler's business.
            shard.tracker.note_step(info, provisional_step)
        self._record(GRANTED, frame.execution_id, object_name, operation.name)
        frame.inbox = value

    # -- completion -----------------------------------------------------------------

    def _complete_frame(self, frame: _Frame, return_value: Any) -> None:
        self._set_not_ready(frame, _DONE)
        if frame.parent is None:
            self._complete_top_level(frame, return_value)
            return
        self._builder.finish(frame.execution, return_value)
        self.scheduler.on_execution_complete(frame.info)
        self._record(COMPLETED, frame.execution_id, frame.info.object_name)
        self._deliver_to_parent(frame, return_value)
        self._frames.pop(frame.execution_id, None)
        # Completion may have transferred the child's locks to its parent
        # (rule 5); waiters blocked on the child must re-examine their
        # conflicts against the inheriting ancestor.
        self._drain_wakeups()

    def _deliver_to_parent(self, child: _Frame, return_value: Any) -> None:
        parent = child.parent
        if child.shard_remote_id is not None:
            # A remote-session child: its result travels back to the shard
            # that requested it (open-nesting style, the value is
            # provisional until the global commit); the session root stays
            # open, retaining the subtree's locks, until the coordinator
            # resolves the transaction.
            self._shard.outbox.append(
                ("result", child.shard_remote_id, child.info.top_level_id, return_value)
            )
            parent.waiting_on.discard(child.execution_id)
        elif parent.status == _WAITING:
            self._deliver(parent, child.execution_id, return_value)

    def _complete_top_level(self, frame: _Frame, return_value: Any) -> None:
        shard = self._shard
        if shard is not None and frame.info.top_level_id in shard.cross:
            # A cross-shard transaction cannot commit unilaterally: hold the
            # prepared root for the coordinator's two-phase decision.
            self._hold_commit(frame, return_value)
            return
        response = self.scheduler.on_commit_request(frame.info)
        if response.blocked:
            # The scheduler defers the commit (e.g. until the transactions
            # whose effects this one observed have resolved); park at the
            # commit point and retry on wake-up.
            self._set_ready(frame)  # _complete_frame marked it done
            frame.pending_commit = True
            frame.commit_value = return_value
            self._wait(frame, "", response.reason or "commit deferred", response.blockers)
            return
        if not response.granted:
            self._abort_transaction(frame.info.top_level_id, response.reason or "commit vetoed")
            return
        self._finalise_commit(frame, return_value)

    def _finalise_commit(self, frame: _Frame, return_value: Any) -> None:
        """Apply a granted commit (shared with the global-commit directive).

        A session commits its foreign transaction's local share through
        this same path; the commit count, latency, in-flight and
        restart-policy bookkeeping (and online certification) belong to the
        transaction's home shard.
        """
        shard = self._shard
        session = shard is not None and shard.sessions.pop(frame.execution_id, None) is not None
        frame.pending_commit = False
        self.scheduler.on_transaction_commit(frame.info)
        self._committed.append(frame.execution_id)
        self._record(
            COMMITTED,
            frame.execution_id,
            detail="remote session" if session else str(return_value),
        )
        # Re-entered commits (pending_commit retries) arrive here _READY.
        self._set_not_ready(frame, _DONE)
        self._frames.pop(frame.execution_id, None)
        self._undo_log.forget_transaction(frame.info.top_level_id)
        if not session:
            self.metrics.committed += 1
            if self._certifier is not None:
                # Hand the committed subtree over while the execution index
                # still lists it (the index is dropped a few lines below):
                # the builder forgets it, the certifier keeps what it needs.
                index = self._executions_by_transaction
                subtree, intervals = self._builder.forget(
                    sorted(index.get(frame.execution_id, {frame.execution_id}))
                )
                self._certifier.note_commit(
                    frame.execution_id, subtree, intervals, resolve_stamp=self._builder.clock
                )
            lineage = self._lineage_of.pop(frame.execution_id, None)
            if lineage is not None:
                self.restart_policy.on_finished(lineage)
                arrival_tick = self._arrival_tick_of.pop(lineage, 0)
                self.metrics.note_latency(self._tick - arrival_tick)
            self._in_flight -= 1
        # The commit released the transaction's locks (and resolved any
        # read-from dependencies on it): wake its waiters, then drop the
        # execution index — a committed transaction can never abort, so the
        # subtree listing is dead weight from here on.
        self._drain_wakeups(
            {frame.execution_id, *self._executions_by_transaction.get(frame.execution_id, ())}
        )
        self._executions_by_transaction.pop(frame.execution_id, None)
        self._note_finished_attempt()

    # -- fault injection -------------------------------------------------------------

    def _inject_fault(self, due: int) -> None:
        """Fire one fault-plan crash: kill a live top-level transaction.

        The victim dies through the ordinary abort path — undo, scheduler
        release, cascade exposure, restart policy — so an injected crash
        is indistinguishable from a scheduler-initiated abort downstream.
        Shard-foreign sessions are excluded (their home shard owns their
        lineage); with no eligible victim the fault passes without effect.
        A periodic plan re-arms itself here for as long as any work
        (frames or queued events) remains, so an idle tail never spins on
        fault events alone.
        """
        plan = self._fault_plan
        shard = self._shard
        lineage_of = self._lineage_of
        candidates = sorted(
            (
                transaction_id
                for transaction_id in self._executions_by_transaction
                if shard is None or transaction_id not in shard.sessions
            ),
            key=lambda transaction_id: (
                lineage_of.get(transaction_id, 0),
                transaction_id,
            ),
        )
        victim = plan.choose_victim(candidates)
        if victim is not None:
            self.metrics.faults_injected += 1
            self._record(FAULT_INJECTED, victim, detail=f"crash injected at tick {due}")
            self._abort_transaction(victim, "fault: injected crash")
        next_due = plan.next_after(due)
        if next_due is not None and (self._frames or self._events):
            self._schedule(next_due, _EVENT_FAULT)

    # -- aborts ----------------------------------------------------------------------

    def _abort_transaction(self, top_level_id: str, reason: str) -> None:
        shard = self._shard
        # A session — a *foreign* transaction's local share — aborts through
        # this same path, whether the abort was detected locally (deadlock,
        # timestamp violation, starvation) or decided globally: the subtree
        # is discarded, its effects undone (the wasted steps physically ran
        # here) and the coordinator notified.  The attempt and reason
        # counts, restart and give-up belong to the transaction's home shard.
        session = shard is not None and shard.sessions.pop(top_level_id, None) is not None
        top_frame = self._frames.get(top_level_id)
        # Every execution ever created for this attempt belongs to the
        # aborted subtree (including completed children whose frames are
        # already gone); the paper's abort semantics require descendants to
        # abort with their ancestor.  The execution index records exactly
        # that set, so the subtree's live frames come from id lookups, not
        # a scan of the whole frame table.
        subtree_ids = set(self._executions_by_transaction.get(top_level_id, ()))
        subtree_ids.add(top_level_id)
        frames = self._frames
        subtree_frames = [
            frames[execution_id] for execution_id in subtree_ids if execution_id in frames
        ]

        self._aborted_executions.update(subtree_ids)
        if not session:
            self.metrics.note_abort(reason)
        self._record(ABORTED, top_level_id, detail=reason)

        info = top_frame.info if top_frame is not None else self._root_info(top_level_id, "")
        self.scheduler.on_transaction_abort(info, tuple(sorted(subtree_ids)))
        if self._certifier is not None:
            self._certifier.note_abort(top_level_id)
            self._builder.forget(subtree_ids)

        # Discard the attempt's frames (unhooking any parked ones) and undo
        # the attempt's effects on the object states.
        for frame in subtree_frames:
            if frame.status == _PARKED:
                self._clear_parking(frame)
            self._set_not_ready(frame, _DONE)
            self._frames.pop(frame.execution_id, None)
        wasted, stale = self._undo_states(top_level_id, subtree_ids)
        self.metrics.wasted_steps += wasted

        # The abort released the transaction's locks and undid its effects:
        # wake every frame parked on any execution of the subtree, then drop
        # the attempt's execution index (a restart gets fresh ids).
        self._drain_wakeups(subtree_ids)
        self._executions_by_transaction.pop(top_level_id, None)

        if session or (shard is not None and top_level_id in shard.cross):
            # Unregister the attempt and tell the coordinator, so every
            # other participant discards its share of this id.
            shard.cross.discard(top_level_id)
            shard.held.pop(top_level_id, None)
            for remote_id in [
                remote_id
                for remote_id, frame_id in shard.waiters.items()
                if frame_id in subtree_ids
            ]:
                del shard.waiters[remote_id]
            shard.notes.append(("aborted", top_level_id, reason))

        if not session:
            self._restart_or_give_up(top_frame, top_level_id, reason)
        self._note_finished_attempt()
        # The undo re-applied a survivor whose step no longer returns what
        # its transaction observed (UndoLog.undo): abort that transaction
        # before any other step can read the effect nobody scheduled.
        for victim in stale:
            if victim in self._executions_by_transaction:
                self._abort_transaction(
                    victim, f"cascading abort: undoing {top_level_id} changed a step it observed"
                )

    def _restart_or_give_up(self, top_frame: _Frame | None, top_level_id: str, reason: str) -> None:
        """Restart an aborted transaction if its spec allows, when its policy
        says (zero delay: this tick; else via the event heap), or give up."""
        spec = top_frame.spec if top_frame is not None else None
        attempt = top_frame.attempt if top_frame is not None else 1
        lineage = self._lineage_of.pop(top_level_id, None)
        if spec is not None and attempt <= self.max_restarts:
            if lineage is None:
                lineage = next(self._lineage_counter)
            delay = max(0, int(self.restart_policy.delay(lineage, attempt, reason)))
            if delay == 0:
                self.metrics.restarts += 1
                self._start_transaction(spec, attempt=attempt + 1, lineage=lineage)
            else:
                self.metrics.delayed_restarts += 1
                self.metrics.restart_delay_ticks += delay
                self._schedule(
                    self._tick + delay, _EVENT_RESTART, (spec, attempt + 1, lineage)
                )
                self._record(RESTART_SCHEDULED, top_level_id, detail=f"+{delay} ticks: {reason}")
        else:
            self.metrics.gave_up += 1
            if lineage is not None:
                self.restart_policy.on_finished(lineage)
                self._arrival_tick_of.pop(lineage, None)
            self._in_flight -= 1
            self._record(GAVE_UP, top_level_id, detail=reason)

    # -- live-state garbage collection -------------------------------------------

    def _note_finished_attempt(self) -> None:
        """Count a finished attempt towards the garbage-collection cadence."""
        self._finished_since_gc += 1
        if self._finished_since_gc >= self.gc_interval:
            self._collect_garbage()

    def _collect_garbage(self) -> None:
        """Prune live state nothing live can depend on, and sample the gauge.

        Three stores shrink: the scheduler's own records
        (:meth:`~repro.scheduler.base.Scheduler.collect_garbage` — commit
        gates are self-pruning; the certifier and NTO drop committed
        records no live or future transaction can conflict-order against),
        the undo log's committed prefixes, and — implicitly — the parked
        index, which only ever holds live frames.  The gauge sample taken
        afterwards is what bounds retained state to O(in-flight): the
        metrics keep its peak and its peak ratio to the in-flight count.
        """
        self._finished_since_gc = 0
        # Sample the gauge *before* pruning: the peak must reflect what was
        # actually retained between passes (a post-prune sample would hide
        # exactly the growth the gauge exists to expose).
        sample = (
            self.scheduler.live_state_size()
            + self._undo_log.total_steps()
            + self._parked_count
        )
        if self._certifier is not None:
            sample += self._certifier.live_state_size()
        self.metrics.note_live_state(sample, self._in_flight)
        self.scheduler.collect_garbage()
        self._undo_log.collect()
        if self._certifier is not None:
            self._certifier.collect_garbage()

    def _undo_states(self, top_level_id: str, subtree_ids: set[str]) -> tuple[int, list[str]]:
        """Undo the aborted subtree's steps (see :meth:`UndoLog.undo`)."""
        return self._undo_log.undo(top_level_id, subtree_ids, self._states)
