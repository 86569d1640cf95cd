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
  under a seeded RNG) and resolves exactly one request for it: a local
  operation (consulting the scheduler and, when granted, executing it
  against the object states), a message send (creating a child frame), or
  the completion of the frame.
* The engine is **event-driven**, with one blocking rule: a BLOCK names
  at least one live blocker, and the frame *parks* on the live ones —
  removed from the runnable set, keyed by those identifiers — until a
  wake-up fires for one of them: the blocker commits, aborts, or
  transfers its locks (rule 5 inheritance).  The scheduler asks the
  run's waits-for relation for that BLOCK first, and a park that closes
  a cycle aborts the requester instead.  A parked frame never
  re-issues its request in between, so the makespan and the blocking
  metrics measure contention, not polling.  A commit request may block
  too (optimistic schedulers wait for read-from dependencies); the frame
  then parks at its commit point.  A BLOCK that names no live blocker is
  a scheduler bug and raises :class:`SimulationError`; so does a run
  whose every frame is parked with no frame ready and no event due — a
  wait nobody can end (an undetected deadlock).  The error names the
  scheduler and each parked frame with its blockers.
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
  fast-forwards the clock to the heap's next due tick.  The
  transaction's *lineage* (its original submission index) is preserved
  across attempts so seniority-based policies (``ordered``) can privilege
  old transactions.

Hot loop
--------

Choosing the next runnable frame is one seeded draw into a *ready list*
of frames kept sorted by creation sequence at every status transition —
the order a per-tick scan of the frame table observes, so decisions (and
RNG draws) are bit-identical to the scan in ``tests/oracles/engines.py``
that the property tests hold this loop against.  A decision allocates only
what it records: immutable tuple records, one ``LocalStep`` per granted
step, frame containers on first use, trace events only when asked for.

The recorded history contains the steps of aborted attempts as well; the
:class:`~repro.simulation.metrics.RunResult` exposes the committed
projection, which is what serialisability certification operates on.
Only a run that must return a whole history keeps one (``certify=False``);
any other run forgets each transaction as it settles, keeping only
in-flight records (and no history).
"""

from __future__ import annotations

import heapq
import itertools
import random
from bisect import bisect_left, insort
from operator import attrgetter
from types import GeneratorType
from typing import Any

from ..core.errors import SimulationError
from ..core.history import HistoryBuilder
from ..core.operations import LocalStep
from ..core.state import ObjectState, UndoLog
from ..core.waits import WaitsFor
from ..objectbase.base import ObjectBase
from ..scheduler.base import STEP_LEVEL, Decision, ExecutionInfo, OperationRequest, Scheduler
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

_GRANT, _BLOCK = Decision.GRANT, Decision.BLOCK
_COMMIT = "commit"  # the pending request of a top level parked at its commit
_SEQ = attrgetter("seq")  # the ready list's sort key

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


class _Frame:
    """One method execution in progress; containers are made on first use.

    ``inbox``: what the next ``send`` delivers (a finished top level's commit
    value).  ``pending``: the request to re-issue when the frame next runs
    (a parked LocalRequest, or ``_COMMIT``).  ``waiting_on``: the keys a
    WAITING frame awaits (a set for a parallel request, whose ``parallel``
    dict gathers results in order).  ``spec``, ``attempt``: a top level's.
    ``seq``: the ready list's sort key."""

    __slots__ = (
        "info", "execution_id", "execution", "generator", "status", "inbox", "pending",
        "parent", "waiting_on", "parallel", "spec", "attempt", "parked_on", "parked_since",
        "seq",
    )  # fmt: skip

    def __init__(
        self, info: ExecutionInfo, execution: Any, seq: int, parent: "_Frame | None" = None,
        *, spec: TransactionSpec | None = None, attempt: int = 1, status: str = _READY,
    ):  # fmt: skip
        self.info = info
        self.execution_id = info.execution_id
        self.execution = execution  # the HistoryBuilder's MethodExecution
        self.status = status
        self.generator = self.inbox = self.pending = self.parallel = None
        self.parent = parent
        self.waiting_on = self.parked_on = ()
        self.spec = spec
        self.attempt = attempt
        self.parked_since = 0
        self.seq = seq


def _body_generator(body: Any):
    """A method body's generator; a plain body's return value is wrapped in
    one, so the frame completes with it on its first advance."""
    if type(body) is GeneratorType or (hasattr(body, "send") and hasattr(body, "throw")):
        return body
    return _returning(body)


def _returning(value: Any):
    return value
    yield  # pragma: no cover - makes this a generator function


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
        max_restarts: restart budget per transaction before it gives up.
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
        SimulationError: on an unknown ``certify`` value or a non-positive
            ``gc_interval``.
    """

    #: Messages for other engines.  A plain run sends none; a subclass that
    #: exchanges messages makes this a list, and :meth:`_run_until` returns
    #: after the decision that queues one.
    _outbox: list[tuple] | tuple = ()

    def __init__(
        self,
        object_base: ObjectBase,
        scheduler: Scheduler,
        *,
        seed: int = 0,
        max_restarts: int = 25,
        max_ticks: int = 2_000_000,
        record_trace: bool = False,
        gc_interval: int = 64,
        certify: bool | str = False,
        fault_plan: "FaultPlan | str | dict | None" = None,
    ):
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
        self.max_restarts = max_restarts
        self.max_ticks = max_ticks
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
        # The retention rule (module docstring); a subclass may clear it.
        self._keeps_history = self._certifier is None
        self._states: dict[str, ObjectState] = dict(object_base.initial_states())
        self._frames: dict[str, _Frame] = {}
        self._executions_by_transaction: dict[str, set[str]] = {}
        # The ready list: the READY frames sorted by creation sequence —
        # the same order a scan over the insertion-ordered frame table
        # produces, so the O(1) chooser sees the identical candidate
        # sequence.  Maintained by _set_ready/_set_not_ready at every
        # status transition (a new frame, the newest, is appended).
        self._frame_sequence = itertools.count()
        self._ready: list[_Frame] = []
        self._undo_log = UndoLog()
        self._aborted_executions: set[str] = set()
        self._committed: list[str] = []
        self._pending_specs: list[TransactionSpec] = []
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
        # The arrival feed (submit_scheduled), its last due read and
        # whether that arrival is on the heap.
        self._feed = iter(())
        self._last_arrival_tick = 0
        self._arrival_pending = False
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

        # Who waits on whom, over the live frames: the scheduler asks it at
        # every BLOCK (bound before attach builds any commit gate), the
        # engine clears, drops and parks (see repro.core.waits).
        self._waits = scheduler.waits = WaitsFor(self._frames)
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
        Successive streams are concatenated in time.

        Args:
            specs: the :class:`TransactionSpec` sequence (or iterator), in
                arrival order.
            arrival: an :class:`~repro.simulation.arrivals.ArrivalProcess`,
                a registry name (``"poisson"``, ``"bursty"``), or a
                ``{"name": ..., **kwargs}`` mapping.  The process is bound
                to (re-seeded from) the engine seed, so the schedule is a
                pure function of the configuration.

        Raises:
            SimulationError: when the engine already ran, or a spec names
                an unknown transaction method.
        """
        self.submit_scheduled(self._stream(specs, make_arrival_process(arrival)))

    def _stream(self, specs, process: ArrivalProcess):
        """``specs`` at ``process``'s ticks, after the last arrival read before them."""
        process.bind(self.seed)
        self._arrival_process = process
        ticks, start = process.ticks(), self._last_arrival_tick
        for spec in specs:
            yield start + next(ticks), spec

    def submit_scheduled(self, pairs) -> None:
        """Queue ``(arrival_tick, spec)`` pairs with pre-computed due ticks.

        The one arrival feed: one pending arrival sits on the event heap,
        and releasing it reads the next pair, so a stream holds only its
        input in flight.  Ticks must be non-decreasing, across calls too.

        Raises:
            SimulationError: when the engine already ran, or a spec names
                an unknown transaction method (each before it is admitted).
        """
        if self._finished:
            raise SimulationError("engine instances are single-use; create a new one")
        self._feed = itertools.chain(self._feed, pairs)
        if not self._arrival_pending:
            self._pull_arrival()

    def _pull_arrival(self) -> None:
        """Put the feed's next arrival, if any, on the event heap."""
        self._arrival_pending = False
        for due, spec in self._feed:
            if not isinstance(spec, TransactionSpec):
                spec = TransactionSpec(spec, ())
            self.object_base.environment.method(spec.method_name)  # validate early
            self._last_arrival_tick = due
            self._schedule(due, _EVENT_ARRIVAL, spec)
            self._arrival_pending = True
            return

    def run_stream(self, specs, arrival: "ArrivalProcess | str | dict" = "poisson") -> RunResult:
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
            history (aborted attempts included; ``None`` when the run kept
            only in-flight records, as under ``certify="stream"``), the
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
        """Close the run and build its result (:meth:`run`'s last step)."""
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
            # Without the retention rule every settled transaction was
            # forgotten: no whole history to build (RunResult.committed_history).
            history=self._builder.build() if self._keeps_history else None,
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

    def _run_until(self, horizon: int, catch_up: bool = False) -> int:
        """The hot loop, run until the clock reaches ``horizon``.

        A plain run is one call with ``max_ticks``.  A subclass's loop also
        returns after the first decision or event that queues a message in
        :attr:`_outbox`, and when the frames left wait on input from outside
        (:meth:`_awaits_input`); a ``catch_up`` run ignores the outbox and
        leaves the clock at ``horizon`` even when its work runs out first.
        Per decision this draws one index into the ready list, peeks at the
        heap head and advances the chosen frame by one request — no per-tick
        scans.  Returns the decisions made.
        """
        frames = self._frames
        events = self._events
        ready = self._ready
        outbox = () if catch_up else self._outbox
        getrandbits = self.rng.getrandbits
        decisions = 0
        tick = self._tick
        try:
            while (frames or events) and tick < horizon:
                if events and events[0][0] <= tick:
                    self._release_due_events()
                    if outbox:
                        break  # an injected fault aborted work another engine shares
                if ready:
                    # random.Random.choice(ready), inlined: the same
                    # getrandbits draws, so the same index and RNG state.
                    count = len(ready)
                    bits = count.bit_length()
                    index = getrandbits(bits)
                    while index >= count:
                        index = getrandbits(bits)
                    tick += 1
                    self._tick = tick
                    decisions += 1
                    self._advance(ready[index])
                    if outbox:
                        break  # a message is due: the exchange falls at this tick
                elif events:
                    # Nothing is runnable until the next event matures:
                    # fast-forward the clock to its due tick (the wait
                    # costs time, not scheduling decisions), clamped so a
                    # run never reports a makespan beyond its horizon.
                    tick = self._tick = min(events[0][0], horizon)
                elif frames:
                    if self._awaits_input():
                        break  # only a message from outside can move a frame
                    raise self._wedged()  # frames left, none ready, nothing due
            if catch_up and self._tick < horizon:
                self._tick = horizon
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
                self._pull_arrival()

    def _check_arrival_truncation(self) -> None:
        """Refuse to end a run that silently dropped arrivals.

        The tick cap may truncate restarts (the transaction arrived and its
        attempts are accounted), but an arrival still in the feed means the
        workload itself was cut, which is an error, not a result.
        """
        if self._tick < self.max_ticks or not self._arrival_pending:
            return
        dues = [self._last_arrival_tick, *(due for due, _ in self._feed)]
        raise SimulationError(
            f"run truncated at max_ticks={self.max_ticks} with {len(dues)} "
            "streamed arrival(s) still undelivered; raise max_ticks to cover "
            f"the arrival schedule (the last arrival is due at tick {dues[-1]})"
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

    def _set_ready(self, frame: _Frame) -> None:
        """Mark ``frame`` ready, keeping the list sorted by creation seq.

        A frame spawned now is the newest, so a spawn appends directly; a
        wake of an old frame pays one bisect insert.
        """
        if frame.status != _READY:
            frame.status = _READY
            ready = self._ready
            if ready and frame.seq < ready[-1].seq:
                insort(ready, frame, key=_SEQ)
            else:
                ready.append(frame)

    def _set_not_ready(self, frame: _Frame, status: str) -> None:
        if frame.status == _READY:
            ready = self._ready
            # Seqs are unique, so the bisect lands on the frame itself.
            del ready[bisect_left(ready, frame.seq, key=_SEQ)]
        frame.status = status

    # ------------------------------------------------------------------
    # parking and wake-ups
    # ------------------------------------------------------------------

    def _wait(self, frame: _Frame, object_name: str, reason: str, blockers) -> None:
        """A BLOCK answer to ``frame``'s operation or commit request.

        The frame keeps its request pending and parks on the live ones of
        the blockers the scheduler named: the keys a future wake-up can
        fire for are live executions and live top-level ids (the keys of
        the execution index, which an attempt's retirement drops in the
        same call).  Dead or unknown identifiers are dropped; a BLOCK with
        no live blocker left is a wait nobody can end, and raises.
        """
        if self._trace is not None:
            self._record(BLOCKED, frame.execution_id, object_name, reason)
        frames = self._frames
        live_transactions = self._executions_by_transaction
        keys = frozenset(key for key in blockers if key in frames or key in live_transactions)
        if not keys:
            raise SimulationError(
                f"{type(self.scheduler).__name__} blocked {frame.execution_id} at tick "
                f"{self._tick} on {sorted(blockers)}, no live blocker: a BLOCK must "
                "name a live execution or transaction to park on"
            )
        self._set_not_ready(frame, _PARKED)
        frame.parked_on = keys
        frame.parked_since = self._tick
        self._waits.park(frame.execution_id, keys)
        self.metrics.parks += 1
        if frame.pending is _COMMIT:
            self.metrics.commit_parks += 1

    def _clear_parking(self, frame: _Frame) -> None:
        """Remove the frame from the park index and account its wait time."""
        self._waits.park(frame.execution_id, frame.parked_on, step=-1)
        elapsed = self._tick - frame.parked_since
        self.metrics.wait_ticks += elapsed
        if frame.pending is _COMMIT:
            self.metrics.commit_wait_ticks += elapsed
        else:
            self.metrics.blocked_ticks += elapsed
        frame.parked_on = ()

    def _wake_frame(self, frame_id: str, detail: str) -> None:
        frame = self._frames.get(frame_id)
        if frame is None or frame.status != _PARKED:
            return
        self._clear_parking(frame)
        self._set_ready(frame)
        self.metrics.wakes += 1
        if self._trace is not None:
            self._record(WOKEN, frame.execution_id, detail=detail)

    def _drain_wakeups(self, extra_keys=()) -> None:
        """Wake every frame parked on a freed blocker identifier.

        Combines the scheduler's accumulated wake set (lock releases and
        transfers) with the engine's own keys (transaction ends).
        """
        pending = self.scheduler.drain_wakeups()
        parked_by_key = self._waits.parked
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

    def _awaits_input(self) -> bool:
        """Whether frames that cannot move wait on input from outside the run.

        Asked when no frame is ready and no event is due; a plain run has no
        outside, so its answer is no and the run is wedged.
        """
        return False

    def _wedged(self) -> SimulationError:
        """The error for a run with frames left, none ready and no event due."""
        parked = "; ".join(
            f"{frame.execution_id} on {', '.join(sorted(frame.parked_on))}"
            for frame in self._frames.values()
            if frame.status == _PARKED
        )
        return SimulationError(
            f"run wedged at tick {self._tick} under {type(self.scheduler).__name__}: "
            f"no frame is ready and no event is due; parked: {parked or 'none'}"
        )

    # ------------------------------------------------------------------
    # frame management
    # ------------------------------------------------------------------

    def _record(self, kind: str, execution_id: str, object_name: str = "", detail: str = "") -> None:
        """Append a trace event; callers test ``self._trace`` first."""
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
        """Begin a top-level execution: a transaction attempt, or a root a subclass opens.

        Records it in the history (``execution_id=None`` takes the
        builder's next id), registers its frame and execution index, and
        announces it to the scheduler.  A READY frame joins the ready list.
        """
        execution = self._builder.begin_top_level(method_name, execution_id)
        info = self._root_info(execution.execution_id, method_name)
        frame = _Frame(info, execution, next(self._frame_sequence), **frame_fields)
        self._frames[frame.execution_id] = frame
        if frame.status == _READY:
            self._ready.append(frame)  # the newest frame sorts last
        self._executions_by_transaction[frame.execution_id] = {frame.execution_id}
        self.scheduler.on_transaction_begin(info)
        return frame

    def _start_transaction(self, spec: TransactionSpec, attempt: int, lineage: int) -> _Frame:
        definition = self.object_base.environment.method(spec.method_name)
        frame = self._open_root(spec.method_name, None, spec=spec, attempt=attempt)
        info = frame.info
        context = MethodContext(info.object_name, info.execution_id, spec.method_name)
        frame.generator = _body_generator(definition.body(context, *spec.arguments))
        self._lineage_of[info.execution_id] = lineage
        if attempt == 1:
            self.restart_policy.on_submit(lineage)
        if self._certifier is not None:
            self._certifier.note_begin(info.execution_id, self._builder.clock)
        if self._trace is not None:
            self._record(
                BEGIN if attempt == 1 else RESTARTED, info.execution_id, detail=spec.label
            )
        return frame

    def _spawn_child(self, parent: _Frame, invocation: InvokeRequest, after) -> _Frame:
        object_name, method_name, arguments = invocation
        definition = self.object_base.method(object_name, method_name)
        execution = self._builder.invoke(
            parent.execution, object_name, method_name, arguments, after
        )
        execution_id = execution.execution_id
        parent_id = parent.execution_id
        parent_info = parent.info
        info = ExecutionInfo(
            execution_id,
            object_name,
            method_name,
            parent_id,
            (parent_id,) + parent_info.ancestor_ids,
            parent_info.top_level_id,
        )
        child = _Frame(info, execution, next(self._frame_sequence), parent)
        context = MethodContext(object_name, execution_id, method_name)
        child.generator = _body_generator(definition.body(context, *arguments))
        self._frames[execution_id] = child
        self._ready.append(child)  # the newest frame sorts last
        self._executions_by_transaction[parent_info.top_level_id].add(execution_id)
        self.scheduler.on_invoke(parent_info, info)
        self.metrics.invocations += 1
        if self._trace is not None:
            self._record(INVOKE, execution_id, object_name, method_name)
        return child

    # ------------------------------------------------------------------
    # advancing a frame by one request
    # ------------------------------------------------------------------

    def _advance(self, frame: _Frame) -> None:
        """Resolve one request of the (READY) frame the loop chose."""
        pending = frame.pending
        if pending is not None:
            frame.pending = None
            if pending is _COMMIT:
                self._complete_top_level(frame, frame.inbox)
            else:
                self._resolve_local(frame, pending)
            return
        try:
            request = frame.generator.send(frame.inbox)
        except StopIteration as stop:
            self._complete_frame(frame, stop.value)
            return
        except Exception as error:  # a bug in a transaction programme
            raise SimulationError(
                f"transaction programme {frame.info.method_name!r} raised {error!r}"
            ) from error
        if isinstance(request, LocalRequest):
            self._resolve_local(frame, request)
            return
        if isinstance(request, InvokeRequest):
            frame.waiting_on = (self._dispatch(frame, request, None),)
        elif isinstance(request, ParallelRequest):
            after = frame.execution.maximal_step_ids()  # each branch follows every step so far
            awaited = [
                self._dispatch(frame, invocation, after) for invocation in request.invocations
            ]
            frame.waiting_on = set(awaited)
            frame.parallel = dict.fromkeys(awaited)
        else:
            raise SimulationError(
                f"method {frame.info.method_name!r} yielded an unknown request: {request!r}"
            )
        self._set_not_ready(frame, _WAITING)

    def _dispatch(self, frame: _Frame, invocation: InvokeRequest, after) -> str:
        """Start one invocation; returns the id whose result ``frame`` awaits.

        Here a child's execution id; an override that sends the invocation
        elsewhere returns the id of its message.
        """
        return self._spawn_child(frame, invocation, after).execution_id

    def _deliver(self, frame: _Frame, key: str, value: Any) -> bool:
        """Hand ``frame`` the result it awaited under ``key``.

        ``key`` is what :meth:`_dispatch` returned: a child execution id, or
        a message id.  A
        parallel request gathers its results in ``parallel``, in request
        order.  Returns whether nothing is awaited any more: the caller
        then makes the frame ready.
        """
        parallel = frame.parallel
        if parallel is None:
            frame.waiting_on = ()
            frame.inbox = value
            return True
        frame.waiting_on.discard(key)
        parallel[key] = value
        if frame.waiting_on:
            return False
        frame.inbox = list(parallel.values())
        frame.waiting_on = ()
        frame.parallel = None
        return True

    # -- local operations ---------------------------------------------------------

    def _resolve_local(self, frame: _Frame, request: LocalRequest) -> None:
        info = frame.info
        object_name = info.object_name
        operation = request.operation
        pre_state = self._states.get(object_name, _EMPTY_STATE)
        # One application serves the step the scheduler inspects and, when
        # granted, records: operations are pure functions of the state, which
        # the scheduler cannot change, so re-applying would recompute it.
        value, new_state = operation.apply(pre_state)
        step = LocalStep(frame.execution_id, object_name, operation, value)
        operation_request = OperationRequest(info, object_name, operation, step)
        response = self.scheduler.on_operation(operation_request)
        decision = response.decision
        if decision is not _GRANT:
            if decision is _BLOCK:
                frame.pending = request
                self._wait(frame, object_name, response.reason, response.blockers)
            else:
                self._abort_transaction(info.top_level_id, response.reason)
            return

        # Granted: commit the already-computed transition and record the step.
        self._waits.clear(frame.execution_id)
        self._states[object_name] = new_state
        self._builder.record_local(frame.execution, step)
        self._undo_log.record(
            object_name, frame.execution_id, info.top_level_id, operation, pre_state, value
        )
        self.metrics.local_steps += 1
        self.scheduler.on_operation_executed(operation_request, value)
        self._note_step(info, step)
        if self._trace is not None:
            self._record(GRANTED, frame.execution_id, object_name, operation.name)
        frame.inbox = value

    def _note_step(self, info: ExecutionInfo, step: LocalStep) -> None:
        """Observe a granted step once the scheduler has (a no-op here)."""

    # -- completion -----------------------------------------------------------------

    def _complete_frame(self, frame: _Frame, return_value: Any) -> None:
        parent = frame.parent
        if parent is None:
            self._set_not_ready(frame, _DONE)
            self._complete_top_level(frame, return_value)
            return
        # The child leaves the ready list and its parent may join it: one slot
        # write does both when no ready frame sorts between them.
        ready = self._ready
        index = bisect_left(ready, frame.seq, key=_SEQ)
        frame.status = _DONE
        self._builder.finish(frame.execution, return_value)
        self.scheduler.on_execution_complete(frame.info)
        if self._trace is not None:
            self._record(COMPLETED, frame.execution_id, frame.info.object_name)
        if not self._deliver_to_parent(frame, return_value):
            del ready[index]
        elif index and ready[index - 1].seq > parent.seq:
            del ready[index]
            self._set_ready(parent)
        else:
            parent.status = _READY
            ready[index] = parent
        del self._frames[frame.execution_id]
        # Completion may have transferred the child's locks to its parent
        # (rule 5); waiters blocked on the child must re-examine their
        # conflicts against the inheriting ancestor.
        self._drain_wakeups()

    def _deliver_to_parent(self, child: _Frame, return_value: Any) -> bool:
        """Route a completed child's result; True when its parent may run."""
        parent = child.parent
        return parent.status == _WAITING and self._deliver(
            parent, child.execution_id, return_value
        )

    def _complete_top_level(self, frame: _Frame, return_value: Any) -> None:
        response = self.scheduler.on_commit_request(frame.info)
        decision = response.decision
        if decision is _GRANT:
            self._finalise_commit(frame, return_value)
        elif decision is _BLOCK:
            # The scheduler defers the commit (e.g. until the transactions
            # whose effects this one observed have resolved); park at the
            # commit point and retry on wake-up.
            frame.pending = _COMMIT
            frame.inbox = return_value
            self._wait(frame, "", response.reason or "commit deferred", response.blockers)
        else:
            self._abort_transaction(frame.info.top_level_id, response.reason or "commit vetoed")

    def _finalise_commit(self, frame: _Frame, return_value: Any) -> None:
        """Apply a granted commit.

        Every attempt :meth:`_start_transaction` begins has a lineage.  A
        root without one stands in for a transaction whose lineage lives
        elsewhere (a subclass opens it): its share commits through this same
        path, but the commit count, latency, in-flight and restart-policy
        bookkeeping (and online certification) belong to the lineage.
        """
        transaction_id = frame.execution_id
        lineage = self._lineage_of.pop(transaction_id, None)
        self.scheduler.on_transaction_commit(frame.info)
        self._waits.end(transaction_id)
        self._committed.append(transaction_id)
        if self._trace is not None:
            self._record(COMMITTED, transaction_id, detail=str(return_value))
        # Re-entered commits (pending commit retries) arrive here _READY.
        self._set_not_ready(frame, _DONE)
        del self._frames[transaction_id]
        self._undo_log.forget_transaction(transaction_id)
        # A committed transaction can never abort: drop its execution index
        # (which lists the root too), and the builder's records unless kept.
        subtree_ids = self._executions_by_transaction.pop(transaction_id)
        if not self._keeps_history:
            subtree, intervals = self._builder.forget(sorted(subtree_ids))
            if self._certifier is not None and lineage is not None:
                self._certifier.note_commit(
                    transaction_id, subtree, intervals, resolve_stamp=self._builder.clock
                )
        if lineage is not None:
            self.metrics.committed += 1
            self.metrics.note_latency(self._tick - self._end_lineage(lineage))
        # The commit released the transaction's locks (and resolved any
        # read-from dependencies on it): wake its waiters.
        self._drain_wakeups(subtree_ids)
        self._note_finished_attempt()

    # -- fault injection -------------------------------------------------------------

    def _inject_fault(self, due: int) -> None:
        """Fire one fault-plan crash: kill a live top-level transaction.

        The victim dies through the ordinary abort path — undo, scheduler
        release, cascade exposure, restart policy — so an injected crash
        is indistinguishable from a scheduler-initiated abort downstream.
        Only transactions with a lineage here are victims (see
        :meth:`_finalise_commit`); with none the fault passes without effect.
        A periodic plan re-arms itself here for as long as any work
        (frames or queued events) remains, so an idle tail never spins on
        fault events alone.
        """
        plan = self._fault_plan
        lineage_of = self._lineage_of
        candidates = sorted(
            (
                transaction_id
                for transaction_id in self._executions_by_transaction
                if transaction_id in lineage_of
            ),
            key=lambda transaction_id: (lineage_of[transaction_id], transaction_id),
        )
        victim = plan.choose_victim(candidates)
        if victim is not None:
            self.metrics.faults_injected += 1
            if self._trace is not None:
                self._record(FAULT_INJECTED, victim, detail=f"crash injected at tick {due}")
            self._abort_transaction(victim, "fault: injected crash")
        next_due = plan.next_after(due)
        if next_due is not None and (self._frames or self._events):
            self._schedule(next_due, _EVENT_FAULT)

    # -- aborts ----------------------------------------------------------------------

    def _abort_transaction(self, top_level_id: str, reason: str) -> None:
        # A root without a lineage (see _finalise_commit) aborts through this
        # same path: its subtree is discarded and its effects undone (the
        # wasted steps physically ran here), but the attempt and reason
        # counts, restart and give-up belong to the lineage.
        home = top_level_id in self._lineage_of
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
        if home:
            self.metrics.note_abort(reason)
        if self._trace is not None:
            self._record(ABORTED, top_level_id, detail=reason)

        info = top_frame.info if top_frame is not None else self._root_info(top_level_id, "")
        self.scheduler.on_transaction_abort(info, tuple(sorted(subtree_ids)))
        self._waits.end(top_level_id)
        if self._certifier is not None:
            self._certifier.note_abort(top_level_id)
        if not self._keeps_history:
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

        if home:
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
        lineage = self._lineage_of.pop(top_level_id)
        if spec is not None and attempt <= self.max_restarts:
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
                if self._trace is not None:
                    self._record(
                        RESTART_SCHEDULED, top_level_id, detail=f"+{delay} ticks: {reason}"
                    )
        else:
            self.metrics.gave_up += 1
            self._end_lineage(lineage)
            if self._trace is not None:
                self._record(GAVE_UP, top_level_id, detail=reason)

    def _end_lineage(self, lineage: int) -> int:
        """A lineage leaves (committed or gave up); returns its arrival tick."""
        self.restart_policy.on_finished(lineage)
        self._in_flight -= 1
        return self._arrival_tick_of.pop(lineage, 0)

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
            + self._waits.parked_count
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
