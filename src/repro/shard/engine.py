"""Sharded execution: one engine per shard, coordinated at tick barriers.

The :class:`ShardedEngine` partitions the object space with a
:class:`~repro.shard.map.ShardMap` and runs one complete
:class:`~repro.simulation.engine.SimulationEngine` — scheduler, undo
log, history builder and all — per shard.  Shards advance in lock-step
*tick rounds*: every round the driver ships the coordinator's directives
to each shard, each shard runs its event loop up to the shared horizon,
and the barrier collects outgoing messages (remote invocations, results)
and lifecycle notes (prepared, aborted) into an
:class:`~repro.shard.coordinator.InterShardCoordinator` that decides the
next round's directives.  A barrier with an open commit ballot first
has each shard apply the directives and vote (:meth:`ShardWorker.vote`);
the coordinator's decisions are then the directives of the round.

Determinism is the design's spine, not a feature flag:

* all cross-shard interaction happens at barriers, in shard-index order,
  over plain data tuples — nothing about scheduling within a round can
  reorder it;
* the *same* :class:`ShardWorker` class executes the round protocol in
  both transports.  ``inprocess`` calls it directly (the oracle);
  ``multiprocess`` runs it behind a pipe in a worker process.  Both see
  byte-equal payloads (spec and map as canonical JSON dicts) and the
  identical directive streams, so their results are structurally
  bit-identical — asserted by ``tests/shard/`` on every run;
* with one shard there is no cross state at all: the round loop chunks
  the plain event loop by horizon without perturbing the tick, RNG or
  decision sequence, so ``shards=1`` reproduces the unsharded engine bit
  for bit (also asserted).

Workers are spawn-safe the same way the sweep runner's are: a worker
receives only picklable plain data (the scenario spec and shard map as
JSON dicts) and constructs every live object in-worker.  Each worker
rebuilds the *full* workload and recomputes the *full* arrival schedule
(both pure functions of the spec), then keeps only the transactions
whose home is its shard — no generator state ever crosses a process
boundary, and every worker agrees on every transaction's home without
communicating.
"""

from __future__ import annotations

import inspect
import multiprocessing
import traceback
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..analysis import certify_run
from ..core.errors import SimulationError
from ..simulation import SimulationEngine
from ..simulation.metrics import RunMetrics, merge_run_metrics
from ..simulation.transactions import TransactionSpec
from ..sweep.runner import build_unsubmitted_engine
from ..sweep.spec import ScenarioSpec
from .coordinator import InterShardCoordinator, ShardReport, ShardStepTracker
from .map import ShardMap

__all__ = [
    "ShardWorker",
    "ShardOutcome",
    "ShardedRunResult",
    "ShardedEngine",
    "DEFAULT_ROUND_TICKS",
]

#: Barrier spacing in ticks.  Larger rounds amortise barrier overhead;
#: smaller rounds deliver cross-shard messages sooner.  Results are a
#: pure function of (spec, map, round_ticks, mode-independent): both
#: transports are bit-identical at any value, but the value itself is
#: part of the deterministic configuration — round batching shapes the
#: coordinator's registration order, which victim selection ties break
#: on.
DEFAULT_ROUND_TICKS = 64

#: Consecutive zero-progress rounds tolerated before the driver asks the
#: coordinator to sacrifice a transaction.  A deferred commit vote often
#: clears itself within a round or two (the gate was waiting on local
#: state); only a *sustained* quiet spell is a distributed stall.
STALL_PATIENCE_ROUNDS = 3

_DEFAULT_MAX_TICKS: int = inspect.signature(SimulationEngine.__init__).parameters[
    "max_ticks"
].default


def _build_payloads(
    spec: ScenarioSpec,
    shard_map: ShardMap,
    *,
    certify: bool | str,
    check_legality: bool,
) -> list[dict[str, Any]]:
    """One plain-data construction recipe per shard (JSON/picklable only)."""
    spec_data = spec.to_json_dict()
    map_data = shard_map.to_json_dict()
    return [
        {
            "spec": spec_data,
            "map": map_data,
            "index": index,
            "certify": certify,
            "check_legality": check_legality,
        }
        for index in range(shard_map.shards)
    ]


class ShardWorker:
    """One shard's engine plus its side of the round protocol.

    Identical in both transports — the in-process oracle calls these
    methods directly, the multiprocess transport calls them through
    :func:`_shard_worker_main` behind a pipe.
    """

    def __init__(self, payload: Mapping[str, Any]):
        spec = ScenarioSpec.from_json_dict(payload["spec"])
        shard_map = ShardMap.from_json_dict(payload["map"])
        index = int(payload["index"])
        engine, workload, transaction_specs = build_unsubmitted_engine(spec)
        object_base = engine.object_base
        names = frozenset(object_base.object_names())
        tracker = ShardStepTracker(object_base.conflicts("step"))
        self._certify = bool(payload.get("certify", False))
        engine.bind_shard_runtime(
            index=index,
            count=shard_map.shards,
            owns=lambda object_name: shard_map.shard_of(object_name) == index,
            classify=lambda txn_spec: shard_map.is_cross(txn_spec, names),
            tracker=tracker,
            # Only a worker that certifies post hoc reads the shard's history.
            keep_history=self._certify,
        )
        specs = [
            entry if isinstance(entry, TransactionSpec) else TransactionSpec(entry, ())
            for entry in transaction_specs
        ]
        # Recompute the full deterministic arrival schedule, then keep only
        # the transactions homed here.  Dropped pairs keep their ticks: the
        # schedule is the global one, filtered — not a per-shard re-deal.
        arrival_factory = getattr(workload, "arrival_process", None)
        if arrival_factory is not None:
            process = arrival_factory()
            process.bind(engine.seed)
            pairs = list(zip(process.schedule(len(specs)), specs))
            engine.submit_scheduled(
                [
                    (tick, txn_spec)
                    for tick, txn_spec in pairs
                    if shard_map.home_of(txn_spec, names) == index
                ]
            )
        else:
            engine.submit_all(
                [
                    txn_spec
                    for txn_spec in specs
                    if shard_map.home_of(txn_spec, names) == index
                ]
            )
        engine.begin_shard_run()
        self.index = index
        self.engine = engine
        self.tracker = tracker
        self._check_legality = bool(payload.get("check_legality", False))
        owned = {name for name in names if shard_map.shard_of(name) == index}
        if index == 0:
            # The environment object exists on every shard (transaction
            # bodies run there); shard 0 reports its state so the merged
            # final-states view matches the plain engine's key set.
            owned.add(object_base.environment.name)
        self._owned = frozenset(owned)

    def _apply(self, directives: list[tuple]) -> None:
        for directive in directives:
            if directive[0] in ("forget", "abort"):
                # Aborted work constrains nobody, and a forgotten (GC'd)
                # transaction's steps no longer matter to any precedence check.
                self.tracker.forget(directive[1])
        self.engine.apply_shard_directives(
            [directive for directive in directives if directive[0] != "forget"]
        )

    def vote(self, directives: list[tuple], gids: list[str]) -> list[tuple[str, str, str]]:
        """Apply the barrier's directives, then vote ``(gid, verdict, reason)`` on each gid."""
        self._apply(directives)
        return [(gid, *self.engine.commit_vote(gid)) for gid in gids]

    def round(self, directives: list[tuple], horizon: int) -> ShardReport:
        """Apply one round of directives, advance to ``horizon``, report."""
        engine = self.engine
        self._apply(directives)
        decisions = engine.run_shard_round(horizon)
        notes = engine.drain_shard_notes()
        for note in notes:
            if note[0] == "aborted":
                self.tracker.forget(note[1])
        return ShardReport(
            index=self.index,
            decisions=decisions,
            tick=engine._tick,
            busy=engine.shard_pending(),
            messages=engine.drain_shard_outbox(),
            notes=notes,
            edges=self.tracker.drain_edges(),
        )

    def finalize(self) -> dict[str, Any]:
        """Close the run and flatten it to plain picklable :class:`ShardOutcome` fields."""
        result = self.engine.finalize_shard()
        payload: dict[str, Any] = {
            "index": self.index,
            "metrics": result.metrics,
            "scheduler_description": result.scheduler_description,
            "committed": tuple(result.committed_transaction_ids),
            "aborted": tuple(sorted(result.aborted_execution_ids)),
            "final_states": {
                name: dict(state)
                for name, state in result.final_states().items()
                if name in self._owned
            },
            "tracker_live_records": self.tracker.live_records(),
            "serialisable": None,
            "legal": None,
        }
        if self._certify:
            report = certify_run(result, check_legality=self._check_legality)
            payload["serialisable"] = bool(report.serialisable)
            if self._check_legality:
                payload["legal"] = bool(report.legal)
        return payload


class _WorkerFailure:
    """Picklable carrier for an exception raised inside a shard process."""

    def __init__(self, message: str, details: str):
        self.message = message
        self.details = details


def _shard_worker_main(conn, payload: Mapping[str, Any]) -> None:
    """Entry point of a shard worker process (top-level: spawn-picklable)."""
    try:
        worker = ShardWorker(payload)
        while True:
            command, *arguments = conn.recv()
            if command == "stop":
                break
            conn.send(getattr(worker, command)(*arguments))
    except EOFError:  # pragma: no cover - parent died; exit quietly
        pass
    except BaseException as error:  # noqa: BLE001 - relay to the driver
        try:
            conn.send(_WorkerFailure(repr(error), traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        conn.close()


class _LocalTransport:
    """The in-process oracle: workers live in the driver's interpreter."""

    def __init__(self, payloads: list[dict[str, Any]]):
        self._workers = [ShardWorker(payload) for payload in payloads]

    def exchange(self, command: str, arguments: list[tuple]) -> list[Any]:
        """Call ``command`` on every worker with its arguments, in shard order."""
        return [getattr(worker, command)(*args) for worker, args in zip(self._workers, arguments)]

    def close(self) -> None:
        pass


class _ProcessTransport:
    """One persistent worker process per shard, driven over pipes.

    Sends every shard its directives before collecting any report, so
    rounds execute in parallel across cores; the barrier is the recv
    loop.  Reports are collected in shard-index order regardless of
    completion order — the coordinator never observes scheduling noise.
    """

    def __init__(self, payloads: list[dict[str, Any]], mp_context: str):
        context = multiprocessing.get_context(mp_context)
        self._processes = []
        self._pipes = []
        try:
            for payload in payloads:
                parent_end, child_end = context.Pipe()
                process = context.Process(
                    target=_shard_worker_main, args=(child_end, payload), daemon=True
                )
                process.start()
                child_end.close()
                self._processes.append(process)
                self._pipes.append(parent_end)
        except BaseException:
            self.close()
            raise

    def exchange(self, command: str, arguments: list[tuple]) -> list[Any]:
        """Send ``command`` to every worker, then collect the replies in shard order.

        A worker that died or relayed an exception raises a
        :class:`SimulationError` naming the shard, never a bare pipe error.
        """
        for index, args in enumerate(arguments):
            try:
                self._pipes[index].send((command, *args))
            except OSError as error:
                raise self._died(index, command) from error
        replies = []
        for index, pipe in enumerate(self._pipes):
            try:
                reply = pipe.recv()
            except (EOFError, OSError) as error:
                raise self._died(index, command) from error
            if isinstance(reply, _WorkerFailure):
                raise SimulationError(
                    f"shard {index} worker failed during {command}: "
                    f"{reply.message}\n{reply.details}"
                )
            replies.append(reply)
        return replies

    def _died(self, index: int, command: str) -> SimulationError:
        process = self._processes[index]
        process.join(timeout=5)
        return SimulationError(
            f"shard {index} worker died (exit code {process.exitcode}) during {command}"
        )

    def close(self) -> None:
        for pipe in self._pipes:
            try:
                pipe.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            pipe.close()
        for process in self._processes:
            process.join(timeout=30)
            if process.is_alive():  # pragma: no cover - hung worker guard
                process.terminate()
                process.join(timeout=5)


@dataclass(frozen=True)
class ShardOutcome:
    """One shard's flattened run outcome (identical across transports)."""

    index: int
    metrics: RunMetrics
    scheduler_description: dict[str, Any]
    committed: tuple[str, ...]
    aborted: tuple[str, ...]
    final_states: dict[str, dict[str, Any]]
    tracker_live_records: int
    serialisable: bool | None
    legal: bool | None


@dataclass(frozen=True)
class ShardedRunResult:
    """The fleet's merged outcome plus every per-shard projection."""

    shards: tuple[ShardOutcome, ...]
    metrics: RunMetrics
    coordinator: dict[str, Any]
    mode: str
    rounds: int
    shard_map: ShardMap

    @property
    def committed_transaction_ids(self) -> tuple[str, ...]:
        """Home-side commits, in shard order (each gid exactly once).

        Owner-side session commits repeat the home gid in that shard's own
        ``committed`` tuple; the merged view keeps the home entry only.
        """
        seen: set[str] = set()
        merged: list[str] = []
        for outcome in self.shards:
            for gid in outcome.committed:
                if gid not in seen:
                    seen.add(gid)
                    merged.append(gid)
        return tuple(merged)

    def final_states(self) -> dict[str, dict[str, Any]]:
        """Final object states, merged across shards (ownership-disjoint)."""
        states: dict[str, dict[str, Any]] = {}
        for outcome in self.shards:
            states.update(outcome.final_states)
        return states

    @property
    def serialisable(self) -> bool | None:
        """Conjunction of the per-shard certification verdicts.

        Not a global verdict: a cycle through two shards passes every
        shard's certificate (DESIGN.md, sharded limitation (i)).
        """
        verdicts = [outcome.serialisable for outcome in self.shards]
        if any(verdict is None for verdict in verdicts):
            return None
        return all(verdicts)

    @property
    def legal(self) -> bool | None:
        verdicts = [outcome.legal for outcome in self.shards]
        if any(verdict is None for verdict in verdicts):
            return None
        return all(verdicts)

    def scheduler_description(self) -> dict[str, Any]:
        description = dict(self.shards[0].scheduler_description)
        description["shards"] = len(self.shards)
        description["inter_shard"] = dict(self.coordinator)
        return description


class ShardedEngine:
    """Drive a fleet of per-shard engines to a deterministic joint result."""

    def __init__(
        self,
        spec: ScenarioSpec,
        shard_map: ShardMap | None = None,
        *,
        mode: str | None = None,
        round_ticks: int = DEFAULT_ROUND_TICKS,
        mp_context: str | None = None,
        certify: bool | None = None,
        check_legality: bool | None = None,
    ):
        """Args:
            spec: the scenario to run (its ``shards`` / ``shard_mode``
                fields provide defaults for ``shard_map`` and ``mode``).
            shard_map: explicit partition; defaults to the CRC-32 map over
                ``spec.shards`` shards.
            mode: ``"inprocess"`` (oracle) or ``"multiprocess"``.
            round_ticks: barrier spacing; part of the deterministic
                configuration (see :data:`DEFAULT_ROUND_TICKS`).
            mp_context: multiprocessing start method for multiprocess mode
                (``spawn`` default, as in the sweep runner; tests may pick
                ``fork`` for speed).
            certify: post-hoc certify each shard's committed projection in
                the worker; defaults to ``bool(spec.certify)``.
            check_legality: also replay-check legality when certifying;
                defaults to ``spec.check_legality``.
        """
        if shard_map is None:
            shard_map = ShardMap(shards=getattr(spec, "shards", 1))
        if mode is None:
            mode = getattr(spec, "shard_mode", "inprocess")
        if mode not in ("inprocess", "multiprocess"):
            raise SimulationError(f"unknown shard mode {mode!r}")
        if spec.certify == "stream":
            raise SimulationError(
                "sharded runs certify per shard post-hoc; certify='stream' "
                "is the single-engine online path"
            )
        if round_ticks < 1:
            raise SimulationError(f"round_ticks must be >= 1, got {round_ticks}")
        if certify is None:
            certify = bool(spec.certify)
        if check_legality is None:
            check_legality = spec.check_legality
        self.spec = spec
        self.shard_map = shard_map
        self.mode = mode
        self.round_ticks = round_ticks
        self.mp_context = mp_context or "spawn"
        self.certify = certify
        self.check_legality = check_legality
        self._finished = False

    def run(self) -> ShardedRunResult:
        """Run the fleet to completion (single-use, like the plain engine)."""
        if self._finished:
            raise SimulationError("engine instances are single-use; create a new one")
        self._finished = True
        payloads = _build_payloads(
            self.spec,
            self.shard_map,
            certify=self.certify,
            check_legality=self.check_legality,
        )
        if self.mode == "multiprocess":
            transport = _ProcessTransport(payloads, self.mp_context)
        else:
            transport = _LocalTransport(payloads)
        coordinator = InterShardCoordinator(self.shard_map)
        max_ticks = int(self.spec.engine_params.get("max_ticks", _DEFAULT_MAX_TICKS))
        try:
            directives: list[list[tuple]] = [[] for _ in range(self.shard_map.shards)]
            horizon = 0
            rounds = 0
            stalls = 0
            while True:
                horizon = min(horizon + self.round_ticks, max_ticks)
                reports = transport.exchange(
                    "round", [(entries, horizon) for entries in directives]
                )
                rounds += 1
                directives, progress = coordinator.process_round(reports)
                substantive = any(directives)
                polls = coordinator.polls()
                if any(polls):
                    # Apply, then ballot, then decide, then run: no tick
                    # passes between a vote and the decision it settles.
                    answers = transport.exchange("vote", list(zip(directives, polls)))
                    directives = coordinator.settle(answers)
                    substantive = substantive or any(directives)
                if not substantive and not any(report.busy for report in reports):
                    break
                # Ballots are not work: a barrier that applies no directive
                # after a round without decisions, tick movement, messages
                # or notes is a distributed stall, even while ballots keep
                # deferring (a ring of mutually deferring commits).
                if progress or substantive:
                    stalls = 0
                    continue
                stalls += 1
                if stalls < STALL_PATIENCE_ROUNDS:
                    continue
                stalls = 0
                breaker = coordinator.break_stall()
                if breaker is None:
                    # Nothing cross-shard left to sacrifice: the remaining
                    # frames are locally wedged, exactly like a plain run
                    # whose force-wake found no runnable frame.  Finalise.
                    break
                directives = breaker
            outcomes = transport.exchange("finalize", [()] * self.shard_map.shards)
        finally:
            transport.close()
        shards = tuple(
            ShardOutcome(**payload)
            for payload in sorted(outcomes, key=lambda entry: entry["index"])
        )
        return ShardedRunResult(
            shards=shards,
            metrics=merge_run_metrics([outcome.metrics for outcome in shards]),
            coordinator=coordinator.describe(),
            mode=self.mode,
            rounds=rounds,
            shard_map=self.shard_map,
        )
