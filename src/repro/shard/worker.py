"""The shard side of sharded execution: the worker engine and its transports.

A :class:`ShardWorker` is one shard's
:class:`~repro.simulation.engine.SimulationEngine`, subclassed with the
shard's side of the round protocol that
:class:`~repro.shard.engine.ShardedEngine` drives.  The *same* class runs
in both transports: :class:`LocalTransport` calls it directly (the
in-process oracle), :class:`ProcessTransport` runs it behind a pipe in a
worker process.  Both see byte-equal payloads (spec and map as canonical
JSON dicts) and the identical directive streams, so their results are
structurally bit-identical — asserted by ``tests/shard/`` on every run.
A driver loads this module when it builds a fleet, so a run never does.

Workers are spawn-safe the same way the sweep runner's are: a worker
receives only picklable plain data (the scenario spec and shard map as
JSON dicts) and constructs every live object in-worker.  Each worker
walks the *full* ``(tick, spec)`` stream (a pure function of the spec),
routes each spec and keeps those homed on its shard, reading ahead no
further than its next cross-shard arrival; an attempt asks the route again
(a pure function of spec and placement) — no generator state ever
crosses a process boundary, and every worker agrees on every
transaction's home without communicating.
"""

from __future__ import annotations

import heapq
import itertools
import traceback
from collections import deque
from typing import Any, Mapping

from ..core.errors import SimulationError
from ..simulation.engine import _EVENT_RESTART, _WAITING, SimulationEngine
from ..simulation.events import BEGIN, BLOCKED, INVOKE
from ..simulation.transactions import InvokeRequest, TransactionSpec
from ..sweep.runner import build_scenario
from ..sweep.spec import ScenarioSpec
from .coordinator import ShardReport, ShardStepTracker
from .map import ShardMap

__all__ = ["LocalTransport", "ProcessTransport", "ShardWorker"]


#: The lifecycle notes among a worker's sends; the rest are messages.
_NOTES = ("prepared", "aborted")


class ShardWorker(SimulationEngine):
    """One shard's engine plus its side of the round protocol.

    The plain engine's loop, commit and abort paths run unchanged; this
    subclass adds the 2PC participant through the engine's overridable
    methods.  On its home shard a cross-shard transaction runs normally
    until commit, which is *held* for the two-phase decision; on every
    other shard its remote invokes run under a *session* root carrying its
    top-level id, so the owner's scheduler synchronises it like any nested
    transaction.  A session root has no lineage, so the engine leaves the
    transaction's counts, restarts and fault victims to its home shard.

    Identical in both transports — the in-process oracle calls these
    methods directly, the multiprocess transport calls them through
    :func:`_shard_worker_main` behind a pipe.
    """

    def __init__(self, payload: Mapping[str, Any]):
        spec = ScenarioSpec.from_json_dict(payload["spec"])
        shard_map = ShardMap.from_json_dict(payload["map"])
        index = int(payload["index"])
        arguments, transaction_specs, arrival = build_scenario(spec)
        object_base = arguments["object_base"]
        # Routing: one table over the object names, one walk per spec.
        placement = shard_map.placement(object_base.object_names())
        owned = {name for name, shard in placement.items() if shard == index}
        self.index = index
        #: ``owns(object_name)``: does this shard hold the object?
        self.owns = frozenset(owned).__contains__
        #: ``route(spec)``: ``(home, cross)``, cross if it may touch foreign
        #: objects.  (Advisory: a missed classification is repaired at the
        #: first actual remote invoke; see :meth:`_send_remote_invoke`.)
        self.route = lambda txn_spec: shard_map.route(txn_spec, placement)
        #: Execution-id namespace (``"s<i>:"``); empty with one shard, so a
        #: single-shard run is bit-identical to the plain engine.
        self.id_prefix = f"s{index}:" if shard_map.shards > 1 else ""
        self._attempts = itertools.count(1)
        self._remote_ids = itertools.count(1)
        #: Home side: attempt ids known (or discovered) to be cross-shard.
        self.cross: set[str] = set()
        #: Home side: prepared roots awaiting the global commit decision.
        self.held: dict[str, Any] = {}
        #: Owner side: one session root per foreign transaction, keyed by
        #: the foreign top-level id, which is also the root's execution id.
        self.sessions: dict[str, Any] = {}
        #: Remote message id -> the local frame waiting on its result.
        self.waiters: dict[str, str] = {}
        #: A remote invocation's child -> the message id its result answers.
        self._reply_to: dict[str, str] = {}
        #: Heap of due ticks of cross-classified arrivals read and restarts queued.
        self._cross_due: list[int] = []
        #: Homed ``(due, spec, cross)`` arrivals read, not yet handed over.
        self._ahead: deque[tuple[int, TransactionSpec, bool]] = deque()
        self._global = iter(())  # the global (due, spec) stream
        # Messages and notes (prepared / aborted) for the coordinator, in
        # the order queued; the loop stops at the first, the round drains.
        self._outbox = []
        super().__init__(**arguments)
        self.tracker = ShardStepTracker(object_base.conflicts("step"))
        # Only a worker that certifies post hoc loads the certifier (at
        # set-up: finalize imports nothing) and reads the shard's history.
        self._certify = None
        if payload.get("certify", False):
            from ..analysis.certify import certify_shard

            self._certify = certify_shard
        self._keeps_history = self._certify is not None and self._certifier is None
        # Kept arrivals keep their ticks: the schedule is the global one,
        # filtered — not a per-shard re-deal.
        if arrival is not None:
            self._global = self._stream(transaction_specs, arrival)
            self.submit_scheduled(self._homed_arrivals())
        else:
            for txn_spec in transaction_specs:
                if self.route(txn_spec)[0] == index:
                    self.submit(txn_spec)
        self._admit_pending()  # the closed batch, as SimulationEngine.run does
        self._shipped: dict[str, tuple] = {}  # the waits-for records last reported
        self._check_legality = bool(payload.get("check_legality", False))
        if index == 0:
            # The environment object exists on every shard (transaction
            # bodies run there); shard 0 reports its state so the merged
            # final-states view matches the plain engine's key set.
            owned.add(object_base.environment.name)
        self._owned = frozenset(owned)

    # ------------------------------------------------------------------
    # the round protocol
    # ------------------------------------------------------------------

    def _apply(self, directives: list[tuple]) -> None:
        """Apply one barrier's coordinator directives, in order.

        ``("invoke", remote_id, gid, object, method, args)`` admits a
        remote invocation; ``("result", remote_id, value)`` delivers a
        remote result; ``("commit", gid)`` / ``("abort", gid, reason)``
        apply the coordinator's global decision; ``("forget", gid)`` drops
        a garbage-collected transaction's tracked steps.  Aborted work
        constrains nobody, so an abort drops them too.  Votes are not
        directives: :meth:`vote` asks :meth:`commit_vote` after applying.
        """
        for kind, *fields in directives:
            if kind == "invoke":
                remote_id, gid, *invocation = fields
                self.admit_remote(gid, remote_id, *invocation)
            elif kind == "result":
                self.deliver_remote_result(*fields)
            elif kind == "commit":
                self.apply_global_commit(*fields)
            elif kind == "abort":
                self.tracker.forget(fields[0])
                self.apply_global_abort(*fields)
            elif kind == "forget":
                self.tracker.forget(fields[0])
            else:
                raise SimulationError(f"unknown shard directive {(kind, *fields)!r}")

    def _enter(self, directives: list[tuple], now: int) -> int:
        """Catch up to the barrier tick ``now``, then apply its directives."""
        decisions = 0
        if self._tick < now:
            decisions = self._run_until(min(now, self.max_ticks), catch_up=True)
        self._apply(directives)
        return decisions

    def vote(self, directives: list[tuple], gids: list[str], now: int) -> tuple:
        """Enter the barrier at ``now``; ``(gid, verdict, reason)`` per gid, and the changed waits."""
        self._enter(directives, now)
        return [(gid, *self.commit_vote(gid)) for gid in gids], self._changed_waits()

    def round(self, directives: list[tuple], now: int, horizon: int) -> ShardReport:
        """Enter the barrier at ``now``, run to ``horizon`` or the first send, report."""
        decisions = self._enter(directives, now)
        if self._tick < horizon and not self._outbox:
            decisions += self._run_until(min(horizon, self.max_ticks))
        sent, self._outbox = self._outbox, []
        notes = [entry for entry in sent if entry[0] in _NOTES]
        for note in notes:
            if note[0] == "aborted":
                self.tracker.forget(note[1])
        return ShardReport(
            index=self.index,
            decisions=decisions,
            tick=self._tick,
            busy=bool(self._has_work() or self.waiters or self.held),
            next_send=self._next_send(),
            messages=[entry for entry in sent if entry[0] not in _NOTES],
            notes=notes,
            edges=self.tracker.drain_edges(),
            waits=self._changed_waits(),
        )

    def _changed_waits(self) -> dict[str, tuple | None] | None:
        """:attr:`ShardReport.waits`: the records changed since the last report.

        A record is projected onto top-level gids: a wait between two
        transactions runs from the waiter's gid to the blocker's.
        """
        shipped, projected = self._shipped, {}
        for waiter, (gid, edges, commit) in self._waits._records.items():
            if kept := tuple(edge for edge in edges if edge[0] == gid):
                projected[waiter] = (gid, kept, commit)
        self._shipped = projected
        changed = {waiter: None for waiter in shipped if waiter not in projected}
        for waiter, record in projected.items():
            if shipped.get(waiter) != record:
                changed[waiter] = record
        return changed or None

    def parked(self) -> str:
        """This shard's parked frames, each with the keys it waits on."""
        return "; ".join(
            f"{frame.execution_id} on {', '.join(sorted(frame.parked_on))}"
            for frame in self._frames.values()
            if frame.parked_on
        ) or "none"

    def _next_send(self) -> int:
        """A lower bound on the tick of this shard's next message or note.

        It holds as long as no directive arrives.  With a cross-shard
        transaction or a session live, a decision can send at once (a ready
        frame; or no frame ready, no event and no barrier state, which the
        next round raises as a wedge), else at the next event's tick + 1.
        Otherwise nothing sends before a cross-shard arrival or restart is
        released and decides.  A classifier that misses a cross-shard spec
        only makes its messages late, never early.
        """
        tick, events = self._tick, self._events
        if self.cross or self.sessions:
            if self._ready or not (events or self.waiters or self.held or self.sessions):
                return tick + 1
            return events[0][0] + 1 if events else self.max_ticks
        self._look_ahead()
        due = self._cross_due
        while due and due[0] < tick:
            heapq.heappop(due)  # released already
        return due[0] + 1 if due else self.max_ticks

    def finalize(self) -> dict[str, Any]:
        """Close the run and flatten it to plain picklable :class:`ShardOutcome` fields."""
        result = self._finalise_run()
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
            "top_edges": (),
        }
        if self._certify is not None:
            report, payload["top_edges"] = self._certify(
                result, check_legality=self._check_legality
            )
            payload["serialisable"] = bool(report.serialisable)
            if self._check_legality:
                payload["legal"] = bool(report.legal)
        return payload

    # ------------------------------------------------------------------
    # the participant, through the engine's overridable methods
    # ------------------------------------------------------------------

    def _look_ahead(self) -> bool:
        """Buffer the homed arrivals up to the next cross-classified one, whose
        due bounds :meth:`_next_send` (with one shard none is, so up to the
        next one); returns whether an arrival is buffered."""
        ahead, alone = self._ahead, not self.id_prefix
        if not (ahead and (alone or ahead[-1][2])):
            for due, txn_spec in self._global:
                home, cross = self.route(txn_spec)
                if home == self.index:
                    ahead.append((due, txn_spec, cross))
                    if cross:
                        heapq.heappush(self._cross_due, due)
                    if cross or alone:
                        break
        return bool(ahead)

    def _homed_arrivals(self):
        """This shard's ``(due, spec)`` arrivals, for the engine's feed."""
        ahead = self._ahead
        while ahead or self._look_ahead():
            due, txn_spec, _ = ahead.popleft()
            yield due, txn_spec

    def _schedule(self, due: int, kind: int, payload: Any = None) -> None:
        """Queue an event; a cross-classified restart also bounds :meth:`_next_send`."""
        super()._schedule(due, kind, payload)
        if kind == _EVENT_RESTART and self.route(payload[0])[1]:
            heapq.heappush(self._cross_due, due)

    def _start_transaction(self, spec, attempt: int, lineage: int):
        """Start an attempt; an attempt of a cross-classified spec registers as cross-shard."""
        frame = super()._start_transaction(spec, attempt, lineage)
        if self.route(spec)[1]:
            self.cross.add(frame.execution_id)
        return frame

    def _open_root(self, method_name: str, execution_id: str | None, **frame_fields: Any):
        """Open a root; an attempt takes a fleet-unique id.

        Each restart is a fresh id, so the coordinator sees attempts, not
        lineages.  A session root arrives with the foreign id.
        """
        if execution_id is None and self.id_prefix:
            execution_id = f"{self.id_prefix}T{next(self._attempts)}"
        return super()._open_root(method_name, execution_id, **frame_fields)

    def _awaits_input(self) -> bool:
        """Blocked on the barrier until a directive arrives (a result or a decision)."""
        return bool(self.waiters or self.held or self.sessions)

    def _note_step(self, info, step) -> None:
        # Only cross-shard work feeds the inter-shard precedence graph;
        # purely local transactions are the local scheduler's business.
        gid = info.top_level_id
        if gid in self.cross or gid in self.sessions:
            self.tracker.note_step(info, step)

    def _dispatch(self, frame, invocation: InvokeRequest, after) -> str:
        if self.owns(invocation.object_name):
            return super()._dispatch(frame, invocation, after)
        return self._send_remote_invoke(frame, invocation)

    def _send_remote_invoke(self, frame, invocation: InvokeRequest) -> str:
        """Queue a foreign-object invocation for the owning shard."""
        gid = frame.info.top_level_id
        # Safety net for imprecise classifiers: the id is cross-shard from
        # the first remote invoke on, whatever its route said.
        self.cross.add(gid)
        remote_id = f"{gid}/r{self.index}.{next(self._remote_ids)}"  # unique fleet-wide
        self.waiters[remote_id] = frame.execution_id
        self._outbox.append(("invoke", remote_id, gid, *invocation))
        self.metrics.remote_invocations += 1
        if self._trace is not None:
            self._record(INVOKE, remote_id, invocation.object_name, invocation.method_name)
        return remote_id

    def deliver_remote_result(self, remote_id: str, value: Any) -> None:
        """A remote invocation's result arrived (stale ids are dropped)."""
        frame_id = self.waiters.pop(remote_id, None)
        if frame_id is None:
            return
        frame = self._frames.get(frame_id)
        if frame is None or frame.status != _WAITING or remote_id not in frame.waiting_on:
            return
        if self._deliver(frame, remote_id, value):
            self._set_ready(frame)

    def admit_remote(
        self, gid: str, remote_id: str, object_name: str, method_name: str, arguments: tuple
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
        if gid in self._aborted_executions:
            return  # raced with a local abort; the coordinator re-relays
        session = self.sessions.get(gid)
        if session is None and gid in self.cross:
            session = self._frames.get(gid)
        if session is None:
            # A session root has no body: it waits until the global decision.
            session = self.sessions[gid] = self._open_root("remote-session", gid, status=_WAITING)
            if self._trace is not None:
                self._record(BEGIN, gid, detail="remote session")
        child = self._spawn_child(  # its result travels back, the session awaits nothing
            session, InvokeRequest(object_name, method_name, tuple(arguments)), None
        )
        self._reply_to[child.execution_id] = remote_id

    def _deliver_to_parent(self, child, return_value: Any) -> bool:
        remote_id = self._reply_to.pop(child.execution_id, None)
        if remote_id is None:
            return super()._deliver_to_parent(child, return_value)
        # A remote invocation's result travels back to the shard that
        # requested it (open-nesting style, the value is provisional until
        # the global commit); the session root stays open, retaining the
        # subtree's locks, until the coordinator resolves the transaction.
        self._outbox.append(("result", remote_id, child.info.top_level_id, return_value))
        return False

    def _complete_top_level(self, frame, return_value: Any) -> None:
        if frame.info.top_level_id in self.cross:
            # A cross-shard transaction cannot commit unilaterally: hold the
            # prepared root for the coordinator's two-phase decision.
            self._hold_commit(frame, return_value)
        else:
            super()._complete_top_level(frame, return_value)

    def _hold_commit(self, frame, return_value: Any) -> None:
        """Park a prepared cross-shard root until the global decision."""
        self._set_not_ready(frame, _WAITING)
        frame.inbox = return_value
        self.held[frame.execution_id] = frame
        self._outbox.append(("prepared", frame.execution_id))
        if self._trace is not None:
            self._record(BLOCKED, frame.execution_id, detail="prepared: awaiting global commit")

    def commit_vote(self, gid: str) -> tuple[str, str]:
        """This shard's two-phase vote on ``gid``: commit, defer or abort."""
        frame = self.held.get(gid) or self.sessions.get(gid)
        if frame is None:
            return ("abort", "transaction unknown on this shard")
        response = self.scheduler.on_commit_request(frame.info)
        if response.blocked:
            return ("defer", response.reason or "commit deferred")
        self._waits.clear(gid)
        if not response.granted:
            return ("abort", response.reason or "commit vetoed")
        return ("commit", "")

    def apply_global_commit(self, gid: str) -> None:
        """The coordinator decided commit: finalise the local share."""
        home = self.held.pop(gid, None)
        frame = home or self.sessions.pop(gid, None)
        if frame is not None:
            self.cross.discard(gid)
            self._finalise_commit(frame, frame.inbox if home else "remote session")

    def apply_global_abort(self, gid: str, reason: str) -> None:
        """The coordinator decided abort: discard the local share."""
        if gid in self._frames or gid in self._executions_by_transaction:
            # The standard abort path (on the home shard, restart policy
            # included); it re-notes the abort, which the coordinator
            # ignores for an already-resolved id.
            self._abort_transaction(gid, reason)

    def _abort_transaction(self, top_level_id: str, reason: str) -> None:
        """Abort through the engine's path; a cross attempt or a session is also unregistered.

        Whether the abort was detected locally (deadlock, timestamp
        violation) or decided globally, the coordinator is told, so every
        other participant discards its share of this id.
        """
        if self.sessions.pop(top_level_id, None) is not None or top_level_id in self.cross:
            self.cross.discard(top_level_id)
            self.held.pop(top_level_id, None)
            subtree = {top_level_id, *self._executions_by_transaction.get(top_level_id, ())}
            for remote_id in [key for key, frame_id in self.waiters.items() if frame_id in subtree]:
                del self.waiters[remote_id]
            for execution_id in subtree:
                self._reply_to.pop(execution_id, None)
            self._outbox.append(("aborted", top_level_id, reason))
        super()._abort_transaction(top_level_id, reason)


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


class LocalTransport:
    """The in-process oracle: workers live in the driver's interpreter."""

    def __init__(self, payloads: list[dict[str, Any]]):
        self._workers = [ShardWorker(payload) for payload in payloads]

    def exchange(self, command: str, arguments: list[tuple]) -> list[Any]:
        """Call ``command`` on every worker with its arguments, in shard order."""
        return [getattr(worker, command)(*args) for worker, args in zip(self._workers, arguments)]

    def close(self) -> None:
        pass


class ProcessTransport:
    """One persistent worker process per shard, driven over pipes.

    Sends every shard its directives before collecting any report, so
    rounds execute in parallel across cores; the barrier is the recv
    loop.  Reports are collected in shard-index order regardless of
    completion order — the coordinator never observes scheduling noise.
    ``context`` is the ``multiprocessing`` context the driver picked.
    """

    def __init__(self, payloads: list[dict[str, Any]], context: Any):
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

