"""Sharded execution: one engine per shard, coordinated at barriers.

The :class:`ShardedEngine` partitions the object space with a
:class:`~repro.shard.map.ShardMap` and runs one :class:`ShardWorker` per
shard: a complete :class:`~repro.simulation.engine.SimulationEngine`
subclassed with the shard's side of the protocol.  A barrier
falls exactly where some shard queues a message (remote invocation,
result) or a lifecycle note (prepared, aborted) — the conservative
lookahead rule of distributed discrete-event simulation (Chandy and
Misra, IEEE TSE 1979).  Each shard reports ``next_send``, a lower bound
on the tick of its next message or note absent further directives; each
round it catches up to the barrier tick, applies its directives, then
runs to the least bound of the *other* shards and stops after its first
message or note.  No shard passes a tick at which another sends, so every
message is applied at its send tick.  The
:class:`~repro.shard.coordinator.InterShardCoordinator` turns the
barrier's messages and notes into the next round's directives; a
barrier with an open commit ballot first has each shard apply them and
vote (:meth:`ShardWorker.vote`), and the decisions become the round's.
A barrier at which nothing moved is wedged (the fleet's waits-for union
has no cycle to break), and the driver raises naming the parked frames.

Determinism is the design's spine, not a feature flag:

* all cross-shard interaction happens at barriers, in shard-index order,
  over plain data tuples, and the barrier schedule is itself a function
  of the reports — nothing about scheduling within a round can reorder
  it;
* the *same* :class:`~repro.shard.worker.ShardWorker` class executes the
  round protocol in both transports (:mod:`repro.shard.worker`);
* with one shard there is no cross state at all: its horizon is
  ``max_ticks`` and its one round is the plain event loop, so
  ``shards=1`` reproduces the unsharded engine bit for bit (also
  asserted).

This module is the driver.  Building a :class:`ShardedEngine` loads the
worker side and the coordinator; importing this module loads neither.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from typing import Any

from ..core.errors import SimulationError
from ..core.registry import lazy_surface
from ..simulation.metrics import RunMetrics, merge_run_metrics
from ..sweep.spec import SHARD_MODES, ScenarioSpec
from .map import ShardMap

_moved, __getattr__, __dir__ = lazy_surface(__name__, {".worker": ("ShardWorker",)})
__all__ = ["ShardOutcome", "ShardedRunResult", "ShardedEngine", *_moved]


def _wakes(directives: list[tuple]) -> bool:
    """Whether a directive list holds more than ``forget`` notices."""
    return any(directive[0] != "forget" for directive in directives)


def _conjunction(verdicts: list[bool | None]) -> bool | None:
    """All per-shard verdicts, or ``None`` when some shard gave none."""
    return None if None in verdicts else all(verdicts)


def _horizons(bounds: list[int]) -> list[int]:
    """Each shard's horizon: the least bound of the *other* shards (none: unbounded)."""
    first, second = sorted([*bounds, sys.maxsize, sys.maxsize])[:2]
    return [second if bound == first else first for bound in bounds]


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
    #: The top-level edges of the shard's ``SG(h)`` (empty unless certified).
    top_edges: tuple[tuple[str, str], ...]


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
        return tuple(dict.fromkeys(gid for outcome in self.shards for gid in outcome.committed))

    def final_states(self) -> dict[str, dict[str, Any]]:
        """Final object states, merged across shards (ownership-disjoint)."""
        return {
            name: state for outcome in self.shards for name, state in outcome.final_states.items()
        }

    @property
    def serialisable(self) -> bool | None:
        """The merged verdict: every shard serialisable, and the union of
        their top-level ``SG(h)`` edges acyclic.

        A cycle through two shards passes every shard's own certificate
        (those verdicts stay on each :class:`ShardOutcome`); top-level ids
        are fleet-wide, so the union sees it.
        """
        verdict = _conjunction([outcome.serialisable for outcome in self.shards])
        if not verdict:
            return verdict
        from ..core.graphs import is_acyclic

        return is_acyclic(edge for outcome in self.shards for edge in outcome.top_edges)

    @property
    def legal(self) -> bool | None:
        return _conjunction([outcome.legal for outcome in self.shards])

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
        mp_context: str | None = None,
        check_legality: bool | None = None,
    ):
        """Args:
            spec: the scenario to run (its ``shards`` / ``shard_assignment``
                / ``shard_mode`` fields provide defaults for ``shard_map``
                and ``mode``).
            shard_map: explicit partition; defaults to the spec's: its
                ``shard_assignment`` pins over the CRC-32 map of
                ``spec.shards`` shards.
            mode: ``"inprocess"`` (oracle) or ``"multiprocess"``.
            mp_context: multiprocess start method (``spawn`` by default, as
                in the sweep runner; tests may pick ``fork`` for speed).
            check_legality: also replay-check legality when certifying;
                defaults to ``spec.check_legality``.  Whether each worker
                certifies its shard's committed projection post hoc is the
                spec's ``certify``.
        """
        mode = mode or spec.shard_mode
        if mode not in SHARD_MODES:
            raise SimulationError(f"unknown shard mode {mode!r}")
        if spec.certify == "stream":
            raise SimulationError(
                "sharded runs certify per shard post-hoc; certify='stream' "
                "is the single-engine online path"
            )
        self.spec = spec
        self.shard_map = shard_map or ShardMap(spec.shards, spec.shard_assignment)
        self.mode = mode
        self.mp_context = mp_context or "spawn"
        self.certify = bool(spec.certify)
        self.check_legality = spec.check_legality if check_legality is None else check_legality
        self._finished = False
        # Set-up, not run: building a fleet loads its worker side (the shard
        # engine, its transports and the coordinator they report to).
        from . import worker
        from .coordinator import InterShardCoordinator

        self._coordinator = InterShardCoordinator(self.shard_map)
        if mode == "multiprocess":
            import multiprocessing  # only a multiprocess fleet loads the module

            context = multiprocessing.get_context(self.mp_context)
            self._transport = functools.partial(worker.ProcessTransport, context=context)
        else:
            self._transport = worker.LocalTransport

    def run(self) -> ShardedRunResult:
        """Run the fleet to completion (single-use, like the plain engine)."""
        if self._finished:
            raise SimulationError("engine instances are single-use; create a new one")
        self._finished = True
        # One plain-data (JSON/picklable) construction recipe per shard.
        recipe = {
            "spec": self.spec.to_json_dict(),
            "map": self.shard_map.to_json_dict(),
            "certify": self.certify,
            "check_legality": self.check_legality,
        }
        count = self.shard_map.shards
        payloads = [{**recipe, "index": index} for index in range(count)]
        transport, coordinator = self._transport(payloads), self._coordinator
        try:
            directives: list[list[tuple]] = [[] for _ in range(count)]
            # Before the first report every shard may send at once.
            bounds = [0] * count
            ticks: list[int] = []
            now = rounds = 0
            while True:
                horizons = _horizons(bounds)
                reports = transport.exchange(
                    "round",
                    [(entries, now, horizon) for entries, horizon in zip(directives, horizons)],
                )
                rounds += 1
                now = max(report.tick for report in reports)
                # A barrier moved if it applied a directive or some shard
                # decided, sent, noted (an echoed abort too) or moved its clock.
                clocks = [report.tick for report in reports]
                moved = clocks != ticks or any(map(_wakes, directives)) or any(
                    report.decisions or report.messages or report.notes for report in reports
                )
                ticks = clocks
                directives = coordinator.process_round(reports)
                substantive = any(directives)
                moved = moved or any(map(_wakes, directives))
                woken = polls = coordinator.polls()
                if any(polls):
                    # Apply, then ballot, then decide, then run: no tick
                    # passes between a vote and the decision it settles.
                    replies = transport.exchange(
                        "vote", [(entries, gids, now) for entries, gids in zip(directives, polls)]
                    )
                    woken = [gids or _wakes(entries) for gids, entries in zip(polls, directives)]
                    directives = coordinator.settle(*zip(*replies))
                    substantive = substantive or any(directives)
                if not substantive and not any(report.busy for report in reports):
                    break
                # Ballots are not work: a barrier whose only news is deferred
                # votes, with no cycle in the fleet's waits-for union, is wedged.
                if not (moved or any(map(_wakes, directives))):
                    parked = transport.exchange("parked", [()] * count)
                    raise SimulationError(
                        f"sharded run wedged at tick {now}: no shard moved and the fleet's "
                        "waits-for relation has no cycle; parked: "
                        + "; ".join(f"shard {index}: {text}" for index, text in enumerate(parked))
                    )
                # A bound holds until a directive arrives, so the larger of
                # the standing and the reported one stands; a shard that voted
                # or is handed more than forget notices may send from now + 1.
                bounds = [
                    min(bound, now + 1) if wake or entries and _wakes(entries) else bound
                    for bound, wake, entries in zip(
                        map(max, bounds, [report.next_send for report in reports]),
                        woken,
                        directives,
                    )
                ]
            outcomes = transport.exchange("finalize", [()] * count)
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
