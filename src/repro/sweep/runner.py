"""Scenario execution: serial or fanned out over ``multiprocessing`` workers.

:func:`run_scenario` is the single execution path: it constructs the
workload and scheduler named by a :class:`~repro.sweep.spec.ScenarioSpec`
(inside the *current* process), runs a fresh
:class:`~repro.simulation.engine.SimulationEngine` under the spec's seed,
and summarises the run as a flat metrics row.  :class:`SweepRunner` maps
that function over a sweep's scenario list either serially or with a
worker pool.

Determinism
-----------

A scenario's metrics row is a pure function of its spec: the engine RNG
is seeded from ``spec.seed``, workload generation from the seeds inside
``workload_params``, and nothing about the host, the process, or the
wall-clock leaks into the row (per-scenario timings live on
:class:`ScenarioResult` *next to* the row, never inside it).  Results are
returned in scenario order regardless of worker completion order, so a
parallel run returns rows identical to a serial run of the same spec —
``tests/sweep/test_runner.py`` asserts exactly that, and
``benchmarks/bench_e13_sweep_scaling.py`` re-checks it on every recorded
scaling run.

Spawn safety
------------

Workers receive pickled :class:`ScenarioSpec` dataclasses (plain strings,
numbers and dicts) and construct every engine/workload/scheduler object
in-worker; no live simulation state ever crosses a process boundary.  The
pool uses the ``spawn`` start method by default, so the fan-out behaves
identically on platforms without ``fork`` and never inherits ambient
interpreter state; tests may select ``fork`` for speed where available.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from ..scheduler import make_scheduler
from ..shard.engine import ShardedEngine
from ..simulation.arrivals import ArrivalProcess
from ..simulation.engine import SimulationEngine
from ..simulation.metrics import RunResult
from ..simulation.workloads import make_workload
from .spec import ScenarioSpec, SweepSpec

#: Default start method for worker processes (see module docstring).
DEFAULT_MP_CONTEXT = "spawn"


@dataclass
class ScenarioResult:
    """One scenario's outcome: the deterministic row plus run bookkeeping.

    ``row`` is the deterministic metrics payload (identical across serial
    and parallel runs of the same spec); ``elapsed_seconds`` and
    ``worker_pid`` describe *this* execution of it and are deliberately
    kept out of the row.
    """

    index: int
    spec: ScenarioSpec
    row: dict[str, Any]
    elapsed_seconds: float
    worker_pid: int


def build_scenario(spec: ScenarioSpec) -> tuple[dict[str, Any], Any, ArrivalProcess | None]:
    """Construct the arguments of a scenario's engine and its input.

    The one place a :class:`ScenarioSpec` becomes live objects:
    :func:`build_engine` builds a :class:`SimulationEngine` from them and
    submits the transactions, a :class:`~repro.shard.engine.ShardWorker`
    builds itself from them and submits its home slice.

    Returns:
        ``(engine_arguments, transaction_specs, arrival)``: the engine's
        keyword arguments, and the closed batch (``arrival`` is ``None``)
        or the lazy ``iter_transactions()`` of a streaming workload (any
        with an ``arrival_process`` hook) and its arrival process.
    """
    workload = make_workload(spec.workload, **spec.workload_params)
    arrival_factory = getattr(workload, "arrival_process", None)
    if arrival_factory is None:
        object_base, transaction_specs = workload.build()
    else:  # a stream draws each spec as it falls due
        object_base, transaction_specs = workload.build_object_base(), workload.iter_transactions()
    scheduler_kwargs = dict(spec.scheduler_kwargs)
    if spec.modular_strategy_from_workload:
        scheduler_kwargs.setdefault("per_object_strategy", workload.modular_strategy_map())
    scheduler = make_scheduler(spec.scheduler, **scheduler_kwargs)
    engine_params = dict(spec.engine_params)
    if spec.certify == "stream":
        engine_params["certify"] = "stream"
    elif spec.certify:  # set-up loads the post-hoc certifier summarise_run calls
        from ..analysis import certify  # noqa: F401
    arguments = dict(object_base=object_base, scheduler=scheduler, seed=spec.seed, **engine_params)
    return arguments, transaction_specs, arrival_factory and arrival_factory()


def build_engine(spec: ScenarioSpec) -> SimulationEngine:
    """Construct the engine for a scenario, with its transactions submitted.

    Args:
        spec: the scenario to materialise.

    Returns:
        A single-use :class:`SimulationEngine` ready for :meth:`run`.
    """
    arguments, transaction_specs, arrival = build_scenario(spec)
    engine = SimulationEngine(**arguments)
    if arrival is None:
        engine.submit_all(transaction_specs)
    else:
        engine.submit_stream(transaction_specs, arrival)
    return engine


def summarise_run(
    result: RunResult,
    scheduler_name: str,
    *,
    certify: bool | str = True,
    check_legality: bool = False,
) -> dict[str, Any]:
    """Flatten a run into the metrics row the experiments report.

    Args:
        result: the finished run.
        scheduler_name: registry name recorded in the ``scheduler`` column.
        certify: certify the committed projection and record the verdict
            in a ``serialisable`` column.  ``"stream"`` reads the rolling
            report the engine's online certifier built during the run
            instead of re-certifying post-hoc.
        check_legality: also replay-check legality during certification.

    Returns:
        The flat row (plain scalars only — JSON- and comparison-safe).
    """
    row = _metrics_row(result.metrics, scheduler_name)
    if certify == "stream":
        report = result.streaming_report
        if report is None:
            raise ValueError(
                "certify='stream' requires the engine to have run with "
                "certify='stream' (no streaming report on this RunResult)"
            )
        row["serialisable"] = report.serialisable
        if check_legality:
            row["legal"] = report.legal
    elif certify:
        from ..analysis.certify import certify_run

        report = certify_run(result, check_legality=check_legality)
        row["serialisable"] = report.serialisable
        if check_legality:
            row["legal"] = report.legal
    return row


def _metrics_row(metrics, scheduler_name: str) -> dict[str, Any]:
    """The metric columns shared by plain and sharded rows."""
    return {
        "scheduler": scheduler_name,
        "committed": metrics.committed,
        "commit_rate": metrics.commit_rate,
        "aborts": metrics.aborted_attempts,
        "gave_up": metrics.gave_up,
        "deadlocks": metrics.aborts_by_reason.get("deadlock", 0),
        "ts_aborts": metrics.aborts_by_reason.get("timestamp", 0),
        "validation_aborts": metrics.aborts_by_reason.get("validation", 0),
        "cascade_aborts": metrics.aborts_by_reason.get("cascade", 0),
        "inter_object_aborts": metrics.aborts_by_reason.get("inter-object", 0),
        "makespan": metrics.total_ticks,
        "blocked_ticks": metrics.blocked_ticks,
        "blocked_fraction": metrics.blocked_fraction,
        "parks": metrics.parks,
        "wakes": metrics.wakes,
        "wait_ticks": metrics.wait_ticks,
        "restarts": metrics.restarts,
        "delayed_restarts": metrics.delayed_restarts,
        "restart_delay_ticks": metrics.restart_delay_ticks,
        "wasted_fraction": metrics.wasted_fraction,
        "throughput": metrics.throughput,
        "arrived": metrics.arrived,
        "in_flight_peak": metrics.in_flight_peak,
        "mean_latency": metrics.mean_latency,
        "latency_max": metrics.latency_max,
        "live_state_peak": metrics.live_state_peak,
        "live_state_ratio": metrics.live_state_per_in_flight,
    }


def summarise_sharded_run(result, scheduler_name: str) -> dict[str, Any]:
    """Flatten a :class:`~repro.shard.engine.ShardedRunResult` into a row.

    Same columns as :func:`summarise_run` over the merged fleet metrics,
    plus the shard-level extras: ``shards``, ``rounds``,
    ``remote_invocations``, the coordinator's decision counters and the
    conjunction of the per-shard certification verdicts (certification
    runs *inside* the shard workers, so the verdicts are already on the
    result).
    """
    row = _metrics_row(result.metrics, scheduler_name)
    row["shards"] = len(result.shards)
    row["shard_rounds"] = result.rounds
    row["remote_invocations"] = result.metrics.remote_invocations
    row["cross_commits"] = result.coordinator["commits_decided"]
    row["cross_aborts"] = result.coordinator["aborts_decided"]
    if result.serialisable is not None:
        row["serialisable"] = result.serialisable
    if result.legal is not None:
        row["legal"] = result.legal
    return row


def run_sharded_scenario(spec: ScenarioSpec):
    """Run a ``shards > 1`` scenario; returns the ShardedRunResult."""
    return ShardedEngine(spec).run()


def run_scenario(spec: ScenarioSpec, index: int = 0) -> ScenarioResult:
    """Execute one scenario in the current process.

    Args:
        spec: the scenario to run.
        index: the scenario's position in its sweep (passed through to
            the result so parallel completions can be re-ordered).

    Returns:
        The :class:`ScenarioResult` with the deterministic row, the
        scenario's tags merged in after the metric columns.
    """
    started = time.perf_counter()
    if spec.shards > 1:
        row = summarise_sharded_run(run_sharded_scenario(spec), spec.scheduler)
    else:
        engine = build_engine(spec)
        result = engine.run()
        row = summarise_run(
            result, spec.scheduler, certify=spec.certify, check_legality=spec.check_legality
        )
    row.update(spec.tags)
    return ScenarioResult(
        index=index,
        spec=spec,
        row=row,
        elapsed_seconds=time.perf_counter() - started,
        worker_pid=os.getpid(),
    )


def _run_indexed(payload: tuple[int, ScenarioSpec]) -> ScenarioResult:
    """Pool worker entry point (top-level so it pickles under spawn)."""
    index, spec = payload
    return run_scenario(spec, index)


class SweepRunner:
    """Expand a sweep and execute it, serially or over a worker pool.

    Args:
        sweep: a :class:`SweepSpec` (expanded once, deterministically) or
            an explicit scenario sequence.
        workers: ``0`` or ``1`` runs in-process; ``n > 1`` fans scenarios
            out over ``n`` worker processes (capped at the scenario
            count).
        mp_context: ``multiprocessing`` start method for the pool
            (default :data:`DEFAULT_MP_CONTEXT`, i.e. ``"spawn"``).

    A worker is handed one scenario per dispatch, the best balance for
    heterogeneous scenario costs.
    """

    def __init__(
        self,
        sweep: SweepSpec | Sequence[ScenarioSpec] | Iterable[ScenarioSpec],
        *,
        workers: int = 0,
        mp_context: str = DEFAULT_MP_CONTEXT,
    ):
        if isinstance(sweep, SweepSpec):
            self.name = sweep.name
            self.scenarios: list[ScenarioSpec] = sweep.scenarios()
        else:
            self.name = "scenarios"
            self.scenarios = list(sweep)
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        self.mp_context = mp_context

    def run(self) -> list[ScenarioResult]:
        """Execute every scenario; results come back in scenario order.

        Raises:
            RuntimeError: when a ``spawn``/``forkserver`` pool is requested
                from a non-importable ``__main__`` (e.g. a ``python -``
                stdin script) — CPython would otherwise respawn crashing
                workers forever instead of failing.
        """
        payloads = list(enumerate(self.scenarios))
        if not payloads:
            return []
        pool_size = min(self.workers, len(payloads))
        if pool_size <= 1:
            return [_run_indexed(payload) for payload in payloads]
        self._check_spawnable()
        # Only a pool loads these (about 2 MB no in-process run needs).
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        context = multiprocessing.get_context(self.mp_context)
        # ProcessPoolExecutor rather than multiprocessing.Pool: when a worker
        # dies before or during a task (e.g. a spawn re-import failure in a
        # parent without the __main__ guard) the executor raises
        # BrokenProcessPool, whereas Pool would respawn crashing workers
        # forever and hang the sweep.
        try:
            with ProcessPoolExecutor(max_workers=pool_size, mp_context=context) as executor:
                results = list(executor.map(_run_indexed, payloads))
        except BrokenProcessPool as exc:
            raise RuntimeError(
                f"sweep worker pool (mp_context={self.mp_context!r}) broke: a worker "
                "process died before completing its scenario.  With the spawn start "
                "method this usually means the calling script creates the "
                "SweepRunner at module top level — wrap the call in an "
                "`if __name__ == '__main__':` guard, or use workers=0 (serial) or "
                "mp_context='fork' where available."
            ) from exc
        # ``Executor.map`` already preserves input order; the sort is a cheap
        # belt-and-braces guarantee the determinism tests rely on.
        return sorted(results, key=lambda scenario_result: scenario_result.index)

    def _check_spawnable(self) -> None:
        """Fail fast when spawn cannot re-import the parent's ``__main__``.

        ``spawn``/``forkserver`` workers re-run the parent's main module.
        When that module came from a non-existent path (``python -``
        heredocs report ``<stdin>``), every worker dies before connecting
        and ``Pool.map`` respawns replacements forever — an unbounded
        hang.  Detect the situation up front and point at the fixes.
        """
        if self.mp_context not in ("spawn", "forkserver"):
            return
        main_file = getattr(sys.modules.get("__main__"), "__file__", None)
        if main_file is not None and not os.path.exists(main_file):
            raise RuntimeError(
                f"cannot fan out with mp_context={self.mp_context!r}: the current "
                f"__main__ module ({main_file!r}) is not an importable file, so "
                "spawned workers cannot start.  Run the sweep from a real script "
                "or module, use workers=0 (serial), or pass mp_context='fork' "
                "where available."
            )

    def run_rows(self) -> list[dict[str, Any]]:
        """Execute the sweep and return just the metrics rows, in order."""
        return [scenario_result.row for scenario_result in self.run()]
