"""The metrics the benchmark declares and how each is computed from passes.

``END_TO_END`` and ``PER_LAYER`` are the declarations ``BENCHMARK.json``
repeats (``bench/tests`` checks they agree).  Host time and simulated time
are never mixed: ``*_s``, ``*_per_s`` and ``*_mb`` are host quantities and
carry a spread; ``sim_*``, ``commit_rate`` and every count are simulated and
repeat bit for bit at a fixed seed.
"""

from __future__ import annotations

import statistics
from typing import Any, Iterable, Mapping, Sequence

#: name, unit, better, bound (share of the parent's median it may worsen by).
#: All but the memory bound are wider than a same-seed comparison on a quiet
#: host needs, because the benchmark is accepted on runs made with
#: *different* seeds on a shared host: see "Bounds" in bench/README.md.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("commits_per_s", "1/s", "higher", 0.25),
    ("commit_rate", "ratio", "higher", 0.01),
    ("sim_latency_mean_ticks", "ticks", "lower", 0.25),
    ("sim_commits_per_ktick", "1/kilotick", "higher", 0.20),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

_ENGINE_COUNTS = (
    "decisions",
    "local_steps",
    "wasted_step_share",
    "aborted_attempts",
    "restarts",
    "parks",
    "wakes",
    "forced_wakes",
    "gave_up",
    "in_flight_peak",
    "live_state_peak",
)
_TIMED_HOOKS = (
    "on_operation_executed",
    "on_commit_request",
    "on_transaction_commit",
    "on_transaction_abort",
    "collect_garbage",
)
ABORT_REASONS = ("deadlock", "timestamp", "validation", "cascade", "inter-object")
DESCRIBE_COUNTERS = (
    "ordering_aborts",
    "deadlocks_detected",
    "gc_pruned_records",
    "strategy_swaps",
    "deferred_swaps",
    "barrier_blocks",
)
COORDINATOR_COUNTERS = (
    "cross_transactions",
    "commits_decided",
    "aborts_decided",
    "stall_aborts",
    "cycle_aborts",
    "gc_pruned_records",
    "precedence_nodes",
)


def _unit(name: str) -> tuple[str, str]:
    """(unit, better) of a per-layer metric, from its name's suffix."""
    if name.endswith("_per_s"):
        return "1/s", "higher"
    if name.endswith("_s"):
        return "s", "lower"
    if name.endswith("_share") or name.endswith("_ratio"):
        return "ratio", "higher" if name.endswith("grant_share") else "lower"
    return "count", "lower"


_PER_LAYER_NAMES = (
    "sweep.build_engine_s",
    "sweep.summarise_s",
    "simulation.workloads.build_s",
    "simulation.arrivals.schedule_s",
    "harness.import_s",
    "simulation.engine.self_s",
    "simulation.engine.decisions_per_s",
    *(f"simulation.engine.{name}" for name in _ENGINE_COUNTS),
    "scheduler.on_operation_s",
    "scheduler.on_operation_calls",
    *(f"scheduler.{name}_s" for name in _TIMED_HOOKS),
    "scheduler.other_hooks_s",
    "scheduler.self_s",
    "scheduler.grant_share",
    "scheduler.blocks",
    *(f"scheduler.aborts.{reason}" for reason in ABORT_REASONS),
    *(f"scheduler.{name}" for name in DESCRIBE_COUNTERS),
    "core.graphs.nx_dag_checks",
    "core.graphs.nx_graph_copies",
    "core.graphs.nx_has_path_calls",
    "core.graphs.sg_build_s",
    "core.graphs.sg_edges",
    "core.history.record_s",
    "core.history.build_s",
    "core.history.committed_projection_s",
    "core.history.steps",
    "core.state.record_s",
    "core.state.undo_s",
    "core.state.undo_calls",
    "core.state.prune_s",
    "analysis.streaming.note_commit_s",
    "analysis.streaming.collect_garbage_s",
    "analysis.streaming.self_s",
    "analysis.streaming.overhead_ratio",
    "analysis.certify.certify_run_s",
    "analysis.certify.wall_share",
    "analysis.certify.sg_nodes",
    "analysis.certify.sg_edges",
    "shard.engine.worker_round_s",
    "shard.engine.finalize_s",
    "shard.engine.rounds",
    "shard.engine.remote_invocations",
    "shard.coordinator.process_round_s",
    *(f"shard.coordinator.{name}" for name in COORDINATOR_COUNTERS),
    "shard.overhead_ratio",
    "harness.calibration_s",
    "harness.trace_overhead_ratio",
)

#: name, unit, better.  Counts and shares repeat exactly; ``*_s``,
#: ``*_per_s`` and ``*_ratio`` are wall quantities of the traced run.
PER_LAYER = tuple((name, *_unit(name)) for name in _PER_LAYER_NAMES)

#: The per-layer metrics that come from the trace's counters and must be
#: identical between traced passes (those read from the run's own result
#: are already compared, in every pass, through the ``exact`` record).
TRACE_COUNTS = (
    "scheduler.on_operation_calls",
    "scheduler.grant_share",
    "scheduler.blocks",
    "core.graphs.nx_dag_checks",
    "core.graphs.nx_graph_copies",
    "core.graphs.nx_has_path_calls",
    "core.graphs.sg_edges",
    "core.history.steps",
    "core.state.undo_calls",
    "analysis.certify.sg_nodes",
    "analysis.certify.sg_edges",
)

#: Phases of a pass (root spans of bench/onepass.py).
_SETUP = ("harness.setup",)
_TIMED = ("harness.run", "harness.summarise")


def spread(values: Sequence[float]) -> dict[str, float]:
    """Median, quartiles, extremes and count of the repeats of a wall metric."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def commits_per_s(timed_pass: Mapping[str, Any]) -> float:
    """Committed transactions per second of run + certification wall, as timed."""
    return timed_pass["exact"]["committed"] / timed_pass["wall"]["commit_wall_s"]


def end_to_end(
    timed: Sequence[Mapping[str, Any]], host_factor: float, correct: bool
) -> dict[str, Any]:
    """Each end-to-end metric: a spread for wall metrics, a number otherwise.

    ``host_factor`` is how many times longer than on the reference host a
    wall was during these passes, by the harness's calibration loop; the two
    wall times are scaled by it, so they read as on the reference host
    whatever the neighbours were doing ("Host noise" in bench/README.md).
    """
    exact = timed[0]["exact"]
    return {
        "setup_s": spread([p["wall"]["setup_s"] / host_factor for p in timed]),
        "commits_per_s": spread([commits_per_s(p) * host_factor for p in timed]),
        # A run that is not serialisable and legal has committed nothing
        # a user could rely on.
        "commit_rate": exact["commit_rate"] if correct else 0.0,
        "sim_latency_mean_ticks": exact["sim_latency_mean_ticks"],
        "sim_commits_per_ktick": exact["sim_commits_per_ktick"],
        "peak_rss_mb": spread([p["wall"]["peak_rss_mb"] for p in timed]),
    }


class _Phases:
    """Lookups into one traced pass's ``phases`` aggregate."""

    def __init__(self, phases: Mapping[str, Mapping[str, Sequence[int]]]):
        self._phases = phases

    def _sum(self, keys: Iterable[str], phases: Iterable[str], field: int) -> int:
        return sum(
            self._phases.get(phase, {}).get(key, (0, 0, 0))[field]
            for phase in phases
            for key in keys
        )

    def keys(self, prefix: str, phases: Iterable[str] = _TIMED) -> list[str]:
        return sorted(
            {key for phase in phases for key in self._phases.get(phase, {}) if key.startswith(prefix)}
        )

    def calls(self, *keys: str, phases: Iterable[str] = _TIMED) -> int:
        return self._sum(keys, phases, 0)

    def total_s(self, *keys: str, phases: Iterable[str] = _TIMED) -> float:
        return self._sum(keys, phases, 1) / 1e9

    def self_s(self, *keys: str, phases: Iterable[str] = _TIMED) -> float:
        return self._sum(keys, phases, 2) / 1e9


def _median_wall(passes: Sequence[Mapping[str, Any]], name: str) -> float:
    return statistics.median(p["wall"][name] for p in passes)


def per_layer(
    traced: Mapping[str, Any],
    timed: Sequence[Mapping[str, Any]],
    baseline: Sequence[Mapping[str, Any]],
    ratio: str | None,
    calibration_s: float,
) -> dict[str, float]:
    """Every per-layer metric of one workload, from one traced pass.

    ``timed`` and ``baseline`` are the untraced passes the wall ratios are
    taken against; ``ratio`` names the metric the baseline ratio reports
    under.  A layer the workload never enters reads 0.
    """
    phases = _Phases(traced["phases"])
    exact = traced["exact"]
    everywhere = _SETUP + _TIMED
    values: dict[str, float] = dict.fromkeys(_PER_LAYER_NAMES, 0)

    values["sweep.build_engine_s"] = phases.total_s("sweep.build_engine", phases=_SETUP)
    values["sweep.summarise_s"] = phases.self_s("harness.summarise")
    values["simulation.workloads.build_s"] = phases.total_s(
        "simulation.workloads.build", phases=everywhere
    )
    values["simulation.arrivals.schedule_s"] = phases.total_s(
        "simulation.arrivals.schedule", phases=everywhere
    )
    values["harness.import_s"] = phases.total_s("harness.import", phases=_SETUP)

    values["simulation.engine.self_s"] = phases.self_s(*phases.keys("simulation.engine."))
    values["simulation.engine.decisions_per_s"] = exact[
        "simulation.engine.decisions"
    ] / _median_wall(timed, "run_s")

    hooks = [key for key in phases.keys("scheduler.") if not key.startswith("scheduler.on_operation.")]
    named = {"scheduler.on_operation", *(f"scheduler.{name}" for name in _TIMED_HOOKS)}
    operations = phases.calls("scheduler.on_operation")
    values["scheduler.on_operation_s"] = phases.total_s("scheduler.on_operation")
    values["scheduler.on_operation_calls"] = operations
    for name in _TIMED_HOOKS:
        values[f"scheduler.{name}_s"] = phases.total_s(f"scheduler.{name}")
    values["scheduler.other_hooks_s"] = phases.self_s(*(k for k in hooks if k not in named))
    values["scheduler.self_s"] = phases.self_s(*hooks)
    values["scheduler.grant_share"] = phases.calls("scheduler.on_operation.GRANT") / max(1, operations)
    values["scheduler.blocks"] = phases.calls("scheduler.on_operation.BLOCK")

    for name in ("nx_dag_checks", "nx_graph_copies", "nx_has_path_calls", "sg_edges"):
        values[f"core.graphs.{name}"] = phases.calls(f"core.graphs.{name}")
    values["core.graphs.sg_build_s"] = phases.total_s("core.graphs.serialisation_graph")

    recording = [
        f"core.history.{name}" for name in ("begin_top_level", "invoke", "record_local", "finish")
    ]
    values["core.history.record_s"] = phases.total_s(*recording)
    values["core.history.build_s"] = phases.total_s("core.history.build")
    values["core.history.committed_projection_s"] = phases.total_s("core.history.committed_history")
    values["core.history.steps"] = phases.calls("core.history.invoke", "core.history.record_local")

    values["core.state.record_s"] = phases.total_s("core.state.record")
    values["core.state.undo_s"] = phases.total_s("core.state.undo")
    values["core.state.undo_calls"] = phases.calls("core.state.undo")
    values["core.state.prune_s"] = phases.total_s("core.state.prune")

    values["analysis.streaming.note_commit_s"] = phases.total_s("analysis.streaming.note_commit")
    values["analysis.streaming.collect_garbage_s"] = phases.total_s(
        "analysis.streaming.collect_garbage"
    )
    values["analysis.streaming.self_s"] = phases.self_s(*phases.keys("analysis.streaming."))

    traced_wall = traced["wall"]["commit_wall_s"]
    values["analysis.certify.certify_run_s"] = phases.total_s("analysis.certify.certify_run")
    values["analysis.certify.wall_share"] = values["analysis.certify.certify_run_s"] / traced_wall
    values["analysis.certify.sg_nodes"] = phases.calls("analysis.certify.sg_nodes")
    values["analysis.certify.sg_edges"] = phases.calls("analysis.certify.sg_edges")

    values["shard.engine.worker_round_s"] = phases.total_s("shard.engine.worker.round")
    values["shard.engine.finalize_s"] = phases.total_s("shard.engine.worker.finalize")
    values["shard.coordinator.process_round_s"] = phases.total_s("shard.coordinator.process_round")

    untraced_wall = _median_wall(timed, "commit_wall_s")
    if ratio is not None:
        values[ratio] = untraced_wall / _median_wall(baseline, "commit_wall_s")
    values["harness.calibration_s"] = calibration_s
    values["harness.trace_overhead_ratio"] = traced_wall / untraced_wall

    # Counts the run reports about itself (identical in every pass).
    for name in values:
        if name in exact:
            values[name] = exact[name]
    return values
