"""E18 — sharded execution: identity, transport and μ on an E15-style stream.

PR 6 made each scheduling decision cheap, but a single engine still makes
*one* decision per tick, so service capacity tops out near μ ≈ 0.055–0.065
txns/tick on the E15 hotspot config no matter how fast the loop runs.
PR 8 shards the engine: a :class:`~repro.shard.ShardMap` partitions the
object space, one full :class:`~repro.simulation.SimulationEngine` runs
per shard between barriers that fall where a cross-shard message is due,
and the
:class:`~repro.shard.InterShardCoordinator` resolves cross-shard
transactions with two-phase votes over a global precedence graph.  This
benchmark regenerates the claims that make sharding usable:

1. **shards=1 is the plain engine** — the single-shard run must match an
   unsharded run of the same spec bit for bit (metrics, committed ids,
   final states).  Asserted unconditionally.
2. **the transport is invisible** — the ``multiprocess`` mode (one OS
   process per shard) must match the in-process oracle bit for bit at
   every shard count.  Asserted unconditionally.
3. **μ scales with shards** — recorded, never asserted.  Measured μ
   (committed transactions per wall-second, best of
   ``REPRO_E18_REPEATS`` runs) should improve 1.8× from one to two
   shards in multiprocess mode on a host with ≥4 free CPUs (a CPU-bound
   fan-out cannot beat serial on one core).  The walls, μ ratios and host
   CPU count are in every row, so a recorded row always states the
   hardware it was measured on.

Every count, rate and verdict of a full-size run is pinned to the golden
``BENCH_e18_sharding.json``.

The scaling grid is the E15 open-system shape — a saturating Poisson
hotspot stream with mid-stream GC — restricted to single-operation
transactions so every transaction is shard-local: it measures the
partition's parallel headroom, not 2PC contention.  A separate ``cross``
case splits the hot pair across shards under multi-operation contention,
so the rows also track the coordinator's decision counters
(cross-shard commits, precedence-cycle aborts and the aborts of wait
cycles through several shards) on a workload where distributed
deadlocks actually happen.

``REPRO_E18_ARRIVALS`` shortens the stream for local iteration; a
shortened grid is written to ``benchmarks/out/`` marked as such and is
not pinned to the golden.

Sharded runs must not themselves be nested inside a multiprocessing
pool: the multiprocess transport spawns daemon processes, which daemonic
pool workers cannot.  Everything here runs serially in the test process.
"""

from __future__ import annotations

from repro.shard import ShardMap, ShardedEngine
from repro.sweep import ScenarioSpec, build_engine, summarise_run, summarise_sharded_run

from .harness import Experiment, cpu_count, hotspot_spec, timed_best

#: Arrivals in the scaling stream: the variable that shortens it (the full
#: size, 400, is the golden's).
SIZE = "REPRO_E18_ARRIVALS"

#: The cross-shard contention case is abort-heavy, so it runs a smaller
#: closed batch; shortened smoke runs shrink it along with the stream.
CROSS_TRANSACTIONS = 120

SEED = 1818
SHARD_COUNTS = (1, 2, 4)
GC_INTERVAL = 64

#: Pin the hot pair together so the scaling grid is dominated by local
#: work; the hashed cold tail spreads the rest of the load.
COLOCATED_HOT = {"hot-0": 0, "hot-1": 0}
#: Split the hot pair for the contention case: most transactions become
#: cross-shard and the coordinator's cycle tests earn their keep.
SPLIT_HOT = {"hot-0": 0, "hot-1": 1}


def _scaling_spec(arrivals: int) -> ScenarioSpec:
    # The E15 open-system shape (Poisson hotspot stream, mid-stream GC)
    # at a rate that saturates a single engine, restricted to
    # single-operation transactions: every transaction lives on one
    # shard, so the grid measures the partition's parallel headroom
    # rather than 2PC contention (the ``cross`` case measures that).
    # Per-shard post-hoc certification stands in for E15's streaming
    # certifier, which is (deliberately) rejected on sharded runs.
    return hotspot_spec(
        "n2pl", arrivals, SEED, rate=0.25, certify=True,
        engine_params={"gc_interval": GC_INTERVAL},
        cold_objects=48, operations_per_transaction=1,
    )


def _cross_spec(scheduler: str, transactions: int) -> ScenarioSpec:
    return hotspot_spec(
        scheduler, transactions, SEED, certify=True,
        cold_objects=16, operations_per_transaction=3, hot_probability=0.5,
    )


def _spec_transactions(spec: ScenarioSpec) -> int:
    params = spec.workload_params
    return (params.get("inner_params") or params)["transactions"]


def _outcome(result) -> tuple:
    """The comparison projection: merged metrics, commits, final states."""
    return (
        result.metrics.as_dict(),
        result.committed_transaction_ids,
        result.final_states(),
        result.coordinator,
    )


def _run_sharded(spec: ScenarioSpec, shard_map: ShardMap, mode: str, repeats: int):
    """Run one sharded config; ``(result, best wall of repeats)``."""
    wall, result, _ = timed_best(
        repeats,
        lambda: ShardedEngine(
            spec,
            shard_map,
            mode=mode,
            mp_context="fork" if mode == "multiprocess" else None,
        ),
    )
    return result, wall


def _bench_row(case, mode, spec, shards, row, coordinator, wall, cpu) -> dict:
    return {
        "case": case,
        "mode": mode,
        "scheduler": spec.scheduler,
        "shards": shards,
        "transactions": _spec_transactions(spec),
        "committed": row["committed"],
        "gave_up": row["gave_up"],
        "commit_rate": row["commit_rate"],
        "throughput": row["throughput"],
        "makespan": row["makespan"],
        "mu_wall": round(row["committed"] / max(wall, 1e-9), 2),
        "mu_ratio_vs_one": None,
        "remote_invocations": row.get("remote_invocations", 0),
        "cross_commits": row.get("cross_commits", 0),
        "cross_aborts": row.get("cross_aborts", 0),
        "cycle_aborts": coordinator.get("cycle_aborts", 0),
        "wait_cycle_aborts": coordinator.get("wait_cycle_aborts", 0),
        "shard_rounds": row.get("shard_rounds", 0),
        "serialisable": row["serialisable"],
        "wall_seconds": round(wall, 6),
        "cpu_count": cpu,
    }


def run_experiment(sizing) -> list[dict]:
    cpu = cpu_count()
    repeats = sizing.repeats
    rows: list[dict] = []
    spec = _scaling_spec(sizing[SIZE])

    # Plain-engine reference: the unsharded row the shards=1 run must hit.
    # Its wall covers building the engine, as a sharded run's covers
    # building its workers.
    plain_wall, plain_result, _ = timed_best(
        repeats, lambda: spec, lambda spec: build_engine(spec).run()
    )
    plain_row = summarise_run(plain_result, spec.scheduler, certify=True)
    plain_reference = (
        plain_result.metrics.as_dict(),
        tuple(plain_result.committed_transaction_ids),
        {name: dict(state) for name, state in plain_result.final_states().items()},
    )
    rows.append(
        _bench_row("scaling", "plain", spec, 1, plain_row, {}, plain_wall, cpu)
    )

    for shards in SHARD_COUNTS:
        shard_map = ShardMap(
            shards=shards, assignment=COLOCATED_HOT if shards > 1 else {}
        )
        inproc, inproc_wall = _run_sharded(spec, shard_map, "inprocess", repeats)
        multi, multi_wall = _run_sharded(spec, shard_map, "multiprocess", repeats)

        inproc_row = summarise_sharded_run(inproc, spec.scheduler)
        multi_row = summarise_sharded_run(multi, spec.scheduler)
        bench_inproc = _bench_row(
            "scaling", "inprocess", spec, shards, inproc_row,
            inproc.coordinator, inproc_wall, cpu,
        )
        bench_multi = _bench_row(
            "scaling", "multiprocess", spec, shards, multi_row,
            multi.coordinator, multi_wall, cpu,
        )
        if shards == 1:
            # Claim 1: the single-shard run *is* the plain engine.
            bench_inproc["matches_plain"] = (
                _outcome(inproc)[:3] == plain_reference
                and all(plain_row[key] == inproc_row[key] for key in plain_row)
            )
        # Claim 2: the transport moves bytes, never behaviour.
        bench_multi["matches_inprocess"] = _outcome(multi) == _outcome(inproc)
        rows.extend((bench_inproc, bench_multi))

    # Claim 3's record: per-shard-count μ over the same mode's 1-shard μ.
    one_shard_mu = {
        row["mode"]: row["mu_wall"]
        for row in rows
        if row["case"] == "scaling" and row["shards"] == 1
    }
    for row in rows:
        base = one_shard_mu.get(row["mode"], 0.0)
        row["mu_ratio_vs_one"] = round(row["mu_wall"] / max(base, 1e-9), 2)

    # Cross-shard contention: split hot pair, coordinator under fire.
    for scheduler in ("n2pl", "certifier"):
        cross_spec = _cross_spec(scheduler, min(CROSS_TRANSACTIONS, sizing[SIZE]))
        shard_map = ShardMap(shards=2, assignment=SPLIT_HOT)
        result, wall = _run_sharded(cross_spec, shard_map, "inprocess", repeats)
        row = summarise_sharded_run(result, scheduler)
        rows.append(
            _bench_row("cross", "inprocess", cross_spec, 2, row,
                       result.coordinator, wall, cpu)
        )

    return rows


EXPERIMENT = Experiment(
    name="e18_sharding",
    title="E18: sharded execution — identity, transport, μ scaling",
    columns=(
        "case", "mode", "scheduler", "shards", "committed", "gave_up",
        "commit_rate", "throughput", "mu_wall", "mu_ratio_vs_one",
        "remote_invocations", "cross_commits", "cross_aborts", "cycle_aborts",
        "wait_cycle_aborts", "shard_rounds", "serialisable", "wall_seconds", "cpu_count",
    ),
    key_fields=("case", "mode", "scheduler", "shards"),
    run=run_experiment,
    full_sizes={SIZE: 400},
    repeats=("REPRO_E18_REPEATS", 1),
    pinned=(
        "committed", "gave_up", "commit_rate", "throughput", "makespan",
        "remote_invocations", "cross_commits", "cross_aborts", "cycle_aborts",
        "wait_cycle_aborts", "shard_rounds", "serialisable",
    ),
)


def test_e18_sharding(benchmark):
    rows = EXPERIMENT.execute(benchmark)
    by_key = {(row["case"], row["mode"], row["shards"]): row for row in rows}
    # Determinism is hardware-independent: always enforced.
    assert by_key[("scaling", "inprocess", 1)]["matches_plain"], (
        "shards=1 diverged from the plain engine"
    )
    for shards in SHARD_COUNTS:
        assert by_key[("scaling", "multiprocess", shards)]["matches_inprocess"], (
            f"multiprocess transport diverged from the in-process oracle at {shards} shards"
        )
    for row in rows:
        label = f"{row['case']}/{row['mode']}/{row['shards']}"
        assert row["serialisable"] is True, f"{label}: committed projection not serialisable"
        assert row["committed"] + row["gave_up"] == row["transactions"], (
            f"{label}: {row['committed']} + {row['gave_up']} != {row['transactions']}"
        )
    for row in rows:
        if row["case"] == "cross":
            assert row["remote_invocations"] > 0, "cross case never crossed a shard"
            assert row["cross_commits"] > 0, "cross case committed nothing through 2PC"
            assert row["wait_cycle_aborts"] + row["cycle_aborts"] > 0, (
                "cross case never needed the coordinator's cycle tests"
            )


if __name__ == "__main__":  # pragma: no cover - manual/CI smoke entry point
    EXPERIMENT.execute()
