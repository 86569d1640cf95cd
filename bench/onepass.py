"""One pass of one workload in a fresh interpreter: spec in, certified result out.

Run by ``bench.run`` as ``python -m bench.onepass``; prints one JSON line.
The pass goes through the public ``repro`` surface exactly as
``repro.sweep.run_scenario`` does — ``ScenarioSpec`` validation,
``build_engine`` (or ``ShardedEngine``), ``run``, ``summarise_run`` — split
into phases so that set-up, run and certification each get a wall.  The
output checks run afterwards, untimed and untraced.

Pass kinds: ``timed`` (no wrappers: the end-to-end numbers), ``traced``
(wrappers from ``bench/trace.py`` installed: the per-layer numbers),
``baseline`` (the workload's spec with its ``baseline`` override, for a wall
ratio) and ``prefix`` (the first arrivals of an uncertified workload, run
again with post-hoc certification).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

# ``python -m bench.onepass`` from the checkout root: the program under test
# is the source tree next to this package, not an installed copy.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bench.metrics import (  # noqa: E402
    ABORT_REASONS,
    COORDINATOR_COUNTERS,
    DESCRIBE_COUNTERS,
)
from bench.trace import Tracer, install  # noqa: E402
from bench.workloads import (  # noqa: E402
    ORDERS_CUSTOMERS,
    ORDERS_INITIAL_BALANCE,
    WORKLOADS,
    Workload,
)

KINDS = ("timed", "traced", "baseline", "prefix")


def spec_fields(workload: Workload, kind: str, seed: int, scale: float) -> dict:
    """The ``ScenarioSpec`` fields of one pass of ``workload``."""
    fields = workload.fields(seed, scale)
    if kind == "baseline":
        fields.update(workload.baseline)
    elif kind == "prefix":
        inner = fields["workload_params"]["inner_params"]
        inner["transactions"] = min(inner["transactions"], workload.certified_prefix)
        fields.update(certify=True, check_legality=True)
    return fields


def exact_record(result, sharded: bool) -> dict[str, float]:
    """Everything about the run that must repeat bit for bit at a fixed seed."""
    metrics = result.metrics
    record = {
        "commit_rate": metrics.commit_rate,
        "sim_latency_mean_ticks": metrics.mean_latency,
        "sim_commits_per_ktick": 1000 * metrics.committed / max(1, metrics.total_ticks),
        "submitted": metrics.submitted,
        "committed": metrics.committed,
        "simulation.engine.decisions": metrics.decisions,
        "simulation.engine.local_steps": metrics.local_steps,
        "simulation.engine.wasted_step_share": metrics.wasted_fraction,
        "simulation.engine.aborted_attempts": metrics.aborted_attempts,
        "simulation.engine.restarts": metrics.restarts,
        "simulation.engine.parks": metrics.parks,
        "simulation.engine.wakes": metrics.wakes,
        "simulation.engine.forced_wakes": metrics.forced_wakes,
        "simulation.engine.gave_up": metrics.gave_up,
        "simulation.engine.in_flight_peak": metrics.in_flight_peak,
        "simulation.engine.live_state_peak": metrics.live_state_peak,
    }
    for reason in ABORT_REASONS:
        record[f"scheduler.aborts.{reason}"] = metrics.aborts_by_reason.get(reason, 0)
    descriptions = (
        [outcome.scheduler_description for outcome in result.shards]
        if sharded
        else [result.scheduler_description]
    )
    for counter in DESCRIBE_COUNTERS:
        record[f"scheduler.{counter}"] = sum(d.get(counter, 0) for d in descriptions)
    coordinator = result.coordinator if sharded else {}
    record["shard.engine.rounds"] = result.rounds if sharded else 0
    record["shard.engine.remote_invocations"] = metrics.remote_invocations
    for counter in COORDINATOR_COUNTERS:
        record[f"shard.coordinator.{counter}"] = coordinator.get(counter, 0)
    return record


def check_verdicts(spec, row) -> list[str]:
    """Whatever certification the spec asked for must have come out clean."""
    failures = []
    if spec.certify:
        if row.get("serialisable") is not True:
            failures.append(f"serialisable is {row.get('serialisable')!r}")
        if spec.check_legality and row.get("legal") is not True:
            failures.append(f"legal is {row.get('legal')!r}")
    return failures


def check_conservation(workload: Workload, spec, result) -> list[str]:
    """The workload's conservation law over the run's final object states."""
    from repro.simulation import make_workload

    failures = []
    metrics = result.metrics
    states = result.final_states()
    if workload.conservation == "registers":
        # Each committed update adds 1 to every register it names, so a
        # register's final value counts the committed updates naming it: a
        # lost update, on one engine or across shards, shows as a shortfall.
        _, transactions = make_workload(spec.workload, **spec.workload_params).build()
        named = Counter(name for txn in transactions for name in txn.arguments[0])
        final = {
            name: state["value"] for name, state in states.items() if "value" in state
        }
        if metrics.committed == metrics.submitted:
            wrong = {
                name: (final.get(name, 0), named.get(name, 0))
                for name in named.keys() | final.keys()
                if final.get(name, 0) != named.get(name, 0)
            }
            if wrong:
                failures.append(f"increment conservation: (final, expected) {wrong}")
        else:
            per_transaction = len(transactions[0].arguments[0])
            if sum(final.values()) != per_transaction * metrics.committed:
                failures.append(
                    f"increment conservation: registers sum to {sum(final.values())}, "
                    f"{metrics.committed} commits x {per_transaction} increments expected"
                )
    elif workload.conservation == "orders":
        # An order moves its price from a customer into a queued parcel, a
        # fulfilment from parcels into the merchant account.
        balances = sum(
            state["balance"] for state in states.values() if "balance" in state
        )
        queued = sum(parcel[2] for parcel in states["fulfilment-queue"]["items"])
        total = balances + queued
        if total != ORDERS_CUSTOMERS * ORDERS_INITIAL_BALANCE:
            failures.append(
                f"money conservation: {total} != {ORDERS_CUSTOMERS * ORDERS_INITIAL_BALANCE}"
            )
    return failures


def peak_rss_mb() -> float:
    """High-water mark of this process image's resident set.

    ``VmHWM`` rather than ``ru_maxrss``: the latter is seeded at ``exec`` with
    the peak of the address space the process was forked from, so it would
    read the parent harness's memory on a small pass.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    entered_ns = time.monotonic_ns()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--kind", required=True, choices=KINDS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--spawned-ns", type=int, default=entered_ns,
                        help="time.monotonic_ns() of the parent just before the spawn")
    parser.add_argument("--trace-out", type=Path, help="write the traced pass's spans here")
    parser.add_argument("--conservation", action="store_true",
                        help="also check the workload's conservation law (replays the "
                        "committed history: seconds, so once per invocation)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    tracer = Tracer(workload.name)

    with tracer.span("harness.setup"):
        with tracer.span("harness.import"):
            from repro.shard import ShardedEngine, ShardMap
            from repro.sweep import (
                ScenarioSpec,
                build_engine,
                summarise_run,
                summarise_sharded_run,
            )
        spec = ScenarioSpec(**spec_fields(workload, args.kind, args.seed, args.scale))
    sharded = spec.shards > 1
    if args.kind == "traced":
        install(tracer, spec)
    try:
        with tracer.span("harness.setup"):
            if sharded:
                shard_map = ShardMap(shards=spec.shards, assignment=spec.shard_assignment)
                engine = ShardedEngine(spec, shard_map, check_legality=spec.check_legality)
            else:
                with tracer.span("sweep.build_engine"):
                    engine = build_engine(spec)
        with tracer.span("harness.run"):
            result = engine.run()
        with tracer.span("harness.summarise"):
            if sharded:
                row = summarise_sharded_run(result, spec.scheduler)
            else:
                row = summarise_run(
                    result,
                    spec.scheduler,
                    certify=spec.certify,
                    check_legality=spec.check_legality,
                )
    finally:
        tracer.restore()
    peak = peak_rss_mb()
    failures = check_verdicts(spec, row)
    if args.conservation:
        failures += check_conservation(workload, spec, result)
    if args.trace_out is not None:
        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(args.trace_out)
    print(
        json.dumps(
            {
                "workload": workload.name,
                "kind": args.kind,
                "seed": args.seed,
                "scale": args.scale,
                "failures": failures,
                "exact": exact_record(result, sharded),
                "wall": {
                    "setup_s": (entered_ns - args.spawned_ns) / 1e9
                    + tracer.duration_s("harness.setup"),
                    "run_s": tracer.duration_s("harness.run"),
                    "commit_wall_s": tracer.duration_s("harness.run")
                    + tracer.duration_s("harness.summarise"),
                    "peak_rss_mb": peak,
                },
                "phases": tracer.phases,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
