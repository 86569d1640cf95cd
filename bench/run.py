"""The benchmark: every scheduler and mode, end to end and layer by layer.

    python3 -m bench.run                      # all five workloads, untraced
    python3 -m bench.run --trace              # ... plus the per-layer numbers
    python3 -m bench.run --workload NAME --seed N --seconds S --trace 0|1

Each workload is a ``ScenarioSpec`` made from ``--seed`` (bench/workloads.py)
and run in *passes*: one fresh interpreter per pass (bench/onepass.py), one
pass at a time, so set-up and peak memory are those of a cold process and
never more than one process is busy.  A workload is given passes until
``--seconds`` of measuring are used up, and at least three, so that every
wall metric is a median; ``--repeats`` fixes the count instead.  Workloads
take turns pass by pass, so host drift hits all of them alike.

``--trace 1`` measures a cycle of three passes instead — traced, untraced,
and the workload's baseline variant — and reports the per-layer metrics.

Prints every metric by name with its unit, then, as the last line, one JSON
object per workload with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits 1 if an output or determinism check fails, 2 if a pass
could not be run at all (then no result line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
# Runnable both as ``python3 -m bench.run`` and as ``python3 bench/run.py``.
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import metrics  # noqa: E402
from bench.workloads import WORKLOADS, Workload  # noqa: E402

OUT = ROOT / "bench" / "out"
DEFAULT_SECONDS = 10
MIN_TIMED_PASSES = 3
PASS_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """A pass could not be run: there is no result to report."""


class Calibration:
    """A fixed pure-Python loop whose duration tracks the host's current speed.

    This VM's neighbours slow the same pass by 10-50% for minutes at a time,
    and they do it through the memory system: an arithmetic loop barely
    notices, while a loop that chases ~60 MB of small objects slows with the
    workloads.  So the loop does what the simulator does all day — dictionary
    lookups in no particular order, tuple and dictionary building — over more
    memory than the caches hold.  It shares no code with ``src/``: nothing a
    change to the program does can move it.
    """

    #: A typical reading on this box.  Only ratios to it are used, so on
    #: another host it moves both sides of every comparison alike.
    REFERENCE_S = 0.25
    #: The loop is hit harder than the workloads are, and by how much depends
    #: on what the neighbours are doing: where it read k times slower, walls
    #: were k**0.7 times longer in one noisy hour and k**0.3 in another.  Of
    #: four ten-seed sets of all five workloads, raw medians of two sets
    #: disagreed by up to 35%; with this exponent by at most 10% (0.5-0.6
    #: is the flat bottom; see "Host noise" in bench/README.md).
    EXPONENT = 0.55

    @classmethod
    def host_factor(cls, reading_s: float) -> float:
        """How many times longer than on the reference host a wall now is."""
        return (reading_s / cls.REFERENCE_S) ** cls.EXPONENT

    def __init__(self) -> None:
        order = random.Random(1)
        self._table = {index: (index, str(index)) for index in range(400_000)}
        self._order = [order.randrange(400_000) for _ in range(600_000)]

    def __call__(self) -> float:
        started = time.perf_counter()
        table = self._table
        total = 0
        for index in self._order:
            total += table[index][0]
        built = {}
        for key, value in [(index, index + 1) for index in range(200_000)]:
            built[key] = value
        return time.perf_counter() - started


@dataclass
class Measurement:
    """The passes of one workload, by kind, and the harness's own readings."""

    workload: Workload
    passes: dict[str, list[dict[str, Any]]] = field(default_factory=dict)
    calibrations: list[float] = field(default_factory=list)
    cycles: int = 0
    spent_s: float = 0.0
    last_cycle_s: float = 0.0


def run_pass(measurement: Measurement, kind: str, args) -> None:
    """One pass in a fresh interpreter; its JSON line joins the measurement."""
    name = measurement.workload.name
    command = [
        sys.executable, "-m", "bench.onepass",
        "--workload", name, "--kind", kind,
        "--seed", str(args.seed), "--scale", repr(args.scale),
    ]  # fmt: skip
    if kind == "traced":
        command += ["--trace-out", str(OUT / f"trace-{name}.json")]
    if not measurement.passes or kind == "prefix":
        # Passes of one spec are identical (checked below), so the final
        # states need replaying once per invocation, not once per pass.
        command.append("--conservation")
    # A fixed hash seed: the simulation does not depend on it, but set and
    # dict layouts, and with them the wall, do.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    command += ["--spawned-ns", str(time.monotonic_ns())]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{name}: {kind} pass exceeded {PASS_TIMEOUT_S} s") from error
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(
            f"{name}: {kind} pass exited with code {done.returncode}\n{done.stderr[-4000:]}"
        )
    measurement.passes.setdefault(kind, []).append(json.loads(done.stdout.splitlines()[-1]))


def measure(workloads: list[Workload], args) -> list[Measurement]:
    """Give every workload its passes, taking turns."""
    minimum = 1 if args.trace else MIN_TIMED_PASSES
    measurements = [Measurement(workload) for workload in workloads]
    calibrate = Calibration()
    pending = list(measurements)
    while pending:
        for measurement in list(pending):
            workload = measurement.workload
            cycle = ["timed"]
            if args.trace:
                cycle = ["traced", "timed"] + (["baseline"] if workload.baseline else [])
            if workload.certified_prefix and measurement.cycles == 0:
                cycle.append("prefix")
            started = time.perf_counter()
            # Readings bracket every pass: workloads take turns, so the end
            # of this workload's last cycle says nothing about now.
            measurement.calibrations.append(calibrate())
            for kind in cycle:
                run_pass(measurement, kind, args)
                measurement.calibrations.append(calibrate())
            measurement.last_cycle_s = time.perf_counter() - started
            measurement.spent_s += measurement.last_cycle_s
            measurement.cycles += 1
            if args.repeats is not None:
                finished = measurement.cycles >= args.repeats
            else:
                finished = (
                    measurement.cycles >= minimum
                    and measurement.spent_s + measurement.last_cycle_s > args.seconds
                )
            if finished:
                pending.remove(measurement)
    return measurements


def check(measurement: Measurement) -> list[str]:
    """Output checks of every pass, then the determinism checks."""
    failures = []
    for kind, passes in measurement.passes.items():
        for index, one in enumerate(passes):
            failures += [f"{kind} pass {index}: {message}" for message in one["failures"]]
    # The same spec, traced or not, must make the same decisions.
    same_spec = measurement.passes.get("timed", []) + measurement.passes.get("traced", [])
    reference = same_spec[0]["exact"]
    for one in same_spec[1:]:
        differing = sorted(key for key in reference if one["exact"][key] != reference[key])
        if differing:
            failures.append(
                f"not deterministic: {one['kind']} pass differs from "
                f"{same_spec[0]['kind']} pass in {differing}"
            )
    return failures


def layer_values(
    measurement: Measurement, calibration_s: float
) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of the first traced pass; traced passes must agree."""
    passes = measurement.passes
    per_pass = [
        metrics.per_layer(
            traced,
            passes["timed"],
            passes.get("baseline", []),
            measurement.workload.ratio,
            calibration_s,
        )
        for traced in passes["traced"]
    ]
    failures = [
        f"not deterministic: traced passes differ in {name}"
        for name in metrics.TRACE_COUNTS
        if any(values[name] != per_pass[0][name] for values in per_pass[1:])
    ]
    return per_pass[0], failures


def report(measurement: Measurement, args, *, labelled: bool) -> tuple[str, dict[str, Any]]:
    """The printed block and the result line of one workload."""
    workload = measurement.workload
    timed = measurement.passes["timed"]
    counted = timed + measurement.passes.get("traced", [])
    failures = check(measurement)
    lines = [
        f"== {workload.name}  seed {args.seed}  scale {args.scale:g}  passes "
        + ", ".join(f"{kind} {len(passes)}" for kind, passes in measurement.passes.items())
    ]
    calibration = metrics.spread(measurement.calibrations)
    host_factor = Calibration.host_factor(calibration["median"])
    end_to_end = metrics.end_to_end(timed, host_factor, correct=not failures)
    units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
    for name, value in end_to_end.items():
        if isinstance(value, dict):
            lines.append(
                f"  {name:<44} {value['median']:>14.6g} {units[name]:<10} median of "
                f"{value['n']}  q1 {value['q1']:.6g}  q3 {value['q3']:.6g}  "
                f"min {value['min']:.6g}  max {value['max']:.6g}"
            )
        else:
            lines.append(f"  {name:<44} {value:>14.6g} {units[name]:<10} exact")
    if args.trace:
        layers, trace_failures = layer_values(measurement, calibration["median"])
        failures += trace_failures
        for name, unit, _ in metrics.PER_LAYER:
            lines.append(f"  {name:<44} {layers[name]:>14.6g} {unit}")
        result_metrics = {
            name: {"value": layers[name], "unit": unit} for name, unit, _ in metrics.PER_LAYER
        }
    else:
        lines.append(
            f"  {'harness.calibration_s':<44} {calibration['median']:>14.6g} {'s':<10} median of "
            f"{calibration['n']}  min {calibration['min']:.6g}  max {calibration['max']:.6g}"
            f"  (host factor {host_factor:.4f})"
        )
        result_metrics = {
            name: {
                "value": value["median"] if isinstance(value, dict) else value,
                "unit": units[name],
            }
            for name, value in end_to_end.items()
        }
    lines.append("  checks: " + ("ok" if not failures else "FAILED"))
    lines += [f"    {message}" for message in failures]
    attempted = sum(one["exact"]["submitted"] for one in counted)
    committed = sum(one["exact"]["committed"] for one in counted)
    result: dict[str, Any] = {
        "correct": not failures,
        "attempted": attempted,
        # What is not serialisable and legal has not been committed.
        "failed": attempted - committed if not failures else attempted,
        "metrics": result_metrics,
    }
    if labelled:
        result = {"workload": workload.name, **result}
    if args.scale != 1:
        result["comparable"] = False
    return "\n".join(lines), result


def parse(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all, in turn")
    parser.add_argument("--seed", type=int, default=12,
                        help="feeds workload generation and the engine (default 12)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring time per workload (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: traced cycle and per-layer metrics")
    parser.add_argument("--repeats", type=int,
                        help="passes (cycles under --trace) per workload, instead of --seconds")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies transaction counts; a smoke run, not comparable")
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < (1 if args.trace else MIN_TIMED_PASSES):
        parser.error(f"--repeats must be at least {MIN_TIMED_PASSES} (1 under --trace)")
    if args.scale <= 0:
        parser.error("--scale must be positive")
    return args


def main(argv=None) -> int:
    args = parse(argv)
    workloads = [WORKLOADS[args.workload]] if args.workload else list(WORKLOADS.values())
    try:
        measurements = measure(workloads, args)
    except BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    blocks, results = zip(
        *(report(one, args, labelled=len(workloads) > 1) for one in measurements)
    )
    print("\n".join(blocks))
    for result in results:
        print(json.dumps(result))
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
