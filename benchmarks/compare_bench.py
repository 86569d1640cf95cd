"""Diff the latest recorded benchmark sweeps against their committed baselines.

The watched benchmarks append one row per configuration to their
``BENCH_*.json`` trajectory on every sweep, so the first recorded row per
configuration is the committed baseline and the last is the sweep that
just ran.  This script compares the two and reports when a watched ratio
dropped by more than ``THRESHOLD`` — the watched columns are
machine-independent by construction, so a drop means behaviour (or the
fast path) regressed, wherever the sweep ran.  Run it as
``python -m benchmarks.compare_bench``.

By default regressions *warn* (GitHub Actions ``::warning::``
annotations; exit code stays 0).  With ``--fail-on-regression`` they
become ``::error::`` annotations and the exit code is 1 when any
regression fired, which is how CI gates pull requests while staying
warn-only on pushes.

Watched files:

* ``BENCH_e14_restart_policies.json`` — each restart/contention policy's
  ``recovery_ratio`` (its commit rate over the storm baseline's), a pure
  function of the deterministic scenario spec.
* ``BENCH_e15_open_system.json`` — each open-system scenario's
  ``commit_rate`` and ``throughput`` (committed over makespan), pure
  functions of the deterministic arrival stream.
* ``BENCH_e16_hot_loop.json`` — each configuration's
  ``speedup_vs_baseline`` (decisions/second over the committed
  pre-rewrite row's).
* ``BENCH_e17_streaming_certification.json`` — each scheduler's
  ``certify_relative_throughput`` (plain wall clock over certified wall
  clock, an in-run ratio): the streaming certifier's O(new-work)
  overhead drifting back towards post-hoc cost shows up here.
* ``BENCH_e18_sharding.json`` — each shard count's ``mu_ratio_vs_one``
  (measured μ over the same mode's 1-shard μ, an in-run wall ratio)
  plus ``commit_rate`` as the deterministic canary: the sharded engine's
  parallel headroom eroding — or a coordinator change that thrashes
  more — shows up here.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
THRESHOLD = 1.30  # flag when a watched ratio degrades beyond 30%


@dataclass(frozen=True)
class Watch:
    """One benchmark trajectory file and the ratio columns to guard.

    ``noise_floor`` optionally names a (column, minimum) pair the
    *baseline* row must satisfy for its configuration to be compared at
    all: wall-time ratios built on sub-millisecond measurements are pure
    scheduling jitter, and gating pull requests on jitter would make CI
    flaky.  Configurations below the floor count as not-compared.
    """

    name: str
    path: Path
    key_fields: tuple[str, ...]
    columns: tuple[str, ...]
    noise_floor: tuple[str, float] | None = None


WATCHES = (
    Watch(
        name="E14",
        path=BENCH_DIR / "BENCH_e14_restart_policies.json",
        key_fields=("policy",),
        columns=("recovery_ratio",),
    ),
    Watch(
        name="E15",
        path=BENCH_DIR / "BENCH_e15_open_system.json",
        key_fields=("scheduler", "arrival"),
        columns=("commit_rate", "throughput"),
    ),
    Watch(
        name="E16",
        path=BENCH_DIR / "BENCH_e16_hot_loop.json",
        # ``engine`` in the key keeps the committed ``pre_pr`` rows out of
        # the comparison (they are a single sweep, never re-recorded); the
        # ratio column is the event/baseline throughput factor.
        key_fields=("scheduler", "mode", "engine"),
        columns=("speedup_vs_baseline",),
        # Stream scenarios finish in about half a second; anything quicker
        # than the floor is timing jitter, not signal.
        noise_floor=("wall_seconds", 0.25),
    ),
    Watch(
        name="E17",
        path=BENCH_DIR / "BENCH_e17_streaming_certification.json",
        key_fields=("scheduler",),
        # The certification overhead as a *throughput* ratio (plain wall
        # over certified wall) so that, like every watched column, higher
        # is better; ``commit_rate`` rides along as the determinism canary.
        columns=("certify_relative_throughput", "commit_rate"),
        # Both walls come from the same in-process run pair, but a plain
        # run quicker than the floor makes the ratio scheduling jitter.
        noise_floor=("wall_seconds_plain", 0.25),
    ),
    Watch(
        name="E18",
        path=BENCH_DIR / "BENCH_e18_sharding.json",
        key_fields=("case", "mode", "scheduler", "shards"),
        # ``mu_ratio_vs_one`` is each shard count's measured μ over the
        # same mode's 1-shard μ — an in-run wall ratio, so it needs the
        # noise floor; ``commit_rate`` rides along as the deterministic
        # canary (a coordinator change that thrashes more degrades it
        # identically on every machine).  The cross rows carry no μ ratio
        # (``None`` skips comparison) but their commit_rate still gates.
        columns=("mu_ratio_vs_one", "commit_rate"),
        noise_floor=("wall_seconds", 0.25),
    ),
    Watch(
        name="E19",
        path=BENCH_DIR / "BENCH_e19_adaptive.json",
        key_fields=("scenario", "scheduler"),
        # ``commit_rate`` and ``throughput_vs_best_fixed`` (the adaptive
        # rows' throughput over the best fixed strategy's on the same
        # scenario; None on fixed rows skips them) are pure functions of
        # the seeded spec, but sub-floor smoke cells would make the grid
        # itself untrustworthy, so the wall floor keeps only
        # experiment-sized baselines gating.
        columns=("commit_rate", "throughput_vs_best_fixed"),
        noise_floor=("wall_seconds", 0.25),
    ),
)


def compare(watch: Watch) -> tuple[list[str], list[str], int]:
    """Return ``(notices, warnings, compared)`` for one watched file.

    ``notices`` are file problems, ``warnings`` genuine regressions, and
    ``compared`` counts the configurations that actually had both a
    baseline and a fresh sweep — so the caller can distinguish "all clear"
    from "nothing was compared".
    """
    if not watch.path.exists():
        return [f"no benchmark file at {watch.path}; nothing to compare"], [], 0
    try:
        rows = json.loads(watch.path.read_text()).get("rows", [])
    except ValueError:
        return [f"unreadable benchmark file at {watch.path}"], [], 0
    by_config: dict[tuple, list[dict]] = {}
    for row in rows:
        key = tuple(row.get(field) for field in watch.key_fields)
        by_config.setdefault(key, []).append(row)

    warnings: list[str] = []
    compared = 0
    for key, config_rows in sorted(
        by_config.items(), key=lambda item: tuple(str(part) for part in item[0])
    ):
        if len(config_rows) < 2:
            continue  # only the baseline sweep is recorded
        baseline, latest = config_rows[0], config_rows[-1]
        if watch.noise_floor is not None:
            floor_column, floor = watch.noise_floor
            floor_value = baseline.get(floor_column)
            if not isinstance(floor_value, (int, float)) or floor_value < floor:
                continue  # measurement too small to carry signal
        label = "/".join(str(part) for part in key)
        config_compared = False
        for column in watch.columns:
            before = baseline.get(column)
            after = latest.get(column)
            if not isinstance(before, (int, float)) or not isinstance(after, (int, float)):
                continue
            if isinstance(before, bool) or isinstance(after, bool):
                continue
            if before != before or after != after:  # NaN: every compare is false
                continue
            if before <= 0:
                continue
            config_compared = True
            degradation = before / max(after, 1e-9)
            if degradation > THRESHOLD:
                warnings.append(
                    f"{label} {column}: {before:.2f}x -> {after:.2f}x "
                    f"({degradation:.2f}x drop, threshold {THRESHOLD:.2f}x)"
                )
        compared += config_compared
    return [], warnings, compared


def report(watch: Watch, *, strict: bool = False) -> int:
    """Print one watch's verdicts; returns the number of regressions.

    Args:
        watch: the trajectory file and columns to compare.
        strict: annotate regressions as ``::error::`` instead of
            ``::warning::`` (the caller decides whether to fail on them).
    """
    annotation = "error" if strict else "warning"
    notices, warnings, compared = compare(watch)
    for message in notices:
        print(f"{watch.name} comparison skipped: {message}")
    for message in warnings:
        print(f"::{annotation}::{watch.name} ratio regression: {message}")
    if warnings:
        print(f"{watch.name}: {len(warnings)} regression(s); see above.")
    elif not notices:
        if compared:
            print(
                f"{watch.name} ratios within 30% of the committed baseline "
                f"({compared} configuration(s) compared)."
            )
        else:
            print(
                f"{watch.name} comparison skipped: no configuration had both a "
                f"baseline and a fresh sweep recorded (did the {watch.name} "
                "bench step run?)."
            )
    return len(warnings)


def main(argv: list[str] | None = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    strict = "--fail-on-regression" in arguments
    if strict:
        arguments.remove("--fail-on-regression")
    if arguments:
        # Explicit path: compare it with the watch whose file name matches,
        # defaulting to the first watch's shape for unknown files.
        path = Path(arguments[0])
        matching = next((w for w in WATCHES if w.path.name == path.name), WATCHES[0])
        watches = (
            Watch(
                matching.name,
                path,
                matching.key_fields,
                matching.columns,
                matching.noise_floor,
            ),
        )
    else:
        watches = WATCHES
    regressions = sum(report(watch, strict=strict) for watch in watches)
    if strict and regressions:
        print(
            f"{regressions} benchmark regression(s) beyond the {THRESHOLD:.2f}x "
            "threshold; failing (--fail-on-regression)."
        )
        return 1
    return 0  # without --fail-on-regression, regressions only warn


if __name__ == "__main__":
    raise SystemExit(main())
