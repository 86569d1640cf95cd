"""Diff the fresh benchmark rows under ``benchmarks/out/`` against the goldens.

The experiments never write the committed ``BENCH_*.json`` goldens; each
run leaves its rows in the git-ignored ``benchmarks/out/``.  This script
compares the two, per configuration, and reports when a watched ratio of
a fresh row dropped by more than ``THRESHOLD`` below the golden's — the
watched columns are machine-independent by construction, so a drop means
behaviour (or the fast path) regressed, wherever the sweep ran.  Run it as
``python -m benchmarks.compare_bench`` (an optional argument names another
directory of fresh rows, e.g. a downloaded CI artifact).

A golden is only ever compared with fresh full-size rows.  With no fresh
file, or a shortened run's, the experiment is reported as
``not compared: <reason>`` — never as a pass.

By default regressions *warn* (GitHub Actions ``::warning::``
annotations; exit code stays 0).  With ``--fail-on-regression`` they
become ``::error::`` annotations and the exit code is 1 when any
regression fired, which is how CI gates pull requests while staying
warn-only on pushes.

What is watched, and why, is declared by the experiments themselves: the
``watched`` columns and ``noise_floor`` of the
:class:`~benchmarks.harness.Experiment` records of E14-E19.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .harness import Experiment, experiments

THRESHOLD = 1.30  # flag when a watched ratio degrades beyond 30%


def compare(
    experiment: Experiment, fresh_path: Path | None = None
) -> tuple[str | None, list[str], int]:
    """Return ``(reason, regressions, compared)`` for one experiment.

    ``reason`` says why nothing could be compared (``None`` when something
    was), ``regressions`` are the genuine drops, and ``compared`` counts
    the configurations that had a golden row, a fresh full-size row and a
    comparable value — so the caller can tell "all clear" from "nothing
    was compared".
    """
    fresh_path = fresh_path or experiment.fresh_path
    try:
        golden = experiment.golden_rows()
    except (OSError, ValueError, LookupError, TypeError) as exc:
        return f"unreadable golden {experiment.golden_path.name}: {exc}", [], 0
    if not fresh_path.exists():
        return f"no fresh rows at {fresh_path} (did the {experiment.label} step run?)", [], 0
    try:
        document = json.loads(fresh_path.read_text())
        fresh_rows = document["rows"]
    except (ValueError, LookupError, TypeError) as exc:
        return f"unreadable fresh rows at {fresh_path}: {exc}", [], 0
    if not document.get("full_size"):
        return (
            f"shortened run ({document.get('sizes')}, full size "
            f"{dict(experiment.full_sizes)})"
        ), [], 0

    regressions: list[str] = []
    compared = 0
    for row in fresh_rows:
        baseline = golden.get(experiment.key(row))
        if baseline is None:
            continue  # a configuration the golden does not hold
        if experiment.noise_floor is not None:
            floor_column, floor = experiment.noise_floor
            floor_value = baseline.get(floor_column)
            if not isinstance(floor_value, (int, float)) or floor_value < floor:
                continue  # measurement too small to carry signal
        label = "/".join(str(part) for part in experiment.key(row))
        config_compared = False
        for column in experiment.watched:
            before = baseline.get(column)
            after = row.get(column)
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
                regressions.append(
                    f"{label} {column}: {before:.2f}x -> {after:.2f}x "
                    f"({degradation:.2f}x drop, threshold {THRESHOLD:.2f}x)"
                )
        compared += config_compared
    if not compared:
        return "no fresh row had a golden row and a comparable watched value", [], 0
    return None, regressions, compared


def report(experiment: Experiment, fresh_path: Path | None = None, *, strict: bool = False) -> int:
    """Print one experiment's verdict line; returns the number of regressions.

    Args:
        experiment: the record whose golden and watched columns to compare.
        fresh_path: the fresh rows (default: the record's file under ``out/``).
        strict: annotate regressions as ``::error::`` instead of
            ``::warning::`` (the caller decides whether to fail on them).
    """
    annotation = "error" if strict else "warning"
    reason, regressions, compared = compare(experiment, fresh_path)
    for message in regressions:
        print(f"::{annotation}::{experiment.label} ratio regression: {message}")
    if reason is not None:
        print(f"{experiment.label}: not compared: {reason}")
    else:
        verdict = (
            f"{len(regressions)} regression(s); see above"
            if regressions
            else "all within 30% of the golden"
        )
        print(f"{experiment.label}: compared {compared} configuration(s), {verdict}.")
    return len(regressions)


def main(argv: list[str] | None = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    strict = "--fail-on-regression" in arguments
    if strict:
        arguments.remove("--fail-on-regression")
    fresh_dir = Path(arguments[0]) if arguments else None
    regressions = sum(
        report(
            experiment,
            fresh_dir / experiment.fresh_path.name if fresh_dir else None,
            strict=strict,
        )
        for experiment in experiments()
        if experiment.watched
    )
    if strict and regressions:
        print(
            f"{regressions} benchmark regression(s) beyond the {THRESHOLD:.2f}x "
            "threshold; failing (--fail-on-regression)."
        )
        return 1
    return 0  # without --fail-on-regression, regressions only warn


if __name__ == "__main__":
    raise SystemExit(main())
