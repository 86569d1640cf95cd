"""Shared helpers for the experiment benchmarks (E1-E14).

The paper has no numeric tables or figures, so every benchmark regenerates
one of its comparative claims (see the experiment index in ``DESIGN.md``).
Each ``bench_eN_*`` module defines a ``run_experiment()`` function that
returns the experiment's rows and a pytest-benchmark test that times one
full sweep and prints the table (visible with
``pytest benchmarks/ --benchmark-only -s``).

Since PR 3 the parameter grids themselves are declarative: the sweep
experiments (E1, E3, E5, E8, E9, E13, E14) define a
:class:`~repro.sweep.spec.SweepSpec` and drive it through
:func:`run_sweep_rows`; their row shapes are unchanged.
:func:`run_configuration` remains for experiments that build bespoke
workload instances in-process, and delegates its row assembly to the same
:func:`repro.sweep.runner.summarise_run` the sweep runner uses, so every
experiment reports identical columns.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.analysis import format_table
from repro.scheduler import make_scheduler
from repro.simulation import SimulationEngine
from repro.sweep import SweepRunner, SweepSpec, summarise_run

__all__ = [
    "append_bench_rows",
    "read_bench_rows",
    "run_configuration",
    "run_sweep_rows",
    "print_experiment",
    "format_table",
]


def run_configuration(
    workload,
    scheduler_name: str,
    *,
    seed: int = 0,
    certify: bool = True,
    scheduler_kwargs: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Run one workload instance under one scheduler and summarise the outcome."""
    base, specs = workload.build()
    scheduler = make_scheduler(scheduler_name, **(scheduler_kwargs or {}))
    engine = SimulationEngine(base, scheduler, seed=seed)
    engine.submit_all(specs)
    result = engine.run()
    return summarise_run(result, scheduler_name, certify=certify)


def run_sweep_rows(sweep: SweepSpec, *, workers: int = 0) -> list[dict[str, Any]]:
    """Execute a declarative sweep and return its metrics rows in grid order."""
    return SweepRunner(sweep, workers=workers).run_rows()


def print_experiment(title: str, rows: list[dict[str, Any]], columns: list[str]) -> None:
    """Print one experiment's table (shown under ``pytest -s``)."""
    print()
    print(format_table(rows, columns, title=title))


def read_bench_rows(path: Path) -> list[dict[str, Any]]:
    """The rows recorded in a ``BENCH_*.json`` trajectory file, oldest first.

    A missing or unreadable file reads as empty.
    """
    if not path.exists():
        return []
    try:
        return json.loads(path.read_text()).get("rows", [])
    except (ValueError, AttributeError):
        return []


def append_bench_rows(path: Path, experiment: str, rows: list[dict[str, Any]]) -> None:
    """Append rows to a ``BENCH_*.json`` trajectory file.

    The file holds ``{"experiment": <name>, "rows": [...]}``; the first
    recorded rows are the committed baseline and later sweeps append, so
    the repository's performance trajectory accumulates run over run.  An
    unreadable file is treated as empty rather than discarding the new
    measurement.
    """
    path.write_text(
        json.dumps({"experiment": experiment, "rows": read_bench_rows(path) + rows}, indent=2)
        + "\n"
    )
