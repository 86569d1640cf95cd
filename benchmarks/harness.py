"""The one harness behind the experiment benchmarks (E1-E19).

The paper has no numeric tables or figures, so every benchmark regenerates
one of its comparative claims (see the experiment index in ``DESIGN.md``).
Each ``bench_eN_*`` module defines a ``run_experiment()`` function that
returns the experiment's rows and a pytest-benchmark test that times one
full sweep and prints the table (visible with
``pytest benchmarks/ --benchmark-only -s``).

Since PR 3 the parameter grids themselves are declarative: every scenario
is a :class:`~repro.sweep.spec.ScenarioSpec` run through
:func:`repro.sweep.run_scenario` / :func:`repro.sweep.build_engine` (the
grid experiments through :func:`run_sweep_rows`), so every experiment
reports the columns :func:`repro.sweep.runner.summarise_run` defines and
no script constructs an engine by hand.

E11-E15, E18 and E19 also keep a committed ``BENCH_<name>.json`` next to
this module.  Those files are **goldens**: one row per configuration, read
and never written by a run.  Each of those modules declares one
:class:`Experiment` record and this module owns, once, everything around
it: shortening by environment variable, best-of-N timing
(:func:`timed_best`), row assembly, the pin check against the golden, the
pytest/``__main__`` tail (:meth:`Experiment.execute`) and writing the
fresh rows to the git-ignored ``benchmarks/out/``.  Running an experiment
therefore never edits a tracked file.

These experiments hold facts: pinned columns and determinism identities.
A wall a row records is recorded only; wall-clock speed is measured by
``bench/`` against ``BENCHMARK.json``'s workloads.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.analysis import format_table
from repro.sweep import ScenarioSpec, SweepRunner, SweepSpec

BENCH_DIR = Path(__file__).resolve().parent


def run_sweep_rows(sweep: SweepSpec, *, workers: int = 0) -> list[dict[str, Any]]:
    """Execute a declarative sweep and return its metrics rows in grid order."""
    return SweepRunner(sweep, workers=workers).run_rows()


def print_experiment(title: str, rows: list[dict[str, Any]], columns: list[str]) -> None:
    """Print one experiment's table (shown under ``pytest -s``)."""
    print()
    print(format_table(rows, columns, title=title))


def hotspot_spec(
    scheduler: str,
    transactions: int,
    seed: int,
    *,
    rate: float | None = None,
    certify: bool | str = False,
    engine_params: Mapping[str, Any] | None = None,
    **workload_overrides: Any,
) -> ScenarioSpec:
    """The E15 hotspot configuration, which E18 re-uses.

    Two hot and 128 cold registers, two operations per transaction, 5% hot,
    no service layer, ``backoff`` restarts (immediate restarts thrash at
    open-system concurrencies, see E14); ``workload_overrides`` replace
    hotspot parameters by name.  With a ``rate`` the transactions arrive
    as a poisson stream, otherwise as a closed batch at tick 0.
    """
    workload, params = "hotspot", {
        "transactions": transactions,
        "hot_objects": 2,
        "cold_objects": 128,
        "operations_per_transaction": 2,
        "hot_probability": 0.05,
        "use_service_layer": False,
        "seed": seed,
        **workload_overrides,
    }
    if rate is not None:
        workload, params = "hotspot-stream", {
            "inner_params": params,
            "arrival": "poisson",
            "arrival_params": {"rate": rate},
        }
    return ScenarioSpec(
        workload=workload,
        scheduler=scheduler,
        seed=seed,
        workload_params=params,
        scheduler_kwargs={"restart_policy": "backoff"},
        engine_params=dict(engine_params or {}),
        certify=certify,
    )


def cpu_count() -> int:
    """CPUs this process may run on (what a fan-out can actually use)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def timed_best(
    repeats: int,
    build: Callable[[], Any],
    run: Callable[[Any], Any] = lambda subject: subject.run(),
) -> tuple[float, Any, Any]:
    """Best (minimum) wall of ``repeats`` timings of ``run(build())``.

    Engines are single-use, so every timing gets a fresh ``build()``
    (untimed); every run computes identical results, so only the wall
    varies and the minimum filters scheduler-noise spikes out of
    sub-second measurements.

    Returns:
        ``(wall_seconds, result, subject)`` — the last run's result and
        the object it ran on.
    """
    wall = float("inf")
    for _ in range(repeats):
        subject = build()
        started = time.perf_counter()
        result = run(subject)
        wall = min(wall, time.perf_counter() - started)
    return wall, result, subject


@dataclass(frozen=True)
class Sizing:
    """The sizes one execution runs at.

    ``sizing[env_name]`` is the size in effect for that variable; ``full``
    says whether every size is the experiment's full size — only then are
    the rows comparable with the golden.
    """

    sizes: Mapping[str, int] = field(default_factory=dict)
    repeats: int = 1
    full: bool = True

    def __getitem__(self, env_name: str) -> int:
        return self.sizes[env_name]


@dataclass(frozen=True)
class Experiment:
    """One golden-backed experiment, declared as data.

    Args:
        name: ``e15_open_system`` — names the golden
            (``BENCH_<name>.json``), the fresh file under ``out/`` and the
            rows' ``experiment`` column.
        title: table heading.
        columns: the columns the table prints.
        key_fields: the columns that identify a configuration; the golden
            holds exactly one row per key.
        run: ``run(sizing) -> rows``, the experiment body.
        full_sizes: environment variable -> full size.  A smaller value in
            the environment shortens the run; a shortened run is never
            pinned to the golden.
        repeats: ``(environment variable, default)`` for best-of-N timing.
        pinned: columns that are pure functions of the spec: at full size
            every fresh row must equal its golden row on them bit for bit.
        directory: where the golden lives and ``out/`` is created.
    """

    name: str
    title: str
    columns: tuple[str, ...]
    key_fields: tuple[str, ...]
    run: Callable[[Sizing], list[dict[str, Any]]]
    full_sizes: Mapping[str, int] = field(default_factory=dict)
    repeats: tuple[str, int] | None = None
    pinned: tuple[str, ...] = ()
    directory: Path = BENCH_DIR

    @property
    def label(self) -> str:
        """``E15`` for ``e15_open_system``."""
        return self.name.split("_")[0].upper()

    @property
    def golden_path(self) -> Path:
        return self.directory / f"BENCH_{self.name}.json"

    @property
    def fresh_path(self) -> Path:
        return self.directory / "out" / self.golden_path.name

    def key(self, row: Mapping[str, Any]) -> tuple:
        return tuple(row.get(name) for name in self.key_fields)

    def golden_rows(self) -> dict[tuple, dict[str, Any]]:
        """The golden's rows by configuration key — the one golden lookup.

        Raises:
            OSError, ValueError: missing or malformed golden, or one that
                holds two rows for the same configuration.
        """
        by_key: dict[tuple, dict[str, Any]] = {}
        for row in json.loads(self.golden_path.read_text())["rows"]:
            if by_key.setdefault(self.key(row), row) is not row:
                raise ValueError(
                    f"{self.golden_path.name} holds two rows for {self.key(row)}"
                )
        return by_key

    def sizing(self, environ: Mapping[str, str] = os.environ) -> Sizing:
        """The sizes and repeats ``environ`` asks for."""
        sizes = {
            name: int(environ.get(name, full)) for name, full in self.full_sizes.items()
        }
        repeats = max(1, int(environ.get(*self.repeats))) if self.repeats else 1
        return Sizing(sizes, repeats, full=sizes == dict(self.full_sizes))

    def record(self, sizing: Sizing, benchmark=None) -> list[dict[str, Any]]:
        """Run at ``sizing`` and write the fresh rows under ``out/``.

        ``benchmark`` is the pytest-benchmark fixture, which then times
        the one sweep.
        """
        if benchmark is None:
            rows = self.run(sizing)
        else:
            rows = benchmark.pedantic(self.run, args=(sizing,), rounds=1, iterations=1)
        rows = [{"experiment": self.name, **row} for row in rows]
        self.fresh_path.parent.mkdir(exist_ok=True)
        document = {
            "experiment": self.name,
            "full_size": sizing.full,
            "sizes": dict(sizing.sizes),
            "rows": rows,
        }
        self.fresh_path.write_text(json.dumps(document, indent=2) + "\n")
        return rows

    def check_pins(self, rows: list[dict[str, Any]]) -> None:
        """Assert full-size ``rows`` equal the golden on every pinned column."""
        golden = self.golden_rows()
        for row in rows:
            key = self.key(row)
            label = "/".join(str(part) for part in key)
            expected = golden.get(key)
            assert expected is not None, f"{label}: no row in {self.golden_path.name}"
            drift = {
                column: (expected.get(column), row.get(column))
                for column in self.pinned
                if row.get(column) != expected.get(column)
            }
            assert not drift, (
                f"{label}: pinned columns drifted from {self.golden_path.name} "
                f"(golden, fresh): {drift}"
            )

    def execute(self, benchmark=None) -> list[dict[str, Any]]:
        """The pytest and ``__main__`` tail: record, print, check the pins.

        Runs at the sizes the environment asks for; the pin check applies
        at full size and comes last, so a drifting run still shows its
        table and leaves its rows under ``out/``.  The module's pytest
        test passes its ``benchmark`` fixture and then asserts the
        experiment's gates on the returned rows.
        """
        sizing = self.sizing()
        rows = self.record(sizing, benchmark)
        print_experiment(self.title, rows, list(self.columns))
        if sizing.full:
            self.check_pins(rows)
        return rows


def experiments() -> list[Experiment]:
    """Every ``bench_e*`` module's :class:`Experiment` record, in E-number order."""
    stems = sorted(
        (path.stem for path in BENCH_DIR.glob("bench_e*.py")),
        key=lambda stem: int(stem.split("_")[1][1:]),
    )
    modules = (importlib.import_module(f"{__package__}.{stem}") for stem in stems)
    return [module.EXPERIMENT for module in modules if hasattr(module, "EXPERIMENT")]
