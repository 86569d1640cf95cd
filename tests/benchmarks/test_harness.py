"""The benchmark harness contract: goldens are pinned and read-only, fresh rows go to ``out/``.

Every experiment with a committed golden pins columns that golden carries,
and some full-size run holds it to them: a CI step, or the tier-1
``test_bench_rows_stable.py``.  No pin and no ``assert`` under
``benchmarks/`` reads a wall-derived value.  Running an experiment —
shortened or full-size — never edits a tracked file.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import json
import re
import shutil

import pytest

from benchmarks import harness
from benchmarks.bench_e15_open_system import EXPERIMENT as E15
from benchmarks.bench_e18_sharding import EXPERIMENT as E18
from benchmarks.harness import BENCH_DIR, Experiment

REPO = BENCH_DIR.parent

#: The four environment variable names that shorten a run; the harness adds none.
ENVIRONMENT_VARIABLES = {
    "REPRO_E15_ARRIVALS", "REPRO_E18_ARRIVALS", "REPRO_E18_REPEATS", "REPRO_E19_ARRIVALS",
}

GOLDEN_MODULES = sorted(path.stem for path in BENCH_DIR.glob("bench_e1[1-9]*.py"))
GOLDEN_LABELS = ("E11", "E12", "E13", "E14", "E15", "E18", "E19")

#: Columns derived from a wall clock: recorded only, never pinned or asserted.
WALL_DERIVED = re.compile(r".*_seconds|speedup.*|mu_.*|parallel_fraction|.*overhead.*|.*per_second.*")


class TestRecords:
    @pytest.mark.parametrize("stem", GOLDEN_MODULES)
    def test_module_exposes_one_record_with_a_keyed_golden(self, stem):
        module = importlib.import_module(f"benchmarks.{stem}")
        records = [value for value in vars(module).values() if isinstance(value, Experiment)]
        assert records == [module.EXPERIMENT]
        experiment = module.EXPERIMENT
        assert f"bench_{experiment.name}" == stem
        assert experiment.directory == BENCH_DIR
        # One row per configuration key: golden_rows() raises on a duplicate.
        document = json.loads(experiment.golden_path.read_text())
        assert len(experiment.golden_rows()) == len(document["rows"]) > 0
        assert document["experiment"] == experiment.name

    def test_the_registry_is_the_seven_golden_experiments(self):
        records = harness.experiments()
        assert [f"bench_{record.name}" for record in records] == sorted(
            GOLDEN_MODULES, key=lambda stem: int(stem.split("_")[1][1:])
        )
        assert tuple(record.label for record in records) == GOLDEN_LABELS
        assert {path.name for path in BENCH_DIR.glob("BENCH_*.json")} == {
            record.golden_path.name for record in records
        }

    def test_no_environment_variable_beyond_the_four(self):
        names = set()
        for record in harness.experiments():
            names.update(record.full_sizes)
            if record.repeats:
                names.add(record.repeats[0])
        assert names == ENVIRONMENT_VARIABLES


class TestEveryGoldenIsPinned:
    @pytest.mark.parametrize("experiment", harness.experiments(), ids=lambda e: e.label)
    def test_pinned_columns_are_declared_and_in_every_golden_row(self, experiment):
        assert experiment.pinned, f"{experiment.label} pins nothing against its golden"
        for key, row in experiment.golden_rows().items():
            missing = [column for column in experiment.pinned if column not in row]
            assert not missing, f"{experiment.label} golden row {key} lacks {missing}"

    def test_every_golden_experiment_runs_at_full_size(self):
        # A CI step runs the experiment's pytest test (whose execute() checks
        # the pins at full size) with no variable shortening it, or the
        # tier-1 suite runs it at full size through check_pins.
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        tier1 = (REPO / "tests" / "benchmarks" / "test_bench_rows_stable.py").read_text()
        assert not any(name in ci for name in ENVIRONMENT_VARIABLES)
        for experiment in harness.experiments():
            stem = f"bench_{experiment.name}"
            assert f"benchmarks/{stem}.py" in ci or stem in tier1, (
                f"{experiment.label}: no full-size run checks its golden"
            )


def names_read_by(expression):
    """Every name, attribute and string constant in ``expression``."""
    for node in ast.walk(expression):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


class TestNoWallIsDecided:
    @pytest.mark.parametrize("experiment", harness.experiments(), ids=lambda e: e.label)
    def test_no_pinned_column_is_wall_derived(self, experiment):
        walls = [column for column in experiment.pinned if WALL_DERIVED.fullmatch(column)]
        assert not walls, f"{experiment.label} pins wall-derived columns {walls}"

    @pytest.mark.parametrize(
        "path",
        [*sorted(BENCH_DIR.glob("bench_*.py")), BENCH_DIR / "harness.py"],
        ids=lambda path: path.stem,
    )
    def test_no_assert_reads_a_wall_derived_value(self, path):
        tree = ast.parse(path.read_text(), filename=str(path))
        walls = [
            (node.lineno, name)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
            for name in names_read_by(node.test)
            if WALL_DERIVED.fullmatch(name)
        ]
        assert not walls, f"{path.name} asserts on wall-derived values {walls}"


class TestSizing:
    def test_environment_shortens_and_marks_the_run(self):
        assert E18.sizing({}).full and E18.sizing({}).repeats == 1
        sizing = E18.sizing({"REPRO_E18_ARRIVALS": "20", "REPRO_E18_REPEATS": "0"})
        assert sizing["REPRO_E18_ARRIVALS"] == 20
        assert not sizing.full and sizing.repeats == 1
        # Spelling out the full size is still a full-size run.
        assert E18.sizing({"REPRO_E18_ARRIVALS": "400", "REPRO_E18_REPEATS": "3"}).full


def tracked_files():
    return {
        path: path.read_bytes()
        for path in BENCH_DIR.iterdir()
        if path.is_file() and path.suffix in (".json", ".py")
    }


class TestRunsNeverEditTrackedFiles:
    @pytest.mark.parametrize(
        "experiment, environ",
        [
            (E15, {"REPRO_E15_ARRIVALS": "40"}),
            (E18, {"REPRO_E18_ARRIVALS": "30", "REPRO_E18_REPEATS": "1"}),
        ],
        ids=["E15", "E18"],
    )
    def test_shortened_run_writes_only_under_out(self, tmp_path, experiment, environ):
        before = tracked_files()
        sandboxed = dataclasses.replace(experiment, directory=tmp_path)
        shutil.copy(experiment.golden_path, sandboxed.golden_path)
        golden = sandboxed.golden_path.read_bytes()

        rows = sandboxed.record(sandboxed.sizing(environ))

        assert tracked_files() == before
        assert sandboxed.golden_path.read_bytes() == golden
        assert {path.relative_to(tmp_path).as_posix() for path in tmp_path.rglob("*")} == {
            sandboxed.golden_path.name, "out", f"out/{sandboxed.golden_path.name}",
        }
        document = json.loads(sandboxed.fresh_path.read_text())
        assert document["full_size"] is False
        assert document["sizes"] == {name: int(environ[name]) for name in experiment.full_sizes}
        assert document["rows"] == rows
        assert all(row["experiment"] == experiment.name for row in rows)

    def test_out_directory_is_git_ignored(self):
        assert "benchmarks/out/" in (REPO / ".gitignore").read_text().split()

    def test_a_drifted_pinned_column_fails_the_pin_check(self):
        rows = [dict(row) for row in E15.golden_rows().values()]
        E15.check_pins(rows)
        rows[3]["makespan"] += 1
        with pytest.raises(AssertionError, match="makespan"):
            E15.check_pins(rows)
