"""The benchmark harness contract: goldens are read-only, fresh rows go to ``out/``.

Running an experiment — shortened or full-size — never edits a tracked
file, and ``compare_bench`` only ever holds a golden against fresh
full-size rows: never against itself, never against a shortened run.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil

import pytest

from benchmarks import compare_bench, harness
from benchmarks.bench_e15_open_system import EXPERIMENT as E15
from benchmarks.bench_e16_hot_loop import EXPERIMENT as E16
from benchmarks.harness import BENCH_DIR, Experiment

#: The nine environment variable names CI uses; the harness adds none.
ENVIRONMENT_VARIABLES = {
    "REPRO_E15_ARRIVALS", "REPRO_E16_TXNS", "REPRO_E16_ARRIVALS", "REPRO_E16_REPEATS",
    "REPRO_E17_ARRIVALS", "REPRO_E17_REPEATS", "REPRO_E18_ARRIVALS", "REPRO_E18_REPEATS",
    "REPRO_E19_ARRIVALS",
}

GOLDEN_MODULES = sorted(path.stem for path in BENCH_DIR.glob("bench_e1[1-9]*.py"))
WATCHED = ("E14", "E15", "E16", "E17", "E18", "E19")


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

    def test_the_registry_is_the_nine_golden_experiments(self):
        records = harness.experiments()
        assert [f"bench_{record.name}" for record in records] == sorted(
            GOLDEN_MODULES, key=lambda stem: int(stem.split("_")[1][1:])
        )
        assert tuple(r.label for r in records if r.watched) == WATCHED

    def test_no_environment_variable_beyond_the_nine(self):
        names = set()
        for record in harness.experiments():
            names.update(record.full_sizes)
            if record.repeats:
                names.add(record.repeats[0])
        assert names == ENVIRONMENT_VARIABLES

    def test_e16_golden_event_rows_equal_their_pre_pr_reference(self):
        # The pin check holds a fresh ``event`` row to the golden ``event``
        # row; this holds that row to the ``pre_pr`` reference it was
        # recorded against, so the chain still ends at the pre-rewrite engine.
        golden = E16.golden_rows()
        for (scheduler, mode, engine), row in golden.items():
            if engine == "event":
                reference = golden[(scheduler, mode, "pre_pr")]
                assert {c: row[c] for c in E16.pinned} == {c: reference[c] for c in E16.pinned}


class TestSizing:
    def test_environment_shortens_and_marks_the_run(self):
        assert E16.sizing({}).full and E16.sizing({}).repeats == 2
        sizing = E16.sizing({"REPRO_E16_TXNS": "20", "REPRO_E16_REPEATS": "0"})
        assert sizing["REPRO_E16_TXNS"] == 20 and sizing["REPRO_E16_ARRIVALS"] == 2000
        assert not sizing.full and sizing.repeats == 1
        # Spelling out the full sizes is still a full-size run.
        assert E16.sizing({"REPRO_E16_TXNS": "300", "REPRO_E16_ARRIVALS": "2000"}).full


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
            (E16, {"REPRO_E16_TXNS": "20", "REPRO_E16_ARRIVALS": "60", "REPRO_E16_REPEATS": "1"}),
        ],
        ids=["E15", "E16"],
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
        assert "benchmarks/out/" in (BENCH_DIR.parent / ".gitignore").read_text().split()

    def test_a_drifted_pinned_column_fails_the_pin_check(self):
        rows = [dict(row) for row in E15.golden_rows().values()]
        E15.check_pins(rows)
        rows[3]["makespan"] += 1
        with pytest.raises(AssertionError, match="makespan"):
            E15.check_pins(rows)


def write_fresh(directory, experiment, rows, *, full_size):
    document = {
        "experiment": experiment.name,
        "full_size": full_size,
        "sizes": dict(experiment.full_sizes),
        "rows": rows,
    }
    (directory / experiment.fresh_path.name).write_text(json.dumps(document))


class TestCompareBenchOnTheRealGoldens:
    def test_golden_with_no_fresh_rows_is_not_compared(self, tmp_path, capsys):
        assert compare_bench.main(["--fail-on-regression", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == list(WATCHED)
        assert all(": not compared: no fresh rows" in line for line in lines)

    def test_golden_with_shortened_fresh_rows_is_not_compared(self, tmp_path, capsys):
        # Even rows that would be a 10x regression at full size.
        for experiment in harness.experiments():
            rows = [
                {**row, **{column: 0.1 for column in experiment.watched}}
                for row in experiment.golden_rows().values()
            ]
            write_fresh(tmp_path, experiment, rows, full_size=False)
        assert compare_bench.main(["--fail-on-regression", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(WATCHED)
        assert all(": not compared: shortened run" in line for line in lines)

    @pytest.mark.parametrize("drop, exit_code", [(1.29, 0), (1.31, 1)])
    def test_a_fresh_row_31_percent_below_the_golden_fails_pull_requests(
        self, tmp_path, capsys, drop, exit_code
    ):
        rows = [dict(row) for row in E15.golden_rows().values()]
        rows[0]["throughput"] /= drop
        write_fresh(tmp_path, E15, rows, full_size=True)
        assert compare_bench.main(["--fail-on-regression", str(tmp_path)]) == exit_code
        output = capsys.readouterr().out
        assert "E15: compared 16 configuration(s)" in output
        assert ("::error::E15 ratio regression" in output) == bool(exit_code)
        # Without the flag a regression only warns.
        assert compare_bench.main([str(tmp_path)]) == 0
