"""Edge cases of the benchmark-regression gate (``benchmarks.compare_bench``).

The gate fails CI on pull requests, so its failure modes matter as much
as its happy path: a missing or unreadable golden must *skip* (never
crash, never false-alarm), a golden must never be compared with anything
but fresh full-size rows, zero/NaN goldens must not divide or compare,
and an empty comparison must never print the all-clear.
"""

import json

import pytest

from benchmarks.compare_bench import THRESHOLD, compare, main, report
from benchmarks.harness import Experiment


def make_experiment(tmp_path, golden, fresh=None, *, full_size=True, noise_floor=None):
    """A one-column experiment whose golden and ``out/`` live under ``tmp_path``.

    ``golden`` / ``fresh`` are row lists, raw text to write verbatim, or
    ``None`` for "no such file".
    """
    experiment = Experiment(
        name="t1_test",
        title="test",
        columns=("config", "ratio"),
        key_fields=("config",),
        run=lambda sizing: [],
        full_sizes={"REPRO_T1_SIZE": 100},
        watched=("ratio",),
        noise_floor=noise_floor,
        directory=tmp_path,
    )
    if isinstance(golden, list):
        golden = json.dumps({"experiment": experiment.name, "rows": golden})
    if golden is not None:
        experiment.golden_path.write_text(golden)
    if isinstance(fresh, list):
        fresh = json.dumps(
            {
                "experiment": experiment.name,
                "full_size": full_size,
                "sizes": {"REPRO_T1_SIZE": 100 if full_size else 10},
                "rows": fresh,
            }
        )
    if fresh is not None:
        experiment.fresh_path.parent.mkdir()
        experiment.fresh_path.write_text(fresh)
    return experiment


def row(config, ratio):
    return {"config": config, "ratio": ratio}


class TestCompare:
    def test_missing_baseline_file_skips(self, tmp_path):
        experiment = make_experiment(tmp_path, None, [row("a", 2.0)])
        reason, regressions, compared = compare(experiment)
        assert "unreadable golden" in reason
        assert (regressions, compared) == ([], 0)

    def test_unreadable_file_skips(self, tmp_path):
        experiment = make_experiment(tmp_path, "{not json", [row("a", 2.0)])
        reason, regressions, compared = compare(experiment)
        assert "unreadable golden" in reason
        assert compared == 0

    def test_unreadable_fresh_rows_skip(self, tmp_path):
        experiment = make_experiment(tmp_path, [row("a", 2.0)], "{not json")
        reason, regressions, compared = compare(experiment)
        assert "unreadable fresh rows" in reason
        assert compared == 0

    def test_golden_without_fresh_rows_is_not_compared(self, tmp_path):
        # The old trajectory compared its first row with its last; with a
        # single file that was committed-vs-committed.  A golden alone
        # compares with nothing.
        experiment = make_experiment(tmp_path, [row("a", 2.0), row("b", 2.0)])
        reason, regressions, compared = compare(experiment)
        assert "no fresh rows" in reason
        assert (regressions, compared) == ([], 0)

    def test_shortened_fresh_rows_are_not_compared(self, tmp_path):
        # Even a collapsed ratio: a shortened run says nothing about the golden.
        experiment = make_experiment(
            tmp_path, [row("a", 2.0)], [row("a", 0.1)], full_size=False
        )
        reason, regressions, compared = compare(experiment)
        assert "shortened run" in reason and "REPRO_T1_SIZE" in reason
        assert (regressions, compared) == ([], 0)

    def test_fresh_configuration_absent_from_the_golden_is_not_compared(self, tmp_path):
        experiment = make_experiment(tmp_path, [row("a", 2.0)], [row("b", 0.1)])
        reason, regressions, compared = compare(experiment)
        assert reason is not None
        assert (regressions, compared) == ([], 0)

    def test_zero_baseline_value_is_not_compared(self, tmp_path):
        # A zero (or negative) golden value cannot express a ratio drop; it
        # must be skipped, not divided by.
        experiment = make_experiment(tmp_path, [row("a", 0.0)], [row("a", 0.0)])
        reason, regressions, compared = compare(experiment)
        assert regressions == []
        assert compared == 0

    def test_nan_baseline_value_is_not_compared(self, tmp_path):
        experiment = make_experiment(tmp_path, [row("a", float("nan"))], [row("a", 2.0)])
        reason, regressions, compared = compare(experiment)
        # NaN comparisons are all false, so the config silently fails both
        # guards; it must count as not-compared rather than as a pass.
        assert regressions == []
        assert compared == 0

    def test_non_numeric_value_is_not_compared(self, tmp_path):
        experiment = make_experiment(tmp_path, [row("a", "fast")], [row("a", 2.0)])
        assert compare(experiment)[1:] == ([], 0)

    def test_boolean_value_is_not_compared(self, tmp_path):
        # bool is an int subclass; a True golden must not masquerade as
        # a 1.0x ratio.
        experiment = make_experiment(tmp_path, [row("a", True)], [row("a", True)])
        assert compare(experiment)[1:] == ([], 0)

    def test_regression_detected(self, tmp_path):
        experiment = make_experiment(tmp_path, [row("a", 2.0)], [row("a", 1.0)])
        reason, regressions, compared = compare(experiment)
        assert reason is None
        assert compared == 1
        assert len(regressions) == 1
        assert "2.00x -> 1.00x" in regressions[0]

    def test_within_threshold_is_clean(self, tmp_path):
        experiment = make_experiment(tmp_path, [row("a", 2.0)], [row("a", 1.8)])
        reason, regressions, compared = compare(experiment)
        assert (reason, regressions, compared) == (None, [], 1)

    def test_zero_latest_value_warns(self, tmp_path):
        # A collapsed fresh value (0.0) is the worst regression there is;
        # the epsilon floor keeps the division finite.
        experiment = make_experiment(tmp_path, [row("a", 2.0)], [row("a", 0.0)])
        _, regressions, compared = compare(experiment)
        assert compared == 1
        assert len(regressions) == 1

    def test_noise_floor_skips_tiny_measurements(self, tmp_path):
        # A regression built on a sub-floor golden measurement is
        # jitter, not signal: the config must count as not-compared.
        golden = [
            {"config": "a", "ratio": 5.0, "base_seconds": 0.0002},
            {"config": "b", "ratio": 5.0, "base_seconds": 1.5},
        ]
        fresh = [
            {"config": "a", "ratio": 1.0, "base_seconds": 0.0002},
            {"config": "b", "ratio": 1.0, "base_seconds": 1.4},
        ]
        experiment = make_experiment(
            tmp_path, golden, fresh, noise_floor=("base_seconds", 0.05)
        )
        reason, regressions, compared = compare(experiment)
        assert compared == 1  # only config "b"
        assert len(regressions) == 1
        assert regressions[0].startswith("b ")

    def test_noise_floor_skips_missing_floor_column(self, tmp_path):
        experiment = make_experiment(
            tmp_path, [row("a", 5.0)], [row("a", 1.0)], noise_floor=("absent", 0.05)
        )
        assert compare(experiment)[1:] == ([], 0)


class TestReport:
    def test_empty_watchlist_never_prints_all_clear(self, tmp_path, capsys):
        # A golden exists but nothing fresh does: the report must say
        # "not compared", not "within 30%".
        experiment = make_experiment(tmp_path, [row("a", 2.0)])
        assert report(experiment) == 0
        output = capsys.readouterr().out
        assert "within 30%" not in output
        assert "T1: not compared: no fresh rows" in output

    def test_all_clear_names_compared_count(self, tmp_path, capsys):
        experiment = make_experiment(tmp_path, [row("a", 2.0)], [row("a", 2.0)])
        assert report(experiment) == 0
        assert "T1: compared 1 configuration(s)" in capsys.readouterr().out

    def test_strict_mode_uses_error_annotations(self, tmp_path, capsys):
        experiment = make_experiment(tmp_path, [row("a", 2.0)], [row("a", 1.0)])
        assert report(experiment, strict=True) == 1
        output = capsys.readouterr().out
        assert "::error::" in output
        assert "::warning::" not in output

    def test_default_mode_uses_warning_annotations(self, tmp_path, capsys):
        experiment = make_experiment(tmp_path, [row("a", 2.0)], [row("a", 1.0)])
        assert report(experiment) == 1
        assert "::warning::" in capsys.readouterr().out


class TestMain:
    # ``main`` reports the six real watches (E14-E19); its argument names a
    # directory of fresh rows, here one holding a doctored copy of E14's
    # golden rows.
    @staticmethod
    def fresh_dir(tmp_path, scale):
        from benchmarks.bench_e14_restart_policies import EXPERIMENT as e14

        rows = [
            {**golden, "recovery_ratio": golden["recovery_ratio"] * scale}
            for golden in e14.golden_rows().values()
        ]
        document = {"experiment": e14.name, "full_size": True, "sizes": {}, "rows": rows}
        (tmp_path / e14.fresh_path.name).write_text(json.dumps(document))
        return str(tmp_path)

    def test_explicit_path_warn_only_exit_zero(self, tmp_path, capsys):
        assert main([self.fresh_dir(tmp_path, 0.2)]) == 0
        assert "::warning::E14" in capsys.readouterr().out

    def test_fail_on_regression_sets_exit_code(self, tmp_path, capsys):
        assert main(["--fail-on-regression", self.fresh_dir(tmp_path, 0.2)]) == 1
        output = capsys.readouterr().out
        assert "::error::E14" in output
        assert "failing" in output

    def test_fail_flag_with_clean_run_exits_zero(self, tmp_path, capsys):
        assert main(["--fail-on-regression", self.fresh_dir(tmp_path, 1.0)]) == 0
        assert "E14: compared 4 configuration(s)" in capsys.readouterr().out

    def test_threshold_is_thirty_percent(self):
        assert THRESHOLD == pytest.approx(1.30)


class TestE15TrajectoryGuard:
    def test_shortened_rows_never_enter_the_trajectory(self, tmp_path):
        # Retargeted at the golden: a shortened E15 sweep leaves the golden
        # byte-identical, lands under out/ marked as shortened, and is
        # never compared with the golden.
        import dataclasses
        import shutil

        from benchmarks.bench_e15_open_system import EXPERIMENT, SIZE

        experiment = dataclasses.replace(EXPERIMENT, directory=tmp_path)
        shutil.copy(EXPERIMENT.golden_path, experiment.golden_path)
        before = experiment.golden_path.read_bytes()
        rows = experiment.record(experiment.sizing({SIZE: "40"}))
        assert rows and all(row["arrived"] == 40 for row in rows)
        assert experiment.golden_path.read_bytes() == before
        assert json.loads(experiment.fresh_path.read_text())["full_size"] is False
        reason, regressions, compared = compare(experiment)
        assert "shortened run" in reason
        assert (regressions, compared) == ([], 0)
