"""Edge cases of the benchmark-regression gate (``benchmarks.compare_bench``).

The gate fails CI on pull requests now, so its failure modes matter as
much as its happy path: a missing or unreadable baseline must *skip*
(never crash, never false-alarm), zero/NaN baselines must not divide or
compare, and an empty comparison must never print the all-clear.
"""

import json

import pytest

from benchmarks.compare_bench import THRESHOLD, Watch, compare, main, report


def make_watch(tmp_path, rows, name="T1", missing=False):
    path = tmp_path / "BENCH_test.json"
    if not missing:
        path.write_text(json.dumps({"experiment": "test", "rows": rows}))
    return Watch(name=name, path=path, key_fields=("config",), columns=("ratio",))


def row(config, ratio):
    return {"config": config, "ratio": ratio}


class TestCompare:
    def test_missing_baseline_file_skips(self, tmp_path):
        watch = make_watch(tmp_path, [], missing=True)
        notices, warnings, compared = compare(watch)
        assert notices and "nothing to compare" in notices[0]
        assert warnings == []
        assert compared == 0

    def test_unreadable_file_skips(self, tmp_path):
        watch = make_watch(tmp_path, [])
        watch.path.write_text("{not json")
        notices, warnings, compared = compare(watch)
        assert notices and "unreadable" in notices[0]
        assert compared == 0

    def test_single_sweep_is_baseline_only(self, tmp_path):
        watch = make_watch(tmp_path, [row("a", 2.0)])
        notices, warnings, compared = compare(watch)
        assert (notices, warnings, compared) == ([], [], 0)

    def test_zero_baseline_value_is_not_compared(self, tmp_path):
        # A zero (or negative) baseline cannot express a ratio drop; it
        # must be skipped, not divided by.
        watch = make_watch(tmp_path, [row("a", 0.0), row("a", 0.0)])
        notices, warnings, compared = compare(watch)
        assert warnings == []
        assert compared == 0

    def test_nan_baseline_value_is_not_compared(self, tmp_path):
        watch = make_watch(tmp_path, [row("a", float("nan")), row("a", 2.0)])
        notices, warnings, compared = compare(watch)
        # NaN comparisons are all false, so the config silently fails both
        # guards; it must count as not-compared rather than as a pass.
        assert warnings == []
        assert compared == 0

    def test_non_numeric_value_is_not_compared(self, tmp_path):
        watch = make_watch(tmp_path, [row("a", "fast"), row("a", 2.0)])
        assert compare(watch) == ([], [], 0)

    def test_boolean_value_is_not_compared(self, tmp_path):
        # bool is an int subclass; a True baseline must not masquerade as
        # a 1.0x ratio.
        watch = make_watch(tmp_path, [row("a", True), row("a", True)])
        assert compare(watch) == ([], [], 0)

    def test_regression_detected(self, tmp_path):
        watch = make_watch(tmp_path, [row("a", 2.0), row("a", 1.0)])
        notices, warnings, compared = compare(watch)
        assert compared == 1
        assert len(warnings) == 1
        assert "2.00x -> 1.00x" in warnings[0]

    def test_within_threshold_is_clean(self, tmp_path):
        watch = make_watch(tmp_path, [row("a", 2.0), row("a", 1.8)])
        notices, warnings, compared = compare(watch)
        assert warnings == []
        assert compared == 1

    def test_zero_latest_value_warns(self, tmp_path):
        # A collapsed fresh value (0.0) is the worst regression there is;
        # the epsilon floor keeps the division finite.
        watch = make_watch(tmp_path, [row("a", 2.0), row("a", 0.0)])
        _, warnings, compared = compare(watch)
        assert compared == 1
        assert len(warnings) == 1

    def test_noise_floor_skips_tiny_measurements(self, tmp_path):
        # A regression built on a sub-floor baseline measurement is
        # jitter, not signal: the config must count as not-compared.
        rows = [
            {"config": "a", "ratio": 5.0, "base_seconds": 0.0002},
            {"config": "a", "ratio": 1.0, "base_seconds": 0.0002},
            {"config": "b", "ratio": 5.0, "base_seconds": 1.5},
            {"config": "b", "ratio": 1.0, "base_seconds": 1.4},
        ]
        watch = make_watch(tmp_path, rows)
        watch = Watch(
            name=watch.name,
            path=watch.path,
            key_fields=watch.key_fields,
            columns=watch.columns,
            noise_floor=("base_seconds", 0.05),
        )
        notices, warnings, compared = compare(watch)
        assert compared == 1  # only config "b"
        assert len(warnings) == 1
        assert warnings[0].startswith("b ")

    def test_noise_floor_skips_missing_floor_column(self, tmp_path):
        watch = make_watch(tmp_path, [row("a", 5.0), row("a", 1.0)])
        watch = Watch(
            name=watch.name,
            path=watch.path,
            key_fields=watch.key_fields,
            columns=watch.columns,
            noise_floor=("absent", 0.05),
        )
        assert compare(watch) == ([], [], 0)


class TestReport:
    def test_empty_watchlist_never_prints_all_clear(self, tmp_path, capsys):
        # Rows exist but no configuration has both a baseline and a fresh
        # sweep: the report must say "skipped", not "within 30%".
        watch = make_watch(tmp_path, [row("a", 2.0)])
        assert report(watch) == 0
        output = capsys.readouterr().out
        assert "within 30%" not in output
        assert "skipped" in output

    def test_all_clear_names_compared_count(self, tmp_path, capsys):
        watch = make_watch(tmp_path, [row("a", 2.0), row("a", 2.0)])
        assert report(watch) == 0
        assert "1 configuration(s) compared" in capsys.readouterr().out

    def test_strict_mode_uses_error_annotations(self, tmp_path, capsys):
        watch = make_watch(tmp_path, [row("a", 2.0), row("a", 1.0)])
        assert report(watch, strict=True) == 1
        output = capsys.readouterr().out
        assert "::error::" in output
        assert "::warning::" not in output

    def test_default_mode_uses_warning_annotations(self, tmp_path, capsys):
        watch = make_watch(tmp_path, [row("a", 2.0), row("a", 1.0)])
        assert report(watch) == 1
        assert "::warning::" in capsys.readouterr().out


class TestMain:
    # An unknown file name takes the first watch's shape — E14's
    # ``policy`` / ``recovery_ratio``.
    def test_explicit_path_warn_only_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "BENCH_custom.json"
        path.write_text(
            json.dumps(
                {
                    "rows": [
                        {"policy": "p", "recovery_ratio": 5.0},
                        {"policy": "p", "recovery_ratio": 1.0},
                    ]
                }
            )
        )
        assert main([str(path)]) == 0
        assert "::warning::" in capsys.readouterr().out

    def test_fail_on_regression_sets_exit_code(self, tmp_path, capsys):
        path = tmp_path / "BENCH_custom.json"
        path.write_text(
            json.dumps(
                {
                    "rows": [
                        {"policy": "p", "recovery_ratio": 5.0},
                        {"policy": "p", "recovery_ratio": 1.0},
                    ]
                }
            )
        )
        assert main(["--fail-on-regression", str(path)]) == 1
        output = capsys.readouterr().out
        assert "::error::" in output
        assert "failing" in output

    def test_fail_flag_with_clean_run_exits_zero(self, tmp_path):
        path = tmp_path / "BENCH_custom.json"
        path.write_text(
            json.dumps(
                {
                    "rows": [
                        {"policy": "p", "recovery_ratio": 5.0},
                        {"policy": "p", "recovery_ratio": 5.0},
                    ]
                }
            )
        )
        assert main(["--fail-on-regression", str(path)]) == 0

    def test_threshold_is_thirty_percent(self):
        assert THRESHOLD == pytest.approx(1.30)


class TestE15TrajectoryGuard:
    def test_shortened_rows_never_enter_the_trajectory(self, tmp_path):
        from benchmarks.bench_e15_open_system import (
            DEFAULT_ARRIVALS,
            write_bench_json,
        )

        path = tmp_path / "BENCH_e15_open_system.json"
        write_bench_json([{"arrived": 200, "commit_rate": 1.0}], path)
        assert not path.exists()
        write_bench_json(
            [{"arrived": DEFAULT_ARRIVALS, "commit_rate": 1.0}], path
        )
        assert path.exists()
