"""Tests for run certification, history statistics and report formatting."""

from repro.analysis import (
    certify_history,
    certify_run,
    format_table,
    history_statistics,
)
from repro.scheduler import Scheduler, make_scheduler
from repro.simulation import BankingWorkload, HotspotWorkload, SimulationEngine

from tests.conftest import two_transaction_history


def run_workload(workload, scheduler, seed=0):
    base, specs = workload.build()
    engine = SimulationEngine(base, scheduler, seed=seed)
    engine.submit_all(specs)
    return engine.run()


class TestCertifyHistory:
    def test_serialisable_history_passes(self, serialisable_history):
        report = certify_history(serialisable_history)
        assert report.correct
        assert report.legal and report.serialisable and report.theorem5_holds
        assert report.violations == []
        assert report.serial_order == ("T1", "T2")
        assert report.committed_transactions == 2

    def test_non_serialisable_history_fails_with_reasons(self, non_serialisable_history):
        report = certify_history(non_serialisable_history)
        assert not report.correct
        assert not report.serialisable
        assert any("cycle" in violation for violation in report.violations)
        assert report.as_dict()["correct"] is False

    def test_legality_check_can_be_skipped(self, serialisable_history):
        report = certify_history(serialisable_history, check_legality=False)
        assert report.legal  # trivially true when not checked
        assert report.serialisable


class TestCertifyRun:
    def test_n2pl_run_certifies(self):
        workload = BankingWorkload(accounts=6, transactions=10, seed=2)
        result = run_workload(workload, make_scheduler("n2pl"))
        report = certify_run(result)
        assert report.correct
        assert report.committed_transactions == result.metrics.committed

    def test_pass_through_run_is_flagged(self):
        workload = HotspotWorkload(
            transactions=10, hot_objects=2, cold_objects=4, hot_probability=0.9, seed=3
        )
        result = run_workload(workload, Scheduler())
        report = certify_run(result, check_legality=False)
        assert not report.serialisable
        assert not report.correct


class TestHistoryStatistics:
    def test_statistics_of_two_transaction_history(self):
        history = two_transaction_history(compatible_orders=True)
        stats = history_statistics(history)
        assert stats.top_level_executions == 2
        assert stats.executions == 6
        assert stats.local_steps == 8
        assert stats.message_steps == 4
        assert stats.objects_touched == 2
        assert stats.max_nesting_depth == 1
        assert stats.steps_per_object == {"A": 4, "B": 4}
        assert stats.executions_per_object["environment"] == 2
        assert stats.as_dict()["executions"] == 6

    def test_statistics_of_empty_history(self):
        from repro.core import History

        stats = history_statistics(History([], {}))
        assert stats.executions == 0
        assert stats.max_nesting_depth == 0


class TestReportFormatting:
    rows = [
        {"scheduler": "n2pl", "throughput": 0.123456, "committed": 10, "ok": True},
        {"scheduler": "nto", "throughput": 0.2, "committed": 12, "ok": False},
    ]

    def test_format_table_aligns_columns(self):
        table = format_table(self.rows, ["scheduler", "throughput", "committed", "ok"])
        lines = table.splitlines()
        assert lines[0].startswith("scheduler")
        assert "0.1235" in table
        assert "yes" in table and "no" in table

    def test_format_table_with_title_and_empty_rows(self):
        assert "(no rows)" in format_table([], title="empty")
        titled = format_table(self.rows, title="Results")
        assert titled.splitlines()[0] == "Results"
