"""Aggregation layer: grouping math and the markdown report rendering."""

from __future__ import annotations

import pytest

from repro.analysis import format_markdown_table
from repro.sweep import (
    ScenarioResult,
    ScenarioSpec,
    group_rows,
    render_markdown_report,
    rows_of,
    sweep_report,
)

ROWS = [
    {"scheduler": "n2pl", "hot": 0.1, "committed": 10, "aborts": 2, "serialisable": True},
    {"scheduler": "n2pl", "hot": 0.9, "committed": 6, "aborts": 8, "serialisable": True},
    {"scheduler": "nto", "hot": 0.1, "committed": 9, "aborts": 4, "serialisable": True},
    {"scheduler": "nto", "hot": 0.9, "committed": 5, "aborts": 12, "serialisable": True},
]


def test_group_rows_aggregates_per_key():
    grouped = group_rows(ROWS, ("scheduler",), ("committed", "aborts"))
    assert [row["scheduler"] for row in grouped] == ["n2pl", "nto"]  # first-appearance order
    n2pl = grouped[0]
    assert n2pl["scenarios"] == 2
    assert n2pl["committed_mean"] == pytest.approx(8.0)
    assert n2pl["committed_min"] == 6
    assert n2pl["committed_max"] == 10
    assert n2pl["aborts_mean"] == pytest.approx(5.0)


def test_group_rows_skips_non_numeric_and_missing_values():
    rows = ROWS + [{"scheduler": "n2pl", "committed": "broken"}]
    grouped = group_rows(rows, ("scheduler",), ("committed", "serialisable", "absent"))
    n2pl = grouped[0]
    assert n2pl["scenarios"] == 3
    # The non-numeric cell is ignored, not coerced.
    assert n2pl["committed_mean"] == pytest.approx(8.0)
    # Booleans are not treated as numbers; all-missing metrics give None.
    assert n2pl["serialisable_mean"] is None
    assert n2pl["absent_mean"] is None


def test_group_rows_rejects_unknown_aggregation():
    with pytest.raises(ValueError, match="unknown aggregations"):
        group_rows(ROWS, ("scheduler",), ("committed",), aggregations=("median",))


def test_rows_of_accepts_results_and_mappings():
    spec = ScenarioSpec(workload="hotspot", scheduler="n2pl")
    result = ScenarioResult(index=0, spec=spec, row=ROWS[0], elapsed_seconds=0.1, worker_pid=1)
    rows = rows_of([result, ROWS[1]])
    assert rows == [ROWS[0], ROWS[1]]
    # Copies, not aliases.
    rows[0]["committed"] = -1
    assert ROWS[0]["committed"] == 10


def test_sweep_report_structure_and_extra():
    report = sweep_report(
        "unit",
        ROWS,
        group_by=("scheduler",),
        metrics=("committed",),
        extra={"serial_seconds": 1.5},
    )
    assert report["sweep"] == "unit"
    assert report["scenarios"] == 4
    assert report["rows"] == ROWS
    assert report["serial_seconds"] == 1.5
    assert report["grouped"]["group_by"] == ["scheduler"]
    assert len(report["grouped"]["rows"]) == 2


def test_render_markdown_report_with_grouping():
    report = sweep_report("unit", ROWS, group_by=("scheduler",), metrics=("committed",))
    text = render_markdown_report(report)
    assert "## Sweep `unit` — 4 scenarios" in text
    assert "### Grouped by scheduler" in text
    assert "| scheduler |" in text


def test_render_markdown_report_without_grouping():
    report = sweep_report("plain", ROWS)
    text = render_markdown_report(report, columns=("scheduler", "committed"))
    assert "Grouped" not in text
    assert text.count("| n2pl | 10 |") == 1


def test_format_markdown_table_cells():
    table = format_markdown_table(
        [{"a": 1.23456, "b": True}, {"a": 2, "b": False}], precision=2, title="T"
    )
    lines = table.splitlines()
    assert lines[0] == "**T**"
    assert "| a | b |" in lines
    assert "| 1.23 | yes |" in lines
    assert "| 2 | no |" in lines
    assert format_markdown_table([]) == "(no rows)"
