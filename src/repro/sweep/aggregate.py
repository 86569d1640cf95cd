"""Aggregation and reporting over sweep results.

A sweep produces one flat metrics row per scenario
(:attr:`~repro.sweep.runner.ScenarioResult.row`).  This module merges
those rows into grouped summary tables — mean/min/max of chosen metrics
per group key (typically a sweep axis such as ``scheduler`` or
``hot_probability``) — and assembles the whole result as a JSON-ready
document with a markdown rendering, reusing the text-table machinery in
:mod:`repro.analysis.report` so every experiment's output stays uniform.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

from ..analysis.report import format_markdown_table, format_table
from .runner import ScenarioResult

_AGGREGATIONS: dict[str, Callable[[Sequence[float]], float]] = {
    "mean": lambda values: sum(values) / len(values),
    "min": min,
    "max": max,
    "sum": sum,
}


def rows_of(results: Iterable[ScenarioResult | Mapping[str, Any]]) -> list[dict[str, Any]]:
    """Normalise results (or already-flat rows) to a list of row dicts."""
    rows = []
    for result in results:
        if isinstance(result, ScenarioResult):
            rows.append(dict(result.row))
        else:
            rows.append(dict(result))
    return rows


def group_rows(
    rows: Iterable[Mapping[str, Any]],
    group_by: Sequence[str],
    metrics: Sequence[str],
    *,
    aggregations: Sequence[str] = ("mean", "min", "max"),
) -> list[dict[str, Any]]:
    """Merge rows into one summary row per distinct ``group_by`` key.

    Args:
        rows: flat per-scenario metrics rows.
        group_by: columns whose value-tuples define the groups (rows
            missing a key group under ``None``).
        metrics: numeric columns to aggregate (non-numeric and missing
            values are skipped per group).
        aggregations: names from ``mean``/``min``/``max``/``sum``; each
            produces a ``<metric>_<aggregation>`` column.

    Returns:
        One row per group, in first-appearance order, carrying the group
        keys, a ``scenarios`` count and the aggregated metric columns.
    """
    unknown = sorted(set(aggregations) - set(_AGGREGATIONS))
    if unknown:
        raise ValueError(
            f"unknown aggregations {unknown}; available: {', '.join(sorted(_AGGREGATIONS))}"
        )
    grouped: dict[tuple, list[Mapping[str, Any]]] = {}
    for row in rows:
        key = tuple(row.get(column) for column in group_by)
        grouped.setdefault(key, []).append(row)
    summary_rows = []
    for key, members in grouped.items():
        summary: dict[str, Any] = dict(zip(group_by, key))
        summary["scenarios"] = len(members)
        for metric in metrics:
            values = [
                row[metric]
                for row in members
                if isinstance(row.get(metric), (int, float))
                and not isinstance(row.get(metric), bool)
            ]
            for aggregation in aggregations:
                summary[f"{metric}_{aggregation}"] = (
                    _AGGREGATIONS[aggregation](values) if values else None
                )
        summary_rows.append(summary)
    return summary_rows


def sweep_report(
    name: str,
    results: Iterable[ScenarioResult | Mapping[str, Any]],
    *,
    group_by: Sequence[str] = (),
    metrics: Sequence[str] = (),
    aggregations: Sequence[str] = ("mean", "min", "max"),
    extra: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble the JSON-ready report document for one sweep.

    The document carries the per-scenario rows verbatim plus (when
    ``group_by`` is given) the grouped summary table, and any ``extra``
    top-level entries (timing records, host facts) the caller supplies.
    """
    rows = rows_of(results)
    report: dict[str, Any] = {"sweep": name, "scenarios": len(rows), "rows": rows}
    if group_by:
        report["grouped"] = {
            "group_by": list(group_by),
            "metrics": list(metrics),
            "aggregations": list(aggregations),
            "rows": group_rows(rows, group_by, metrics, aggregations=aggregations),
        }
    if extra:
        report.update(extra)
    return report


def render_markdown_report(
    report: Mapping[str, Any],
    *,
    columns: Sequence[str] | None = None,
    precision: int = 4,
) -> str:
    """Render a :func:`sweep_report` document as a markdown fragment.

    Emits the per-scenario table and, when present, the grouped summary
    table underneath it.
    """
    lines = [f"## Sweep `{report['sweep']}` — {report['scenarios']} scenarios", ""]
    lines.append(format_markdown_table(report["rows"], columns, precision=precision))
    grouped = report.get("grouped")
    if grouped and grouped.get("rows"):
        lines.extend(["", f"### Grouped by {', '.join(grouped['group_by'])}", ""])
        lines.append(format_markdown_table(grouped["rows"], None, precision=precision))
    return "\n".join(lines) + "\n"


def print_report(report: Mapping[str, Any], *, columns: Sequence[str] | None = None) -> None:
    """Print the per-scenario (and grouped) tables as aligned plain text."""
    print(format_table(report["rows"], columns, title=f"sweep {report['sweep']}"))
    grouped = report.get("grouped")
    if grouped and grouped.get("rows"):
        print()
        print(
            format_table(
                grouped["rows"], title=f"grouped by {', '.join(grouped['group_by'])}"
            )
        )
