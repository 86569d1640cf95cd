"""Plain-text tables for experiment output.

The benchmark harness and the examples print their results as aligned text
tables (the paper has no tables of its own, so these are the artefacts
EXPERIMENTS.md records).  Keeping the formatting here keeps every
experiment's output uniform.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence


def _format_value(value: Any, precision: int) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Sequence[str] | None = None,
    *,
    precision: int = 4,
    title: str | None = None,
) -> str:
    """Render ``rows`` (dictionaries) as an aligned plain-text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered_rows = [
        [_format_value(row.get(column, ""), precision) for column in columns] for row in rows
    ]
    widths = [
        max(len(str(column)), *(len(rendered[index]) for rendered in rendered_rows))
        for index, column in enumerate(columns)
    ]
    header = "  ".join(str(column).ljust(widths[index]) for index, column in enumerate(columns))
    separator = "  ".join("-" * widths[index] for index in range(len(columns)))
    body = [
        "  ".join(rendered[index].ljust(widths[index]) for index in range(len(columns)))
        for rendered in rendered_rows
    ]
    lines = []
    if title:
        lines.extend([title, "=" * len(title)])
    lines.extend([header, separator, *body])
    return "\n".join(lines)

