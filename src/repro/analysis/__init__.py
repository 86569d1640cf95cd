"""Analysis layer: run certification, history statistics and text reports.

Profiling is not part of this layer: ``python3 -m bench.run --trace 1``
prints the per-layer table, and ``python3 -m cProfile -o hot.pstats -m
bench.onepass --workload W --kind timed --seed N`` writes a pstats dump.
"""

from .certify import CertificationReport, certify_history, certify_run
from .streaming import StreamingCertifier
from .report import (
    format_comparison,
    format_markdown_table,
    format_table,
    relative_change,
    summarise_sweep,
)
from .stats import HistoryStatistics, history_statistics

__all__ = [
    "CertificationReport",
    "HistoryStatistics",
    "StreamingCertifier",
    "certify_history",
    "certify_run",
    "format_comparison",
    "format_markdown_table",
    "format_table",
    "history_statistics",
    "relative_change",
    "summarise_sweep",
]
