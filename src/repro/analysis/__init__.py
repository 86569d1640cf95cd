"""Analysis layer: run certification, history statistics and text reports.

Profiling is not part of this layer: ``python3 -m bench.run --trace 1``
prints the per-layer table, and ``python3 -m cProfile -o hot.pstats -m
bench.onepass --workload W --kind timed --seed N`` writes a pstats dump.
"""

from .certify import certify_history, certify_run, theorem_5_conditions
from .streaming import CertificationReport, StreamingCertifier, Theorem5Report
from .report import format_markdown_table, format_table
from .stats import HistoryStatistics, history_statistics

__all__ = [
    "CertificationReport",
    "HistoryStatistics",
    "StreamingCertifier",
    "Theorem5Report",
    "certify_history",
    "certify_run",
    "format_markdown_table",
    "format_table",
    "history_statistics",
    "theorem_5_conditions",
]
