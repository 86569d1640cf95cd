"""Analysis layer: run certification, history statistics and text reports.

Profiling is not part of this layer: ``python3 -m bench.run --trace 1``
prints the per-layer table, and ``python3 -m cProfile -o hot.pstats -m
bench.onepass --workload W --kind timed --seed N`` writes a pstats dump.
"""

from ..core.registry import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        ".certify": ("certify_history", "certify_run", "theorem_5_conditions"),
        ".streaming": ("CertificationReport", "StreamingCertifier", "Theorem5Report"),
        ".report": ("format_markdown_table", "format_table"),
        ".stats": ("HistoryStatistics", "history_statistics"),
    },
)
