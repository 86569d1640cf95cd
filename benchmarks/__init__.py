"""Experiment benchmarks (E1-E19); see DESIGN.md for the experiment index.

A package so the ``bench_e*`` modules can share :mod:`benchmarks.harness`
whether they are run under pytest (``pytest benchmarks/``) or as modules
(``python -m benchmarks.bench_e11_abort_heavy``).
"""
