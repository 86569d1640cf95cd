"""Re-verification: E14/E15 sweeps and the hot-loop counts still reproduce.

The hot-loop rewrite (PR 6) must not change *what* the engine computes,
only how fast — and the strongest cross-PR witness of that is the golden
rows themselves: every machine-independent column of the E14
restart-policy storm and the E15 open-system sweep must come out
bit-identical to the committed ``BENCH_*.json``.  No wall-clock column is
compared; wall-clock speed is ``bench/``'s to measure.

Both go through the experiments' own records: a full-size run
(whatever ``REPRO_E15_ARRIVALS`` says) held against the golden by the
same :meth:`~benchmarks.harness.Experiment.check_pins` the benchmark
steps use, on the same pinned columns — every table column, the
``serialisable`` verdict the streaming certifier stamps on every E15 row
included.  This is the full-size run of both experiments; CI has no
separate step for them.

The comparison this file used to make against the *first* recorded E15
sweep (``certify=False``, before the streaming certifier existed) went
with that sweep when the trajectory became a golden; that
``certify="stream"`` never steers the engine it watches is held by
``tests/sweep/test_open_system_sweep.py::TestStreamCertifySweep::
test_stream_certify_serial_equals_spawn_parallel`` (certified rows equal
the ``certify=False`` rows off the certifier's own columns), and against
post-hoc certification by ``tests/analysis/test_streaming_certification.py``.
"""

from __future__ import annotations

import pytest

from benchmarks import bench_e14_restart_policies as e14
from benchmarks import bench_e15_open_system as e15
from benchmarks.harness import hotspot_spec
from repro.sweep import build_engine

#: The E15 hotspot configuration (seed 1515) as a closed batch of 300
#: transactions at tick 0 and as a 2,000-arrival poisson stream at E15's
#: near-capacity rate: scheduling decisions, ticks and commits per
#: scheduler.  These are the counts the engine before the event-loop
#: rewrite produced, and no change since has moved them.  The stream runs
#: are E15's ``poisson@0.055`` rows, which do not record decisions.
HOT_LOOP_COUNTS = {
    ("n2pl", "closed"): (15_636, 21_678, 300),
    ("nto-step", "closed"): (20_784, 26_634, 300),
    ("certifier", "closed"): (35_817, 41_262, 300),
    ("n2pl", "stream"): (26_415, 35_834, 2000),
    ("nto-step", "stream"): (26_651, 35_834, 2000),
    ("certifier", "stream"): (26_792, 35_834, 2000),
}


def assert_reproduces_golden(module):
    experiment = module.EXPERIMENT
    assert experiment.pinned == module.COLUMNS
    rows = experiment.run(experiment.sizing(environ={}))
    assert {experiment.key(row) for row in rows} == set(experiment.golden_rows())
    experiment.check_pins(rows)


class TestCommittedSweepsReproduce:
    def test_e14_restart_policy_rows_are_bit_identical(self):
        # Every E14 column is a pure function of the scenario spec: counts,
        # tick-derived ratios and certification verdicts.
        assert_reproduces_golden(e14)

    def test_e15_open_system_rows_are_bit_identical(self):
        assert_reproduces_golden(e15)


class TestHotLoopCounts:
    @pytest.mark.parametrize("scheduler, mode", list(HOT_LOOP_COUNTS))
    def test_decisions_ticks_and_commits_are_pinned(self, scheduler, mode):
        size, rate = (300, None) if mode == "closed" else (2000, 0.055)
        metrics = build_engine(hotspot_spec(scheduler, size, 1515, rate=rate)).run().metrics
        counts = (metrics.decisions, metrics.total_ticks, metrics.committed)
        assert counts == HOT_LOOP_COUNTS[scheduler, mode]
