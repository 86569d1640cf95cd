"""Re-verification: E14/E15 sweeps still reproduce their golden rows.

The hot-loop rewrite (PR 6) must not change *what* the engine computes,
only how fast — and the strongest cross-PR witness of that is the golden
rows themselves: every machine-independent column of the E14
restart-policy storm and the E15 open-system sweep must come out
bit-identical to the committed ``BENCH_*.json``.  Wall-clock columns are
not part of the comparison (that is ``compare_bench``'s noise-floored
job).

Both go through the experiments' own records: a full-size run
(whatever ``REPRO_E15_ARRIVALS`` says) held against the golden by the
same :meth:`~benchmarks.harness.Experiment.check_pins` the benchmark
steps use, on the same pinned columns — every table column, the
``serialisable`` verdict the streaming certifier stamps on every E15 row
included.

The comparison this file used to make against the *first* recorded E15
sweep (``certify=False``, before the streaming certifier existed) went
with that sweep when the trajectory became a golden; that
``certify="stream"`` never steers the engine it watches is held by
``tests/sweep/test_open_system_sweep.py::TestStreamCertifySweep::
test_stream_certify_serial_equals_spawn_parallel`` (certified rows equal
the ``certify=False`` rows off the certifier's own columns), by E17's
plain-vs-stream identity, and against post-hoc certification by
``tests/analysis/test_streaming_certification.py``.
"""

from __future__ import annotations

from benchmarks import bench_e14_restart_policies as e14
from benchmarks import bench_e15_open_system as e15


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
