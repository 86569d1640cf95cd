"""E17 — streaming certification overhead: O(new-work) checks at commit time.

Post-hoc ``certify_run`` on a 2,000-transaction history costs *minutes*
against a ~19-second run (the E12 scaling wall that originally forced
E15 to ship ``certify=False``).  The
:class:`~repro.analysis.streaming.StreamingCertifier` folds the same
checks — legality replay, serialisation-graph acyclicity, Theorem 5(a)/(b)
— into the engine's commit path, doing work proportional to each commit's
new steps against a garbage-collected window.  E17 measures what that
online certification actually costs on a long stream and gates it:

* each scheduler runs the identical **100,000-arrival** E15-shaped
  hotspot stream twice in-process — once plain (``certify=False``) and
  once with ``certify="stream"`` — and the wall-clock ratio
  ``certify_overhead = wall_stream / wall_plain`` must stay **below 2x**
  (the acceptance gate; measured ~1.3–1.8x, flat-to-falling in stream
  length because the certifier touches only committed steps against a
  GC-bounded window);
* the arrival rate sits just below the slowest scheduler's service
  capacity, so the stream is *stable*: the in-flight population — and
  with it both runs' wall clock per arrival — is independent of stream
  length, which is what makes a 100,000-arrival measurement tractable
  at all (above capacity every open-system run goes quadratic, plain or
  certified);
* the certifier is a pure observer, so the two runs must be
  **bit-identical** on every machine-independent column — asserted per
  row before it is accepted;
* every stream must certify clean (``serialisable`` and ``legal``), and
  the certified run's live-state gauge — which now includes the
  certifier's retained window — must stay O(in-flight + gc_interval),
  the same bound E15 asserts;
* ``compare_bench.py`` watches the reciprocal ratio
  ``certify_relative_throughput = wall_plain / wall_stream`` (higher is
  better, machine-independent as an in-run ratio) with a wall-clock
  noise floor, so the O(new-work) property can never silently regress
  back towards post-hoc cost.

``REPRO_E17_ARRIVALS`` shortens the stream for local iteration and the
CI smoke step; a shortened run is written to ``benchmarks/out/`` marked as
such and ``compare_bench`` reports it as not compared with the golden
``BENCH_e17_streaming_certification.json``.
"""

from __future__ import annotations

from repro.sweep import ScenarioSpec, build_engine

from .bench_e15_open_system import assert_stream_row
from .harness import Experiment, hotspot_spec, timed_best

#: Arrivals per scenario: the variable that shortens the stream (the full
#: size, 100,000, is also the acceptance floor).
SIZE = "REPRO_E17_ARRIVALS"

SEED = 1717
#: Arrival rate just below the slowest scheduler's service capacity:
#: the stream stays *stable* (bounded in-flight population), so wall
#: clock is linear in arrivals and a 100,000-arrival run is tractable.
#: Above capacity (~0.055 here) the in-flight population grows with the
#: stream and every run goes quadratic — a property of the open system,
#: not of certification.
STREAM_RATE = 0.045
#: Engine GC cadence (transactions between passes): also the certifier's
#: pruning cadence, so a tighter interval keeps the retained window — and
#: with it the per-commit classification scan — small.
GC_INTERVAL = 16
SCHEDULERS = ("n2pl", "nto-step", "certifier")

#: The acceptance gate: certified wall clock over plain wall clock.
OVERHEAD_CEILING = 2.0

#: Metrics that must be bit-identical between the plain and certified
#: runs — the certifier is an observer and must never steer the engine.
DETERMINISTIC_METRICS = ("committed", "commit_rate", "total_ticks", "arrived")


def _spec(scheduler: str, arrivals: int, certify) -> ScenarioSpec:
    # At rate 0.045 the last of 100,000 arrivals lands around tick 2.2M —
    # past the engine's default cap, which would refuse the run
    # (undelivered arrivals at max_ticks raise SimulationError).  Scale
    # the cap with the requested size.
    max_ticks = max(2_000_000, int(arrivals / STREAM_RATE) + 500_000)
    return hotspot_spec(
        scheduler, arrivals, SEED, rate=STREAM_RATE, certify=certify,
        engine_params={"gc_interval": GC_INTERVAL, "max_ticks": max_ticks},
    )


def measure(scheduler: str, sizing) -> dict:
    """Run one scheduler plain and certified; report the overhead row."""
    arrivals = sizing[SIZE]
    wall_plain, plain, _ = timed_best(
        sizing.repeats, lambda: build_engine(_spec(scheduler, arrivals, False)), freeze_gc=True
    )
    wall_stream, streamed, engine = timed_best(
        sizing.repeats, lambda: build_engine(_spec(scheduler, arrivals, "stream")), freeze_gc=True
    )

    for name in DETERMINISTIC_METRICS:
        before = getattr(plain.metrics, name)
        after = getattr(streamed.metrics, name)
        assert before == after, (
            f"{scheduler}: certify='stream' changed {name}: {before!r} != {after!r}"
        )

    report = streamed.streaming_report
    return {
        "scheduler": scheduler,
        "arrivals": arrivals,
        "committed": streamed.metrics.committed,
        "commit_rate": streamed.metrics.commit_rate,
        "makespan": streamed.metrics.total_ticks,
        "in_flight_peak": streamed.metrics.in_flight_peak,
        "live_state_peak": streamed.metrics.live_state_peak,
        "wall_seconds_plain": wall_plain,
        "wall_seconds_stream": wall_stream,
        "certify_overhead": wall_stream / max(wall_plain, 1e-9),
        "certify_relative_throughput": wall_plain / max(wall_stream, 1e-9),
        "serialisable": report.serialisable,
        "legal": report.legal,
        "gc_pruned": engine._certifier.gc_pruned,
    }


def run_experiment(sizing) -> list[dict]:
    return [measure(scheduler, sizing) for scheduler in SCHEDULERS]


EXPERIMENT = Experiment(
    name="e17_streaming_certification",
    title="E17: streaming certification overhead",
    columns=(
        "scheduler", "arrivals", "committed", "commit_rate", "makespan",
        "wall_seconds_plain", "wall_seconds_stream", "certify_overhead",
        "certify_relative_throughput", "serialisable", "legal",
        "live_state_peak", "gc_pruned",
    ),
    key_fields=("scheduler",),
    run=run_experiment,
    full_sizes={SIZE: 100_000},
    repeats=("REPRO_E17_REPEATS", 1),
    # The certification overhead as a *throughput* ratio (plain wall over
    # certified wall) so that, like every watched column, higher is
    # better; ``commit_rate`` rides along as the determinism canary.
    watched=("certify_relative_throughput", "commit_rate"),
    # Both walls come from the same in-process run pair, but a plain run
    # quicker than the floor makes the ratio scheduling jitter.
    noise_floor=("wall_seconds_plain", 0.25),
)


def test_e17_streaming_certification(benchmark):
    rows = EXPERIMENT.execute(benchmark)
    for row in rows:
        label = row["scheduler"]
        # Same gates, and the same live-state bound, as an E15 row: peak
        # live state within a constant multiple of the retention window
        # (in-flight peak + one GC interval of not-yet-collected
        # transactions), never of the total arrival count.
        assert_stream_row(row, label, row["arrivals"], GC_INTERVAL)
        assert row["legal"] is True, f"{label}: stream failed legality"
        # The acceptance gate: online certification under 2x plain run time.
        assert row["certify_overhead"] < OVERHEAD_CEILING, (
            f"{label}: certify='stream' costs {row['certify_overhead']:.2f}x "
            f"the plain run (ceiling {OVERHEAD_CEILING}x)"
        )
        # The certifier's window must be garbage-collected on a stream this
        # long — a zero prune count means the O(new-work) claim is hollow.
        assert row["gc_pruned"] > 0, f"{label}: certifier GC never pruned"


if __name__ == "__main__":  # pragma: no cover - manual/CI smoke entry point
    EXPERIMENT.execute()
