"""E15 — open-system workloads: arrival streams, latency, and bounded state.

Every earlier experiment ran a *closed* system: a fixed batch submitted at
tick 0 and drained.  E15 measures the schedulers the way a production
object base would meet them — transactions *arriving over time* from a
seeded :class:`~repro.simulation.arrivals.ArrivalProcess` — and sweeps
the arrival rate λ towards the engine's service capacity:

* the engine resolves one scheduling decision per tick, so its raw
  capacity on this workload (~14 productive ticks per transaction) is
  roughly ``μ ≈ 0.065`` transactions/tick; the poisson points at
  λ = 0.02 / 0.045 / 0.055 step utilisation from ~30% to ~85%, and the
  queueing-theory knee shows up exactly as expected: mean latency grows
  gently until ~70% utilisation and then turns sharply upward
  approaching capacity (beyond it the optimistic schedulers tip into a
  restart-thrash regime whose makespan diverges — the cliff E15
  deliberately stops short of), while a ``bursty`` stream (16
  back-to-back arrivals per burst) shows the flash-crowd version of the
  same queueing at a *lower* average rate;
* each scenario streams **2,000 arrivals** through a bounded-memory
  engine: the live-state gauge (scheduler records + candidate edges +
  undo segments + parked frames, sampled at every garbage-collection
  pass) must stay within a constant multiple of the in-flight peak —
  O(in-flight), *not* O(total arrivals) — which is asserted on every
  row;
* four scheduler configurations run the identical stream: ``n2pl``,
  ``nto-step``, the optimistic ``certifier`` and the ``modular``
  intra-/inter-object split (all with ``backoff`` restarts; immediate
  restarts thrash at these concurrencies, see E14).  ``modular`` joined
  the grid once its coordinator records and timestamp synchronisers
  became garbage-collected (ROADMAP item 5) — before that its retained
  state grew with the arrival count and the bounded-memory assertion
  could not hold.

Rows are a pure function of the spec (the arrival schedule is seeded),
so a full-size sweep is pinned to the golden ``BENCH_e15_open_system.json``
on every table column.  Every scenario is certified
**online** (``certify="stream"``): post-hoc certification of a
2,000-transaction history is an experiment-sized cost of its own (see
the E12 scaling notes), but the streaming certifier's O(new-work)
commit-time checks ride along at a small constant factor (``bench/``
measures it as ``analysis.streaming.overhead_ratio``), so every row
carries a machine-checked ``serialisable`` verdict and the certifier's retained window is counted
into the bounded-memory live-state gauge.  The streaming verdicts are
oracle-tested against post-hoc ``certify_run`` at smaller sizes by
``tests/analysis/test_streaming_certification.py``, and the engine's GC
by ``tests/simulation/test_open_system.py`` on the ``tests/oracles`` engines.

``REPRO_E15_ARRIVALS`` overrides the stream length for local iteration;
a shortened sweep is written to ``benchmarks/out/`` marked as such and is
not pinned to the golden.
"""

from __future__ import annotations

from repro.sweep import Axis, AxisPoint, SweepSpec

from .harness import Experiment, hotspot_spec, run_sweep_rows

COLUMNS = (
    "scheduler", "arrival", "committed", "commit_rate", "arrived",
    "in_flight_peak", "mean_latency", "latency_max", "live_state_peak",
    "live_state_ratio", "saturated", "makespan", "throughput", "serialisable",
)

#: Arrivals per scenario: the variable that shortens the stream (the full
#: size, 2,000, is also the acceptance floor).
SIZE = "REPRO_E15_ARRIVALS"

#: A scenario counts as saturated when its mean latency exceeds this
#: multiple of the same scheduler's latency at the lightest arrival rate.
SATURATION_FACTOR = 4.0

#: Peak live state may exceed the retention window — the in-flight peak
#: plus at most ``gc_interval`` resolved-but-not-yet-collected
#: transactions (the gauge samples just before each pruning pass) — by at
#: most this factor: records scale with the steps *per* retained
#: transaction, never with the total arrival count.  The factor covers
#: the engine's own records *and*, since certification went online, the
#: streaming certifier's retained window (graph nodes/edges, per-object
#: graphs, the classification step window and the replay heap — roughly
#: another ~25 items per not-yet-collected transaction; measured worst
#: case ~52x on the ``certifier`` scheduler, whose optimistic candidate
#: edges stack on top).
LIVE_STATE_RATIO_BOUND = 64.0

GC_INTERVAL = 64


def _arrival_point(label: str, name: str, **params) -> AxisPoint:
    return AxisPoint(
        label,
        {"workload_params.arrival": name, "workload_params.arrival_params": params},
    )


ARRIVAL_POINTS = (
    _arrival_point("poisson@0.02", "poisson", rate=0.02),
    _arrival_point("poisson@0.045", "poisson", rate=0.045),
    _arrival_point("poisson@0.055", "poisson", rate=0.055),
    _arrival_point("bursty@16x640", "bursty", burst=16, mean_gap=640, within_gap=8),
)

#: All with ``backoff`` restarts (the base spec's).  ``modular`` was
#: admitted once ROADMAP item 5 landed: the coordinator's frontier GC and
#: the timestamp synchronisers' watermarks bound its retained state, so
#: the long-horizon grid's live-state assertion holds for it too.
SCHEDULERS = ("n2pl", "nto-step", "certifier", "modular")


def make_sweep(arrivals: int) -> SweepSpec:
    return SweepSpec(
        name="e15_open_system",
        base=hotspot_spec(
            "n2pl", arrivals, 1515, rate=0.02, certify="stream",
            engine_params={"gc_interval": GC_INTERVAL},
        ),
        axes=(Axis("scheduler", SCHEDULERS), Axis("arrival", ARRIVAL_POINTS)),
    )


def run_experiment(sizing) -> list[dict]:
    rows = run_sweep_rows(make_sweep(sizing[SIZE]))
    # Per-scheduler saturation flag: latency vs the lightest poisson point.
    lightest = {
        row["scheduler"]: row["mean_latency"]
        for row in rows
        if row["arrival"] == ARRIVAL_POINTS[0].label
    }
    for row in rows:
        floor = max(lightest.get(row["scheduler"], 0.0), 1e-9)
        row["saturated"] = bool(row["mean_latency"] > SATURATION_FACTOR * floor)
    return rows


EXPERIMENT = Experiment(
    name="e15_open_system",
    title="E15: open-system arrival streams (saturation & latency)",
    columns=COLUMNS,
    key_fields=("scheduler", "arrival"),
    run=run_experiment,
    full_sizes={SIZE: 2000},
    pinned=COLUMNS,
)


def test_e15_open_system(benchmark):
    rows = EXPERIMENT.execute(benchmark)
    arrivals = EXPERIMENT.sizing()[SIZE]
    for row in rows:
        label = f"{row['scheduler']}/{row['arrival']}"
        # Every arrival enters the system, and with backoff restarts at
        # these utilisations every transaction eventually commits.
        assert row["arrived"] == arrivals, f"{label}: stream released {row['arrived']}"
        assert row["committed"] == arrivals, f"{label}: only {row['committed']}/{arrivals} commits"
        # Certification runs online; every stream must certify clean.
        assert row["serialisable"] is True, f"{label}: stream failed certification"
        # The bounded-memory claim: peak retained live state tracks the
        # retention window (in-flight + one GC interval), not the total
        # arrival count.
        window = max(1, row["in_flight_peak"]) + GC_INTERVAL
        assert row["live_state_peak"] <= LIVE_STATE_RATIO_BOUND * window, (
            f"{label}: live-state peak {row['live_state_peak']} exceeds "
            f"{LIVE_STATE_RATIO_BOUND}x the retention window {window} "
            f"(in-flight peak {row['in_flight_peak']} + gc_interval {GC_INTERVAL})"
        )
    # The latency knee: every scheduler's near-capacity poisson point is
    # strictly slower than its lightest one.
    for scheduler in SCHEDULERS:
        by_arrival = {
            row["arrival"]: row for row in rows if row["scheduler"] == scheduler
        }
        light = by_arrival[ARRIVAL_POINTS[0].label]["mean_latency"]
        heavy = by_arrival[ARRIVAL_POINTS[2].label]["mean_latency"]
        assert heavy > light, f"{scheduler}: no latency growth towards capacity"


if __name__ == "__main__":  # pragma: no cover - manual/CI smoke entry point
    EXPERIMENT.execute()
