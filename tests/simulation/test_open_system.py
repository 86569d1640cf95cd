"""Open-system streaming runs: latency metrics, determinism, live-state GC.

The garbage collector must be *invisible* except in memory: the oracle
tests below run streaming scenarios on ``tests/oracles``'
``ReenumeratingCertifier`` (certifier commit decisions revalidated
against a full re-enumeration) and ``ReplayCheckedEngine`` (incremental
undo cross-checked against full replay), both with an aggressively small
``gc_interval`` so collection happens constantly while the oracles watch.
"""

import pytest

from repro.analysis import certify_run
from repro.core.errors import SimulationError, UnknownMethodError
from repro.scheduler import make_scheduler
from repro.simulation import SimulationEngine, TransactionSpec, make_arrival_process, make_workload
from repro.simulation.events import BEGIN
from repro.sweep import summarise_run

from tests.oracles.certifier import ReenumeratingCertifier
from tests.oracles.engines import ReplayCheckedEngine


def build_stream_engine(
    scheduler_name,
    *,
    transactions=60,
    rate=0.05,
    seed=7,
    scheduler_kwargs=None,
    hot_probability=0.2,
    engine_class=SimulationEngine,
    **engine_params,
):
    workload = make_workload(
        "hotspot",
        transactions=transactions,
        hot_probability=hot_probability,
        cold_objects=64,
        operations_per_transaction=2,
        use_service_layer=False,
        seed=3,
    )
    base, specs = workload.build()
    scheduler = make_scheduler(scheduler_name, **(scheduler_kwargs or {}))
    engine = engine_class(base, scheduler, seed=seed, **engine_params)
    return engine, specs, {"name": "poisson", "rate": rate}


class TestRunStream:
    def test_all_arrivals_commit(self):
        engine, specs, arrival = build_stream_engine(
            "n2pl", scheduler_kwargs={"restart_policy": "backoff"}
        )
        result = engine.run_stream(specs, arrival)
        metrics = result.metrics
        assert metrics.arrived == len(specs)
        assert metrics.submitted == len(specs)
        assert metrics.committed == len(specs)
        assert metrics.latency_count == metrics.committed
        assert metrics.mean_latency > 0
        assert metrics.latency_max >= metrics.mean_latency
        assert 0 < metrics.in_flight_peak <= len(specs)

    def test_arrivals_spread_over_time(self):
        # With a slow stream the system never holds the whole batch: the
        # in-flight peak stays well below the closed-batch equivalent.
        engine, specs, arrival = build_stream_engine("n2pl", rate=0.01)
        streamed = engine.run_stream(specs, arrival)
        assert streamed.metrics.in_flight_peak < len(specs) / 2
        closed_engine, specs2, _ = build_stream_engine("n2pl", rate=0.01)
        closed_engine.submit_all(specs2)
        closed = closed_engine.run()
        assert closed.metrics.in_flight_peak == len(specs2)
        # The stream stretches the makespan to (at least) the arrival span.
        assert streamed.metrics.total_ticks > closed.metrics.total_ticks

    def test_streamed_run_is_deterministic(self):
        rows = []
        for _ in range(2):
            engine, specs, arrival = build_stream_engine(
                "nto-step",
                scheduler_kwargs={"restart_policy": "backoff"},
                gc_interval=8,
            )
            result = engine.run_stream(specs, arrival)
            row = summarise_run(result, "nto-step", certify=True, check_legality=True)
            rows.append((row, result.committed_transaction_ids))
        assert rows[0] == rows[1]

    def test_streamed_history_certifies(self):
        engine, specs, arrival = build_stream_engine(
            "certifier", scheduler_kwargs={"restart_policy": "backoff"}
        )
        result = engine.run_stream(specs, arrival)
        report = certify_run(result, check_legality=True)
        assert report.serialisable is True
        assert report.legal is True

    def test_arrival_description_recorded(self):
        engine, specs, arrival = build_stream_engine("n2pl")
        result = engine.run_stream(specs, arrival)
        assert result.arrival_description == {"name": "poisson", "rate": 0.05}
        closed_engine, specs2, _ = build_stream_engine("n2pl")
        closed_engine.submit_all(specs2)
        assert closed_engine.run().arrival_description is None

    def test_run_stream_is_single_use(self):
        engine, specs, arrival = build_stream_engine("n2pl")
        engine.run_stream(specs, arrival)
        with pytest.raises(SimulationError, match="single-use"):
            engine.submit_stream(specs, arrival)

    def test_truncated_stream_raises_instead_of_dropping_arrivals(self):
        # A tick cap that cuts the arrival schedule short must refuse the
        # run: at rate 0.05 the 60-transaction schedule stretches far past
        # 40 ticks, so arrivals are still queued when the cap lands.
        engine, specs, arrival = build_stream_engine("n2pl", max_ticks=40)
        with pytest.raises(SimulationError, match="undelivered"):
            engine.run_stream(specs, arrival)

    def test_truncation_error_counts_the_arrivals_left_in_the_feed(self):
        # The feed holds one arrival on the heap and draws the rest lazily;
        # the error still counts every undelivered one and names the last
        # due tick of the whole schedule.
        engine, specs, arrival = build_stream_engine("n2pl", max_ticks=40)
        process = make_arrival_process(arrival)
        process.bind(engine.seed)
        ticks = process.schedule(len(specs))
        with pytest.raises(SimulationError) as raised:
            engine.run_stream(specs, arrival)
        delivered = engine.metrics.arrived
        assert delivered == sum(1 for tick in ticks if tick < 40) > 0
        assert f"with {len(specs) - delivered} streamed arrival(s)" in str(raised.value)
        assert f"due at tick {ticks[-1]})" in str(raised.value)

    def test_an_unknown_method_later_in_the_stream_is_never_admitted(self):
        engine, specs, arrival = build_stream_engine("n2pl")
        engine.submit_stream([*specs[:3], TransactionSpec("no-such-method"), *specs[3:]], arrival)
        with pytest.raises(UnknownMethodError):
            engine.run()
        # Read when the third arrival was released, before it could arrive.
        assert engine.metrics.arrived == 3

    def test_successive_streams_concatenate_in_time(self):
        engine, specs, arrival = build_stream_engine("n2pl", record_trace=True)
        engine.submit_stream(iter(specs[:20]), arrival)
        engine.submit_stream(iter(specs[20:40]), arrival)
        result = engine.run()
        process = make_arrival_process(arrival)
        process.bind(engine.seed)
        first = process.schedule(20)
        process.bind(engine.seed)
        expected = first + [first[-1] + tick for tick in process.schedule(20)]
        assert [event.tick for event in result.trace.of_kind(BEGIN)] == expected
        assert [event.detail for event in result.trace.of_kind(BEGIN)] == [
            spec.label for spec in specs[:40]
        ]
        assert result.metrics.arrived == result.metrics.committed == 40

    def test_truncation_of_in_flight_work_still_tolerated(self):
        # Once every arrival is delivered, cutting the *processing* short is
        # a truncated-but-valid run (the pre-PR behaviour): only dropped
        # arrivals are an error.  A closed batch enters at tick 0, so a tiny
        # cap truncates mid-processing with nothing left on the event heap.
        engine, specs, _ = build_stream_engine("n2pl", max_ticks=5)
        engine.submit_all(specs)
        result = engine.run()
        assert result.metrics.total_ticks <= 5
        assert result.metrics.committed < len(specs)

    def test_unknown_arrival_process(self):
        engine, specs, _ = build_stream_engine("n2pl")
        with pytest.raises(KeyError, match="unknown arrival process"):
            engine.submit_stream(specs, "nope")

    def test_unknown_method_rejected_eagerly(self):
        engine, _, arrival = build_stream_engine("n2pl")
        with pytest.raises(UnknownMethodError):
            engine.submit_stream(["no-such-method"], arrival)

    def test_bad_gc_interval(self):
        workload = make_workload("hotspot", transactions=2)
        base, _ = workload.build()
        with pytest.raises(SimulationError, match="gc_interval"):
            SimulationEngine(base, make_scheduler("n2pl"), gc_interval=0)


class TestGarbageCollectionOracles:
    """GC must never change a decision — only memory."""

    def test_certifier_check_oracle_over_stream(self):
        # The oracle scheduler revalidates every commit against a full
        # re-enumeration (restricted to what survives GC); gc_interval=4
        # keeps the collector running constantly under the oracle.
        scheduler = ReenumeratingCertifier(restart_policy="backoff")
        engine, specs, arrival = build_stream_engine(scheduler, gc_interval=4)
        result = engine.run_stream(specs, arrival)
        assert result.metrics.committed == len(specs)
        assert scheduler.commit_conflict_calls > 0 and scheduler._pruned_committed
        assert certify_run(result, check_legality=True).legal is True

    def test_undo_oracle_over_contended_stream(self):
        # Hot contention forces aborts mid-stream; the oracle engine replays
        # the full log after every abort and must agree with incremental undo
        # even though collect() constantly drops committed prefixes.
        engine, specs, arrival = build_stream_engine(
            "nto-step",
            hot_probability=0.6,
            scheduler_kwargs={"restart_policy": "backoff"},
            gc_interval=4,
            engine_class=ReplayCheckedEngine,
        )
        result = engine.run_stream(specs, arrival)
        assert result.metrics.aborted_attempts > 0, "scenario lost its contention"
        assert certify_run(result, check_legality=True).legal is True

    @pytest.mark.parametrize("scheduler_name", ["certifier", "modular"])
    def test_gc_prunes_and_decisions_match_gc_off(self, scheduler_name):
        # The same stream with GC effectively disabled (huge interval)
        # must produce the identical run — commits, order, metrics other
        # than the gauge itself.
        outcomes = []
        for gc_interval in (4, 10**9):
            engine, specs, arrival = build_stream_engine(
                scheduler_name,
                scheduler_kwargs={"restart_policy": "backoff"},
                gc_interval=gc_interval,
            )
            result = engine.run_stream(specs, arrival)
            outcomes.append(
                (
                    result.committed_transaction_ids,
                    result.metrics.committed,
                    result.metrics.aborted_attempts,
                    result.metrics.total_ticks,
                )
            )
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("scheduler_name", ["certifier", "nto-step", "modular"])
    def test_collector_reports_pruned_records(self, scheduler_name):
        engine, specs, arrival = build_stream_engine(
            scheduler_name,
            scheduler_kwargs={"restart_policy": "backoff"},
            gc_interval=8,
        )
        result = engine.run_stream(specs, arrival)
        assert result.scheduler_description["gc_pruned_records"] > 0


class TestLiveStateGauge:
    """Retained state is O(in-flight), not O(total arrivals)."""

    @pytest.mark.parametrize("scheduler_name", ["n2pl", "nto-step", "certifier", "modular"])
    def test_gauge_flat_across_stream_lengths(self, scheduler_name):
        peaks = {}
        for transactions in (120, 480):
            engine, specs, arrival = build_stream_engine(
                scheduler_name,
                transactions=transactions,
                rate=0.04,
                hot_probability=0.05,
                scheduler_kwargs={"restart_policy": "backoff"},
                gc_interval=16,
            )
            result = engine.run_stream(specs, arrival)
            metrics = result.metrics
            assert metrics.committed == transactions
            assert metrics.live_state_samples > 0
            peaks[transactions] = (metrics.live_state_peak, metrics.in_flight_peak)
        short_peak, short_inflight = peaks[120]
        long_peak, long_inflight = peaks[480]
        # 4x the arrivals must not mean 4x the retained state.  The peak
        # tracks the in-flight population (whose own peak deepens slowly
        # with the run length — a queueing tail effect — hence the
        # normalisation), never the arrival count.
        short_ratio = short_peak / max(1, short_inflight)
        long_ratio = long_peak / max(1, long_inflight)
        assert long_ratio <= 3 * max(short_ratio, 5), (
            f"{scheduler_name}: live state per in-flight transaction grew "
            f"{short_ratio:.1f} -> {long_ratio:.1f} with the stream length "
            f"(peaks {short_peak} -> {long_peak}, "
            f"in-flight {short_inflight} -> {long_inflight})"
        )
        # The retention window spans the in-flight transactions plus at
        # most gc_interval resolved-but-not-yet-collected ones (sampling
        # happens just before each pruning pass).
        assert long_peak <= 15 * (long_inflight + 16)
        assert long_peak < 480, (
            f"{scheduler_name}: retained state {long_peak} is on the order of "
            "the total arrival count"
        )

    @pytest.mark.parametrize("scheduler_name", ["nto-step", "certifier", "modular"])
    def test_gc_shrinks_peak_versus_gc_off(self, scheduler_name):
        # The discriminating experiment: the identical stream with the
        # collector effectively disabled retains O(arrivals) state.
        peaks = {}
        for gc_interval in (16, 10**9):
            engine, specs, arrival = build_stream_engine(
                scheduler_name,
                transactions=360,
                rate=0.04,
                hot_probability=0.05,
                scheduler_kwargs={"restart_policy": "backoff"},
                gc_interval=gc_interval,
            )
            result = engine.run_stream(specs, arrival)
            peaks[gc_interval] = result.metrics.live_state_peak
        assert peaks[16] * 4 < peaks[10**9], (
            f"{scheduler_name}: GC made no difference "
            f"({peaks[16]} vs {peaks[10 ** 9]} without collection)"
        )

    @pytest.mark.parametrize("scheduler_name", ["nto-step", "certifier"])
    def test_streaming_certifier_window_is_collected(self, scheduler_name):
        # The discriminating experiment for the *certifier's* retained
        # window: the identical certified stream with collection disabled
        # accumulates O(arrivals) state (every committed subtree's steps,
        # graph nodes and replay entries stay forever), while the
        # GC-enabled run stays within the O(in-flight + gc_interval)
        # retention window.
        peaks = {}
        for gc_interval in (16, 10**9):
            engine, specs, arrival = build_stream_engine(
                scheduler_name,
                transactions=480,
                rate=0.04,
                hot_probability=0.05,
                scheduler_kwargs={"restart_policy": "backoff"},
                gc_interval=gc_interval,
                certify="stream",
            )
            result = engine.run_stream(specs, arrival)
            report = result.streaming_report
            assert report.serialisable is True
            assert report.legal is True
            assert report.committed_transactions == 480
            peaks[gc_interval] = (
                result.metrics.live_state_peak,
                result.metrics.in_flight_peak,
            )
        bounded_peak, in_flight = peaks[16]
        unbounded_peak, _ = peaks[10**9]
        assert bounded_peak * 4 < unbounded_peak, (
            f"{scheduler_name}: certifier GC made no difference to the gauge "
            f"({bounded_peak} vs {unbounded_peak} without collection)"
        )
        # Same bound shape as E15/E17: the certifier's window adds a
        # constant factor over the retention window, never O(arrivals).
        assert bounded_peak <= 64 * (max(1, in_flight) + 16), (
            f"{scheduler_name}: certified live-state peak {bounded_peak} "
            f"exceeds the retention-window bound (in-flight {in_flight})"
        )

    def test_invalid_certify_mode_rejected_eagerly(self):
        workload = make_workload("hotspot", transactions=2)
        base, _ = workload.build()
        for bad in ("bogus", True, 1):
            with pytest.raises(SimulationError, match="certify"):
                SimulationEngine(base, make_scheduler("n2pl"), certify=bad)

    def test_gauge_counts_scheduler_and_undo_state(self):
        engine, specs, arrival = build_stream_engine(
            "certifier",
            scheduler_kwargs={"restart_policy": "backoff"},
            gc_interval=8,
        )
        result = engine.run_stream(specs, arrival)
        assert result.metrics.live_state_peak > 0
        assert result.metrics.live_state_ratio_peak > 0


class TestClosedModeUnchanged:
    def test_closed_batch_reports_no_arrivals(self):
        engine, specs, _ = build_stream_engine(
            "n2pl", scheduler_kwargs={"restart_policy": "backoff"}
        )
        engine.submit_all(specs)
        result = engine.run()
        metrics = result.metrics
        assert metrics.arrived == 0
        assert metrics.committed == len(specs)
        # Closed submissions arrive at tick 0, so their latency is simply
        # their commit tick; the aggregates stay meaningful.
        assert metrics.latency_count == metrics.committed
        assert metrics.in_flight_peak == len(specs)
