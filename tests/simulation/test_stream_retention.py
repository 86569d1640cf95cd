"""A stream certified online keeps only in-flight history.

Under ``certify="stream"`` the streaming certifier checks each transaction
as it commits, and the engine's :class:`~repro.core.history.HistoryBuilder`
forgets every transaction once it has committed or aborted.  The tests
pin that down:

* retention, exactly: at every garbage-collection pass the builder holds
  the executions of the live transactions and nothing else, and at the end
  of an untruncated run it holds nothing (a ``certify=False`` run, the
  control, keeps every execution it ever recorded);
* the twin: the same run made with ``certify=False`` commits and aborts
  the same ids, ticks the same and stamps every committed step with the
  same interval, so certifying the twin post hoc certifies the stream's
  run (``tests/analysis/test_streaming_certification.py`` does);
* the result of a stream run says so: no history, and the calls that need
  one raise with a pointer to ``certify=False``;
* the input is in flight too: the event heap never holds more than one
  pending arrival, and quadrupling a stream adds only what scales with its
  commits to the run's traced peak (the spec list and a heap entry per
  arrival used to make it grow with the whole stream).
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.analysis import certify_run
from repro.core.errors import SimulationError
from repro.scheduler import make_scheduler
from repro.simulation import SimulationEngine, make_workload
from repro.simulation.engine import _EVENT_ARRIVAL
from repro.sweep import ScenarioSpec, build_engine

#: Contended nested workloads: aborts, cascades and restarts mid-stream.
WORKLOADS = {
    "hotspot": {"hot_objects": 2, "cold_objects": 8, "operations_per_transaction": 3,
                "hot_probability": 0.7},
    "random-ops": {"registers": 4, "write_fraction": 0.7, "nesting_depth": 3,
                   "parallel_fanout": 2},
    "order-processing": {},
}
SCHEDULERS = ("n2pl-step", "nto-step", "certifier", "modular", "adaptive")


class RetentionCheckedEngine(SimulationEngine):
    """Asserts, at every GC pass, that the builder retains exactly the live executions."""

    passes = 0

    def _collect_garbage(self) -> None:
        live = {eid for ids in self._executions_by_transaction.values() for eid in ids}
        assert set(self._builder._executions) == live
        self.passes += 1
        super()._collect_garbage()


class CapturingEngine(SimulationEngine):
    """Records the step intervals of every subtree the certifier is handed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.committed_intervals: dict[str, list[tuple[int, int]]] = {}
        note_commit = self._certifier.note_commit

        def capture(top_id, executions, intervals, resolve_stamp):
            executions = tuple(executions)
            self.committed_intervals[top_id] = [
                intervals[step_id] for execution in executions for step_id in execution.step_ids()
            ]
            note_commit(top_id, executions, intervals, resolve_stamp=resolve_stamp)

        self._certifier.note_commit = capture


class OneArrivalEngine(SimulationEngine):
    """Asserts, at every event queued, that at most one arrival is pending."""

    most_pending = 0

    def _schedule(self, due, kind, payload=None):
        super()._schedule(due, kind, payload)
        pending = sum(1 for event in self._events if event[1] == _EVENT_ARRIVAL)
        assert pending <= 1
        self.most_pending = max(self.most_pending, pending)


def run(scheduler, workload, seed, *, certify, engine_class=SimulationEngine, transactions=20):
    base, specs = make_workload(
        workload, transactions=transactions, seed=seed, **WORKLOADS[workload]
    ).build()
    engine = engine_class(
        base,
        make_scheduler(scheduler, restart_policy="backoff"),
        seed=seed,
        gc_interval=3,
        certify=certify,
    )
    return engine, engine.run_stream(specs, {"name": "poisson", "rate": 0.2})


def without_gauge(metrics) -> dict:
    return {
        name: value
        for name, value in metrics.as_dict().items()
        if not name.startswith("live_state")
    }


class TestBuilderRetention:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_stream_builder_holds_only_live_executions(self, scheduler, workload):
        engine, result = run(
            scheduler, workload, 5, certify="stream", engine_class=RetentionCheckedEngine
        )
        assert engine.passes > 3
        builder = engine._builder
        assert result.metrics.committed + result.metrics.gave_up == result.metrics.submitted
        assert not builder._executions and not builder._intervals
        assert not builder._child_counters and not builder._open_messages

    def test_an_uncertified_run_keeps_every_execution(self):
        # The control: the same stream without online certification keeps
        # every attempt's executions, aborted ones included.
        engine, result = run("nto-step", "hotspot", 5, certify=False)
        assert result.metrics.aborted_attempts > 0
        assert len(engine._builder._executions) == len(result.history.executions) > 20


def hotspot_stream(arrivals: int) -> ScenarioSpec:
    """``bench/``'s ``hotspot-stream-n2pl`` at seed 3 and ``arrivals`` arrivals."""
    inner = {
        "transactions": arrivals, "seed": 3, "hot_objects": 2, "cold_objects": 128,
        "operations_per_transaction": 2, "hot_probability": 0.05, "use_service_layer": False,
    }  # fmt: skip
    return ScenarioSpec(
        workload="hotspot-stream",
        workload_params={"inner_params": inner, "arrival_params": {"rate": 0.045}},
        scheduler="n2pl",
        scheduler_kwargs={"restart_policy": "backoff"},
        seed=3,
        engine_params={"gc_interval": 16},
        certify="stream",
    )


def traced_peak(spec: ScenarioSpec) -> int:
    """Peak bytes traced from building ``spec``'s engine to the end of its run."""
    gc.collect()
    tracemalloc.start()
    try:
        result = build_engine(spec).run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.metrics.committed == result.metrics.arrived
    return peak


class TestInputRetention:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("scheduler", ("n2pl-step", "certifier"))
    def test_the_heap_holds_at_most_one_pending_arrival(self, scheduler, workload):
        engine, result = run(
            scheduler, workload, 5, certify="stream", engine_class=OneArrivalEngine
        )
        assert engine.most_pending == 1
        assert result.metrics.arrived == 20
        assert result.metrics.delayed_restarts > 0 or workload == "order-processing"

    def test_the_traced_peak_grows_with_commits_not_with_the_stream(self):
        # Each figure is the lower of two runs.  The interpreter's
        # interned-string table (execution ids are interned) reallocates,
        # 400 KB here, in whichever run crosses its threshold; it then has
        # room for at least as many ids again, so two runs in a row never
        # both pay for it.
        short = min(traced_peak(hotspot_stream(500)) for _ in range(2))
        long = min(traced_peak(hotspot_stream(2_000)) for _ in range(2))
        # Measured: 1.39 with the lazy feed; 2.16 when every spec and arrival
        # event was built before tick 0.
        assert long <= 1.7 * short, (short, long)


class TestTwinRuns:
    """``certify="stream"`` never steers the run it watches."""

    @pytest.mark.parametrize("seed", (1, 2))
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_stream_and_uncertified_runs_are_one_run(self, scheduler, workload, seed):
        streamed_engine, streamed = run(
            scheduler, workload, seed, certify="stream", engine_class=CapturingEngine
        )
        plain_engine, plain = run(scheduler, workload, seed, certify=False)
        assert streamed.committed_transaction_ids == plain.committed_transaction_ids
        assert streamed.aborted_execution_ids == plain.aborted_execution_ids
        # The live-state gauge also counts the certifier's window.
        assert without_gauge(streamed.metrics) == without_gauge(plain.metrics)
        assert streamed.final_states() == plain.final_states()

        history = plain.history
        intervals = history.intervals()
        expected = {
            top_id: [
                intervals[step_id]
                for execution_id in sorted(history.descendants(top_id))
                for step_id in history.execution(execution_id).step_ids()
            ]
            for top_id in plain.committed_transaction_ids
        }
        assert streamed_engine.committed_intervals == expected


class TestStreamResult:
    def test_a_stream_result_has_no_history_and_says_so(self):
        _, result = run("n2pl", "hotspot", 3, certify="stream")
        assert result.history is None
        assert result.streaming_report.legal and result.streaming_report.serialisable
        assert result.final_states()
        with pytest.raises(SimulationError, match="certify=False"):
            result.committed_history()
        with pytest.raises(SimulationError, match="certify=False"):
            certify_run(result)
