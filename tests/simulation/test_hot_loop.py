"""The event-driven hot loop against its bit-identity oracle.

The PR-6 rewrite replaced the per-tick frame scan with a maintained ready
list and a unified event heap.  The scan loop it replaced is
``tests/oracles/engines.py`` ``ScanLoopEngine``, kept precisely so the two
can be compared: the refactor's contract is that *every* observable of a
run — metrics, committed order, aborted executions, the trace, the
recorded history — is bit-identical under both loops, for every scheduler,
restart policy, commit-gate mode and seed.

A second contract rides along: the hot record types are ``__slots__``-ed
(the rewrite's memory/speed pass), and a slotted type silently regaining a
``__dict__`` is a regression this file fails loudly on.  The per-step
records the decision path builds are immutable tuples, equal and hashed by
value, which this file pins too.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.streaming import _StepEntry
from repro.core.executions import MethodExecution
from repro.core.records import StepRecords
from repro.core.operations import LocalStep, MessageStep
from repro.core.state import AppliedStep, ObjectState
from repro.objectbase.adts.register import WriteRegister
from repro.scheduler import make_scheduler
from repro.scheduler.base import ExecutionInfo, OperationRequest, SchedulerResponse
from repro.scheduler.certifier import _CandidateEdge
from repro.scheduler.locks import LockEntry
from repro.scheduler.nto import _StepRecord
from repro.simulation import SimulationEngine
from repro.simulation.engine import _Frame
from repro.simulation.events import TraceEvent
from repro.simulation.transactions import (
    InvokeRequest,
    LocalRequest,
    MethodContext,
    ParallelRequest,
)
from repro.simulation.workloads import make_workload

from tests.oracles.engines import ScanLoopEngine

#: Schedulers whose factories accept the CommitGate ``gate_mode`` axis.
GATE_AWARE = {"nto", "nto-step", "certifier", "modular"}

scheduler_names = st.sampled_from(
    ["n2pl", "n2pl-step", "nto", "nto-step", "single-active", "certifier", "modular"]
)
restart_policies = st.sampled_from(["immediate", "backoff", "ordered"])
gate_modes = st.sampled_from(["cascade", "aca"])


def contended_engine(scheduler, *, seed, stream, engine_class=SimulationEngine):
    """A small but genuinely contended scenario (parks, aborts, restarts)."""
    workload = make_workload(
        "hotspot",
        transactions=14,
        hot_objects=2,
        cold_objects=8,
        operations_per_transaction=3,
        hot_probability=0.7,
        seed=seed,
    )
    base, specs = workload.build()
    engine = engine_class(base, scheduler, seed=seed, record_trace=True)
    if stream:
        engine.submit_stream(specs, {"name": "poisson", "rate": 0.2})
    else:
        engine.submit_all(specs)
    return engine


def observables(result):
    """Everything a run exposes, in directly comparable form.

    Step ids come from a process-global counter, so two runs in the same
    process number their (otherwise identical) steps differently; the ids
    are masked and the steps compared in creation order instead.
    """
    steps = sorted(result.history.steps(), key=lambda step: step.step_id)
    return (
        result.metrics.as_dict(),
        result.committed_transaction_ids,
        result.aborted_execution_ids,
        tuple(result.trace.events),
        repr(result.history),
        [
            (step.execution_id, re.sub(r"id=\d+", "id=*", repr(step)))
            for step in steps
        ],
    )


class TestEventLoopBitIdentity:
    @settings(max_examples=40, deadline=None)
    @given(
        scheduler=scheduler_names,
        policy=restart_policies,
        gate_mode=gate_modes,
        stream=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    def test_event_equals_scan(self, scheduler, policy, gate_mode, stream, seed):
        kwargs = {"restart_policy": policy}
        if scheduler in GATE_AWARE:
            kwargs["gate_mode"] = gate_mode
        results = []
        for engine_class in (SimulationEngine, ScanLoopEngine):
            engine = contended_engine(
                make_scheduler(scheduler, **kwargs),
                seed=seed,
                stream=stream,
                engine_class=engine_class,
            )
            results.append(engine.run())
        event, scan = results
        assert event.metrics.decisions > 0
        assert observables(event) == observables(scan)


class TestOneHotLoop:
    """Plain runs and shard rounds are calls of the same ``_run_until``."""

    @pytest.fixture
    def loop_calls(self, monkeypatch):
        """``(engine, horizon, catch_up, ticks advanced, decisions)`` per call."""
        calls = []
        run_until = SimulationEngine._run_until

        def counting(engine, horizon, catch_up=False):
            before = engine._tick
            decisions = run_until(engine, horizon, catch_up)
            calls.append((engine, horizon, catch_up, engine._tick - before, decisions))
            return decisions

        monkeypatch.setattr(SimulationEngine, "_run_until", counting)
        return calls

    def test_plain_run_is_one_call_with_max_ticks(self, loop_calls):
        engine = contended_engine(make_scheduler("n2pl"), seed=5, stream=True)
        result = engine.run()
        assert [call[1:3] for call in loop_calls] == [(engine.max_ticks, False)]
        assert result.metrics.decisions > 0

    def test_every_shard_tick_passes_through_the_loop(self, loop_calls, monkeypatch):
        from repro.shard import ShardMap, ShardedEngine
        from repro.shard.engine import ShardWorker
        from repro.sweep import ScenarioSpec

        worker_rounds = []

        def checked(command):
            original = getattr(ShardWorker, command)

            def wrapper(worker, *args):
                engine, before, first = worker, worker._tick, len(loop_calls)
                result = original(worker, *args)
                calls = loop_calls[first:]
                now = args[2 if command == "vote" else 1]
                # A catch-up to the barrier tick, then (in a round) a run to
                # the horizon — each only when the clock is short of it.
                allowed = [(now, True)]
                if command == "round":
                    worker_rounds.append(args)
                    allowed.append((min(args[2], engine.max_ticks), False))
                assert [call[1:3] for call in calls] in ([], allowed[:1], allowed[1:], allowed)
                assert all(call[0] is engine for call in calls)
                # The loop is the only way a shard's clock moves.
                assert engine._tick - before == sum(call[3] for call in calls)
                return result

            monkeypatch.setattr(ShardWorker, command, wrapper)

        checked("round")
        checked("vote")
        spec = ScenarioSpec(
            workload="hotspot",
            scheduler="n2pl",
            seed=5,
            workload_params={
                "transactions": 24,
                "hot_objects": 2,
                "hot_probability": 0.25,
                "use_service_layer": False,
                "seed": 5,
            },
            scheduler_kwargs={"restart_policy": "backoff"},
            certify=False,
        )
        result = ShardedEngine(spec, ShardMap(shards=2), mode="inprocess").run()
        assert result.metrics.remote_invocations > 0  # rounds did cross-shard work
        assert len(worker_rounds) == 2 * result.rounds
        assert any(call[2] for call in loop_calls), "no shard ever caught up to a barrier"
        # ... and the only place a decision is made.
        assert sum(call[4] for call in loop_calls) == result.metrics.decisions


#: Every hot record type the rewrite slotted.  A class in this list whose
#: MRO (below ``object``) re-introduces ``__dict__`` fails the audit.
SLOTTED_HOT_TYPES = [
    _Frame,
    MethodExecution,
    _CandidateEdge,
    StepRecords,
    _StepRecord,
    LockEntry,
    AppliedStep,
    MethodContext,
    TraceEvent,
    ExecutionInfo,
    OperationRequest,
    SchedulerResponse,
    LocalRequest,
    InvokeRequest,
    ParallelRequest,
    LocalStep,
    MessageStep,
    _StepEntry,
]


class TestSlottedHotRecords:
    @pytest.mark.parametrize(
        "hot_type", SLOTTED_HOT_TYPES, ids=lambda t: t.__name__
    )
    def test_hot_type_has_no_instance_dict(self, hot_type):
        offenders = [
            klass.__name__
            for klass in hot_type.__mro__
            if klass is not object and "__dict__" in vars(klass)
        ]
        assert not offenders, (
            f"{hot_type.__name__} regained an instance __dict__ via {offenders}; "
            "hot records must stay __slots__-only"
        )

    def test_instances_reject_dynamic_attributes(self):
        operation = WriteRegister(7)
        instances = [
            MethodExecution("T1", "environment", "txn"),
            MethodContext("A", "T1", "txn"),
            LockEntry("T1", "A", operation),
            AppliedStep(LocalStep("T1.1", "A", operation, 7), "T1", ObjectState()),
            TraceEvent(0, "BEGIN", "T1"),
            LocalStep("T1", "environment", operation, None),
        ]
        for instance in instances:
            # Frozen slotted dataclasses raise TypeError on 3.11 (the
            # regenerated class confuses the frozen __setattr__'s zero-arg
            # super, CPython gh-90562); either way the attribute must be
            # rejected.
            with pytest.raises((AttributeError, TypeError)):
                instance.definitely_not_a_slot = 1


def _records():
    """Two independently built copies of every per-step record type."""
    operation = WriteRegister(7)
    info = ExecutionInfo("T1.1", "A", "write", "T1", ("T1",), "T1")
    step = LocalStep("T1.1", "A", operation, 7)
    invoke = InvokeRequest("A", "write", (7,))
    return [
        (info, ExecutionInfo("T1.1", "A", "write", "T1", ("T1",), "T1")),
        (
            OperationRequest(info, "A", operation, step),
            OperationRequest(info, "A", WriteRegister(7), step),
        ),
        (LocalRequest(operation), LocalRequest(WriteRegister(7))),
        (invoke, InvokeRequest("A", "write", (7,))),
        (ParallelRequest((invoke,)), ParallelRequest((InvokeRequest("A", "write", (7,)),))),
    ]


class TestImmutableRecords:
    """The records the decision path allocates per step are values."""

    @pytest.mark.parametrize(
        "record, twin", _records(), ids=lambda record: type(record).__name__
    )
    def test_fields_cannot_be_assigned(self, record, twin):
        for name in type(record).__annotations__:
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    @pytest.mark.parametrize(
        "record, twin", _records(), ids=lambda record: type(record).__name__
    )
    def test_equal_fields_mean_equal_records_and_hashes(self, record, twin):
        assert record is not twin
        assert record == twin and hash(record) == hash(twin)
        assert len({record, twin}) == 1
