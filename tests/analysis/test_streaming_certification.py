"""Oracle tests: online certification equals the definitional certification.

The :class:`~repro.analysis.streaming.StreamingCertifier` checks ``SG(h)``
at commit time on its top-level projection, builds the execution-level
graphs only at ``finalise`` and prunes certified, frontier-unreachable transactions as
the run progresses — so its rolling report is built from a *window*, never
the whole history.  Its contract is nevertheless bit-for-bit equality
with the whole-graph certification of ``tests/oracles/certify.py`` on
every verdict, counter, the serial order, the cycle witness and the
violation strings (``sg_edges`` alone is exempt: the streaming graph drops
edges incident to pruned transactions and reports the retained count).
Post-hoc ``repro.analysis.certify_run`` runs this same certifier, so a
comparison with it would check GC and nothing else.  A stream run keeps no
history, so the oracle certifies its ``certify=False`` twin, the same run.

Three layers of evidence:

* a hypothesis property sweeping scheduler x restart-policy x gate-mode
  x batch/stream x workload x seed over genuinely contended workloads
  (sequential, and nested with parallel children), with the engine
  garbage-collecting (and therefore the certifier pruning) mid-stream;
* a longer deterministic stream asserting the certifier actually pruned
  (a zero prune count would make the window equivalence vacuous);
* direct-feed histories with *injected* violations — a conflict cycle
  whose edges span a GC boundary, a forged return value replayed away
  before its transaction is pruned, and a cycle between two parallel
  children of one transaction — caught identically by both certifiers;
  and forged intervals that only the subtree's condition 2a / 2c check
  sends down the general intra-transaction path.
"""

from __future__ import annotations

import re

from hypothesis import given, settings, strategies as st

from repro.analysis import StreamingCertifier
from repro.core import History, HistoryBuilder, ObjectState, ReadVariable, WriteVariable
from repro.scheduler import make_scheduler
from repro.simulation import SimulationEngine
from repro.simulation.workloads import make_workload

from tests.conftest import read_write_conflicts
from tests.oracles import certify as oracle

#: Every report field the streaming certifier promises bit-for-bit
#: (``sg_edges`` is the documented exception — see the module docstring).
COMPARED_FIELDS = (
    "legal",
    "serialisable",
    "theorem5_holds",
    "violations",
    "serial_order",
    "cycle",
    "committed_transactions",
    "committed_executions",
    "committed_local_steps",
    "sg_nodes",
)

#: Schedulers whose factories accept the CommitGate ``gate_mode`` axis.
GATE_AWARE = {"nto", "nto-step", "certifier", "modular"}

#: The weak schedulers commit non-serialisable histories, which is what
#: drives the certifier past its first cycle into :meth:`finalise`'s rebuild.
scheduler_names = st.sampled_from(
    [
        "n2pl",
        "n2pl-step",
        "nto",
        "nto-step",
        "single-active",
        "certifier",
        "modular",
        "pass-through",
        "modular-intra-only",
    ]
)
restart_policies = st.sampled_from(["immediate", "backoff", "ordered"])
gate_modes = st.sampled_from(["cascade", "aca"])

#: Sequential transactions on a contended hotspot, and transactions nested
#: three deep whose two access groups run in parallel (programme-incomparable
#: messages: the general intra-transaction path and Theorem 5(b) in full).
WORKLOADS = {
    "hotspot": {
        "hot_objects": 2,
        "cold_objects": 8,
        "operations_per_transaction": 3,
        "hot_probability": 0.7,
    },
    "random-ops": {
        "registers": 4,
        "write_fraction": 0.7,
        "nesting_depth": 3,
        "parallel_fanout": 2,
    },
}
workload_names = st.sampled_from(sorted(WORKLOADS))


def _field(report, name):
    value = getattr(report, name)
    if name == "violations":
        # Step ids are process-global, so a run and its twin number their
        # steps differently; a violation names the step by id.
        return [re.sub(r"\bstep \d+", "step #", violation) for violation in value]
    return value


def assert_reports_equal(streamed, expected):
    for name in COMPARED_FIELDS:
        assert _field(streamed, name) == _field(expected, name), (
            f"{name}: streaming {getattr(streamed, name)!r} "
            f"!= oracle {getattr(expected, name)!r}"
        )


def certified_run(
    scheduler,
    *,
    policy,
    gate_mode,
    stream,
    seed,
    workload="hotspot",
    transactions=14,
    gc_interval=3,
    certify="stream",
):
    """A contended run with online certification and a tiny GC interval.

    ``gc_interval=3`` forces many mid-run pruning passes, so the
    equivalence below is exercised against a heavily collected window,
    not a luckily complete one.  ``certify=False`` makes the run's twin.
    """
    kwargs = {"restart_policy": policy}
    if scheduler in GATE_AWARE:
        kwargs["gate_mode"] = gate_mode
    base, specs = make_workload(
        workload, transactions=transactions, seed=seed, **WORKLOADS[workload]
    ).build()
    engine = SimulationEngine(
        base,
        make_scheduler(scheduler, **kwargs),
        seed=seed,
        gc_interval=gc_interval,
        certify=certify,
    )
    if stream:
        engine.submit_stream(specs, {"name": "poisson", "rate": 0.2})
    else:
        engine.submit_all(specs)
    return engine, engine.run()


def certified_twin(scheduler, **kwargs):
    """The online run, and the oracle's report on its ``certify=False`` twin.

    A stream run forgets each transaction once it settles, so it has no
    history to certify post hoc; the twin is the same run
    (``tests/simulation/test_stream_retention.py`` holds the two runs
    identical) and keeps its whole history.
    """
    engine, result = certified_run(scheduler, **kwargs)
    _, twin = certified_run(scheduler, certify=False, **kwargs)
    assert twin.committed_transaction_ids == result.committed_transaction_ids
    return engine, result, oracle.certify_run(twin)


class TestStreamingEqualsPostHoc:
    @settings(max_examples=80, deadline=None)
    @given(
        scheduler=scheduler_names,
        policy=restart_policies,
        gate_mode=gate_modes,
        stream=st.booleans(),
        workload=workload_names,
        seed=st.integers(0, 10_000),
    )
    def test_rolling_report_equals_certify_run(
        self, scheduler, policy, gate_mode, stream, workload, seed
    ):
        _, result, expected = certified_twin(
            scheduler,
            policy=policy,
            gate_mode=gate_mode,
            stream=stream,
            workload=workload,
            seed=seed,
        )
        assert_reports_equal(result.streaming_report, expected)

    def test_long_stream_prunes_and_still_matches(self):
        engine, result, expected = certified_twin(
            "nto-step",
            policy="backoff",
            gate_mode="cascade",
            stream=True,
            seed=7,
            transactions=120,
        )
        # The window equivalence is only meaningful if the window was
        # actually collected mid-stream.
        assert engine._certifier.gc_pruned > 0
        assert_reports_equal(result.streaming_report, expected)

    def test_finalise_is_memoised(self):
        _, result = certified_run(
            "n2pl", policy="immediate", gate_mode="cascade", stream=False, seed=3
        )
        assert result.streaming_report is result.streaming_report


def _write_child(builder, top_id, object_name, value):
    """One child method on ``object_name`` issuing a single write."""
    child = builder.invoke(top_id, object_name, "set")
    builder.local(child, WriteVariable("x", value))
    builder.finish(child, "ok")
    return child.execution_id


def _feed_commit(certifier, builder, top_id, child_ids):
    """Hand a committed subtree to the certifier, as the engine does."""
    executions, intervals = builder.forget((top_id, *child_ids))
    certifier.note_commit(top_id, executions, intervals, resolve_stamp=builder.clock)


class _HandingOverBuilder(HistoryBuilder):
    """Forgets what it hands over, as the engine's builder does, yet still
    builds the whole history, so the oracle certifies everything fed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._handed_over: list = []
        self._handed_over_intervals: dict = {}

    def forget(self, execution_ids):
        executions, intervals = super().forget(execution_ids)
        self._handed_over.extend(executions)
        self._handed_over_intervals.update(intervals)
        return executions, intervals

    def build(self, check=False):
        rest = super().build()
        return History(
            [*self._handed_over, *rest.executions.values()],
            rest.initial_states,
            conflicts=self.conflicts,
            intervals={**self._handed_over_intervals, **rest.intervals()},
        )


def _builder_and_certifier(objects):
    builder = _HandingOverBuilder(
        initial_states={name: ObjectState({"x": 0}) for name in objects},
        conflicts=read_write_conflicts(),
    )
    certifier = StreamingCertifier(
        builder.conflicts,
        initial_states={name: ObjectState({"x": 0}) for name in objects},
    )
    return builder, certifier


class TestInjectedViolationsSpanGC:
    """Hand-built histories whose defects straddle a mid-feed GC pass."""

    OBJECTS = ("A", "B", "C", "F1", "F2", "F3", "F4", "F5")

    def _builder_and_certifier(self):
        return _builder_and_certifier(self.OBJECTS)

    def _commit_fillers(self, builder, certifier, count=5, forge_on=None):
        """Commit ``count`` no-conflict transactions (T1..Tcount).

        With ``forge_on`` set, that filler's object records a read whose
        return value is forged — an injected Definition 6 condition-3
        violation destined to be replayed (and its transaction pruned)
        at the next GC pass.
        """
        for index in range(1, count + 1):
            top = builder.begin_top_level().execution_id
            certifier.note_begin(top, builder.clock)
            object_name = f"F{index}"
            child = builder.invoke(top, object_name, "probe")
            if object_name == forge_on:
                builder.local(child, ReadVariable("x"), return_value=999)
            else:
                builder.local(child, WriteVariable("x", index))
            builder.finish(child, "ok")
            _feed_commit(certifier, builder, top, [child.execution_id])

    def test_conflict_cycle_spanning_a_gc_boundary(self):
        builder, certifier = self._builder_and_certifier()
        self._commit_fillers(builder, certifier)

        # T6 begins, writes A, and stays unresolved: it pins the frontier
        # through the GC pass while the cycle is still half-built.
        t6 = builder.begin_top_level().execution_id
        certifier.note_begin(t6, builder.clock)
        t6_a = _write_child(builder, t6, "A", 60)

        # T7 writes A (after T6's write -> edge T6 -> T7) and B; commits.
        t7 = builder.begin_top_level().execution_id
        certifier.note_begin(t7, builder.clock)
        t7_children = [
            _write_child(builder, t7, "A", 70),
            _write_child(builder, t7, "B", 70),
        ]
        _feed_commit(certifier, builder, t7, t7_children)

        # The GC boundary: the settled fillers are emitted and pruned,
        # while T6 (live) and T7 (in T6's frontier) are retained.
        pruned = certifier.collect_garbage()
        assert pruned > 0, "fillers should be pruned mid-cycle"
        assert certifier.gc_pruned == pruned

        # T8 writes B (edge T7 -> T8) and C; commits after the boundary.
        t8 = builder.begin_top_level().execution_id
        certifier.note_begin(t8, builder.clock)
        t8_children = [
            _write_child(builder, t8, "B", 80),
            _write_child(builder, t8, "C", 80),
        ]
        _feed_commit(certifier, builder, t8, t8_children)

        # T6 finally writes C (after T8's -> edge T8 -> T6) and commits,
        # closing the cycle T6 -> T7 -> T8 -> T6 with edges installed on
        # both sides of the GC pass.
        t6_c = _write_child(builder, t6, "C", 61)
        _feed_commit(certifier, builder, t6, [t6_a, t6_c])

        streamed = certifier.finalise()
        expected = oracle.certify_history(builder.build())
        assert streamed.serialisable is False
        assert expected.serialisable is False
        assert streamed.cycle is not None
        assert {"T6", "T7", "T8"} <= set(streamed.cycle)
        assert_reports_equal(streamed, expected)

    def test_forged_return_value_replayed_before_pruning(self):
        builder, certifier = self._builder_and_certifier()
        self._commit_fillers(builder, certifier, count=3, forge_on="F2")

        # A later transaction pins the settle threshold past the fillers,
        # so the GC pass replays (and catches) the forged read before
        # pruning the transaction that issued it.
        t4 = builder.begin_top_level().execution_id
        certifier.note_begin(t4, builder.clock)
        pruned = certifier.collect_garbage()
        assert pruned > 0, "the forged filler should be pruned after replay"
        t4_a = _write_child(builder, t4, "A", 40)
        _feed_commit(certifier, builder, t4, [t4_a])

        streamed = certifier.finalise()
        expected = oracle.certify_history(builder.build())
        assert streamed.legal is False
        assert expected.legal is False
        assert streamed.violations == expected.violations
        assert any("F2" in violation for violation in streamed.violations)
        assert_reports_equal(streamed, expected)


class TestIntraTransactionViolations:
    """Defects inside one transaction, which only the general path examines."""

    def test_cycle_between_parallel_children(self):
        builder, certifier = _builder_and_certifier(("A", "B"))
        top = builder.begin_top_level().execution_id
        certifier.note_begin(top, builder.clock)
        # Two parallel children: neither message is programme-ordered first.
        left = builder.invoke(top, "A", "left", after=[])
        right = builder.invoke(top, "B", "right", after=[])
        builder.local(left, WriteVariable("x", 1))
        builder.local(right, WriteVariable("x", 2))
        # Each child then relays a write to the other's object, after the
        # other's own write there: left -> right on A, right -> left on B.
        relay_b = builder.invoke(left, "B", "relay")
        builder.local(relay_b, WriteVariable("x", 3))
        builder.finish(relay_b)
        relay_a = builder.invoke(right, "A", "relay")
        builder.local(relay_a, WriteVariable("x", 4))
        builder.finish(relay_a)
        builder.finish(left)
        builder.finish(right)
        _feed_commit(
            certifier,
            builder,
            top,
            [execution.execution_id for execution in (left, right, relay_b, relay_a)],
        )

        streamed = certifier.finalise()
        expected = oracle.certify_history(builder.build())
        assert streamed.serialisable is False
        assert streamed.cycle == expected.cycle == (left.execution_id, right.execution_id)
        assert_reports_equal(streamed, expected)

    def test_forged_intervals_take_the_general_path(self):
        builder, certifier = _builder_and_certifier(("A",))
        top = builder.begin_top_level().execution_id
        certifier.note_begin(top, builder.clock)
        first = _write_child(builder, top, "A", 1)
        second = _write_child(builder, top, "A", 2)
        executions, intervals = builder.forget((top, first, second))
        # The later message's child writes before the earlier one's: the
        # messages' own intervals (so condition 2a) are untouched, but the
        # write leaves its message's interval, breaking 2c's containment.
        (first_write,) = executions[1].local_steps()
        (second_write,) = executions[2].local_steps()
        stamp = intervals[first_write.step_id][0] - 1
        intervals[second_write.step_id] = (stamp, stamp)
        certifier.note_commit(top, executions, intervals, resolve_stamp=builder.clock)

        streamed = certifier.finalise()
        assert streamed.violations == [
            "serialisation graph contains a cycle",
            "Theorem 5(b) violated for executions: T1",
        ]
        assert streamed.cycle == (first, second)
