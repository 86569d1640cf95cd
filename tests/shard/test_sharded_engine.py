"""Sharded engine: oracle identity, transport bit-identity, cross-shard 2PC.

The three claims that make sharding safe to use for experiments:

* ``shards=1`` is the plain engine, bit for bit — same metrics, same
  committed ids, same final states;
* ``multiprocess`` is the in-process oracle, bit for bit — the transport
  moves bytes, never behaviour;
* cross-shard transactions commit through the coordinator's two-phase
  protocol and every shard's committed projection stays serialisable
  (the paper's modularity theorem applied at the shard level), including
  under distributed deadlocks broken by the stall breaker.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.shard import ShardMap, ShardedEngine
from repro.sweep import ScenarioSpec, run_scenario
from repro.sweep.runner import build_engine

SCHEDULERS = ("n2pl", "nto-step", "certifier", "modular")

#: Pins the two hot objects to shard 0 so crossing happens through the
#: cold tail — commits flow while still exercising remote invocations.
COLOCATED_HOT = {"hot-0": 0, "hot-1": 0}

#: Splits the hot pair across shards: most transactions become
#: cross-shard and distributed deadlocks are common — the stall breaker's
#: stress diet.
SPLIT_HOT = {"hot-0": 0, "hot-1": 1}


def make_spec(
    scheduler: str,
    seed: int,
    *,
    transactions: int = 40,
    stream: bool = False,
    shards: int = 1,
    assignment: dict[str, int] | None = None,
    shard_mode: str = "inprocess",
    gc_interval: int | None = None,
) -> ScenarioSpec:
    inner = {
        "transactions": transactions,
        "hot_objects": 2,
        "cold_objects": 16,
        "operations_per_transaction": 2,
        "hot_probability": 0.25,
        "use_service_layer": False,
        "seed": seed,
    }
    if stream:
        workload = "hotspot-stream"
        workload_params = {
            "inner_params": inner,
            "arrival": "poisson",
            "arrival_params": {"rate": 0.05},
        }
    else:
        workload = "hotspot"
        workload_params = inner
    engine_params = {}
    if gc_interval is not None:
        engine_params["gc_interval"] = gc_interval
    return ScenarioSpec(
        workload=workload,
        scheduler=scheduler,
        seed=seed,
        workload_params=workload_params,
        scheduler_kwargs={"restart_policy": "backoff"},
        engine_params=engine_params,
        shards=shards,
        # Only meaningful on sharded specs; most tests hand ShardedEngine an
        # explicit ShardMap instead and leave the spec fields at defaults.
        shard_assignment=dict(assignment or {}) if shards > 1 else {},
        shard_mode=shard_mode,
        certify=True,
    )


def plain_outcome(spec: ScenarioSpec):
    result = build_engine(spec).run()
    return (
        result.metrics.as_dict(),
        tuple(result.committed_transaction_ids),
        {name: dict(state) for name, state in result.final_states().items()},
    )


def sharded_outcome(result):
    return (
        result.metrics.as_dict(),
        result.committed_transaction_ids,
        result.final_states(),
    )


class TestSingleShardOracle:
    """``shards=1`` must reproduce the unsharded engine bit for bit."""

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_closed_batch_identity(self, scheduler):
        spec = make_spec(scheduler, seed=101)
        sharded = ShardedEngine(spec, ShardMap(shards=1)).run()
        assert sharded_outcome(sharded) == plain_outcome(spec)

    @pytest.mark.parametrize("scheduler", ("n2pl", "certifier"))
    def test_streamed_arrivals_identity(self, scheduler):
        spec = make_spec(scheduler, seed=202, stream=True, gc_interval=16)
        sharded = ShardedEngine(spec, ShardMap(shards=1)).run()
        assert sharded_outcome(sharded) == plain_outcome(spec)

    def test_single_shard_has_no_cross_traffic(self):
        spec = make_spec("n2pl", seed=303)
        result = ShardedEngine(spec, ShardMap(shards=1)).run()
        assert result.metrics.remote_invocations == 0
        assert result.coordinator["cross_transactions"] == 0


class TestTransportBitIdentity:
    """The multiprocess transport must match the in-process oracle exactly."""

    @pytest.mark.parametrize("shards", (2, 4))
    def test_modes_agree_per_shard(self, shards):
        spec = make_spec("n2pl", seed=404, assignment=COLOCATED_HOT)
        shard_map = ShardMap(shards=shards, assignment=COLOCATED_HOT)
        inproc = ShardedEngine(spec, shard_map).run()
        multi = ShardedEngine(
            spec, shard_map, mode="multiprocess", mp_context="fork"
        ).run()
        assert inproc.rounds == multi.rounds
        assert inproc.coordinator == multi.coordinator
        for a, b in zip(inproc.shards, multi.shards):
            assert a.metrics.as_dict() == b.metrics.as_dict()
            assert a.committed == b.committed
            assert a.aborted == b.aborted
            assert a.final_states == b.final_states
            assert a.scheduler_description == b.scheduler_description
            assert a.serialisable is True and b.serialisable is True

    def test_modes_agree_on_streams(self):
        spec = make_spec("nto-step", seed=505, stream=True, gc_interval=16)
        shard_map = ShardMap(shards=2, assignment=COLOCATED_HOT)
        inproc = ShardedEngine(spec, shard_map).run()
        multi = ShardedEngine(
            spec, shard_map, mode="multiprocess", mp_context="fork"
        ).run()
        assert sharded_outcome(inproc) == sharded_outcome(multi)
        assert inproc.coordinator == multi.coordinator

    def test_repeated_runs_are_identical(self):
        spec = make_spec("certifier", seed=606, assignment=COLOCATED_HOT)
        shard_map = ShardMap(shards=2, assignment=COLOCATED_HOT)
        first = ShardedEngine(spec, shard_map).run()
        second = ShardedEngine(spec, shard_map).run()
        assert sharded_outcome(first) == sharded_outcome(second)
        assert first.coordinator == second.coordinator


class TestCrossShardExecution:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_cross_transactions_commit_and_certify(self, scheduler):
        spec = make_spec(scheduler, seed=707, assignment=COLOCATED_HOT)
        result = ShardedEngine(spec, ShardMap(shards=2, assignment=COLOCATED_HOT)).run()
        metrics = result.metrics
        assert metrics.remote_invocations > 0, "no transaction crossed a shard"
        assert result.coordinator["commits_decided"] > 0
        assert metrics.committed + metrics.gave_up == 40
        assert result.serialisable is True
        for outcome in result.shards:
            assert outcome.serialisable is True
            # The coordinator's forget directives bound tracker memory.
            assert outcome.tracker_live_records <= metrics.in_flight_peak * 8

    def test_split_hotspot_terminates_under_distributed_deadlock(self):
        # Hot objects on different shards and taken by nearly every
        # transaction: locks are held on one shard while requesting the
        # other, so distributed deadlocks (invisible to either local
        # waits-for graph) are guaranteed.  The run must still terminate
        # with every arrival resolved and every shard serialisable.
        spec = make_spec("n2pl", seed=808, transactions=30, assignment=SPLIT_HOT)
        spec.workload_params.update({"hot_probability": 0.9, "cold_objects": 8})
        result = ShardedEngine(spec, ShardMap(shards=2, assignment=SPLIT_HOT)).run()
        metrics = result.metrics
        assert metrics.committed + metrics.gave_up == 30
        assert result.serialisable is True
        # Ballots are not progress: a ring of deferring commits still trips
        # the stall breaker.
        assert result.coordinator["stall_aborts"] > 0, (
            "split-hotspot run never needed the coordinator's stall breaker"
        )

    def test_session_commits_do_not_double_count(self):
        spec = make_spec("n2pl", seed=909, assignment=COLOCATED_HOT)
        result = ShardedEngine(spec, ShardMap(shards=2, assignment=COLOCATED_HOT)).run()
        merged = result.committed_transaction_ids
        assert len(merged) == len(set(merged))
        assert result.metrics.committed == len(merged)

    @pytest.mark.parametrize("scheduler", ("n2pl", "nto-step", "certifier"))
    def test_session_aborts_do_not_double_count(self, scheduler):
        # Every abort on the split-hot run also aborts a session on the
        # other shard; only the home shard may count the attempt.
        spec = make_spec(scheduler, seed=808, transactions=30, assignment=SPLIT_HOT)
        spec.workload_params.update({"hot_probability": 0.9, "cold_objects": 8})
        metrics = ShardedEngine(spec, ShardMap(shards=2, assignment=SPLIT_HOT)).run().metrics
        assert metrics.aborted_attempts > 0
        assert metrics.aborted_attempts == metrics.restarts + metrics.gave_up
        assert sum(metrics.aborts_by_reason.values()) == metrics.aborted_attempts

    @pytest.mark.parametrize("scheduler", ("n2pl", "nto-step"))
    def test_nested_call_back_to_the_home_shard_runs_under_the_home_root(self, scheduler):
        # The service layer nests the call: a transaction homed on one
        # shard invokes a service object on the other, whose method invokes
        # a hot object back on the home shard.  There the transaction's own
        # live root is its session (this used to die in admit_remote with
        # "duplicate execution id").
        spec = ScenarioSpec(
            workload="hotspot",
            scheduler=scheduler,
            seed=5,
            workload_params={"transactions": 16, "hot_objects": 2, "seed": 5},
            scheduler_kwargs={"restart_policy": "backoff"},
        )
        result = ShardedEngine(spec, ShardMap(shards=2)).run()
        metrics = result.metrics
        assert metrics.remote_invocations > 0
        assert metrics.committed + metrics.gave_up == 16
        if scheduler == "nto-step":
            assert metrics.committed == 16
        for outcome in result.shards:
            assert outcome.serialisable is True


class TestSweepIntegration:
    def test_run_scenario_routes_to_sharded_engine(self):
        spec = make_spec("n2pl", seed=111, shards=2, assignment=COLOCATED_HOT)
        row = run_scenario(spec).row
        assert row["shards"] == 2
        assert row["committed"] + row["gave_up"] == 40
        assert row["serialisable"] is True
        assert row["remote_invocations"] > 0
        assert row["cross_commits"] == row["cross_commits"]  # column present

    def test_sharded_row_matches_plain_columns(self):
        plain_row = run_scenario(make_spec("n2pl", seed=111)).row
        sharded_row = run_scenario(
            make_spec("n2pl", seed=111, shards=2, assignment=COLOCATED_HOT)
        ).row
        missing = set(plain_row) - set(sharded_row)
        assert not missing, f"sharded rows lost columns: {sorted(missing)}"

    def test_spec_rejects_stream_certification_with_shards(self):
        from repro.core.errors import SweepSpecError

        with pytest.raises(SweepSpecError):
            make_spec("n2pl", seed=1, shards=2).__class__(
                workload="hotspot",
                scheduler="n2pl",
                workload_params={"transactions": 4, "seed": 1},
                shards=2,
                certify="stream",
            )

    def test_spec_rejects_unknown_mode_and_bad_assignment(self):
        from repro.core.errors import SweepSpecError

        with pytest.raises(SweepSpecError):
            make_spec("n2pl", seed=1, shard_mode="threads")
        with pytest.raises(SweepSpecError):
            make_spec("n2pl", seed=1, shards=2, assignment={"hot-0": 5})

    def test_direct_run_takes_check_legality_from_the_spec(self):
        # ShardedEngine(spec) used to take ``certify`` from the spec but
        # default ``check_legality`` to False, so the same spec reported
        # legal=None run directly and legal=True through repro.run.
        import dataclasses

        import repro

        spec = dataclasses.replace(
            make_spec("n2pl", seed=7, transactions=12, shards=2, assignment=COLOCATED_HOT),
            check_legality=True,
        )
        direct = ShardedEngine(spec, ShardMap(shards=2, assignment=COLOCATED_HOT)).run()
        assert direct.legal is True
        assert direct.legal == repro.run(spec).legal
        # The keyword still overrides the spec.
        unchecked = ShardedEngine(
            spec, ShardMap(shards=2, assignment=COLOCATED_HOT), check_legality=False
        ).run()
        assert unchecked.legal is None

    def test_sharded_engine_rejects_stream_certify(self):
        from repro.core.errors import SimulationError

        spec = make_spec("n2pl", seed=1)
        spec.certify = "stream"
        with pytest.raises(SimulationError):
            ShardedEngine(spec, ShardMap(shards=2))


class TestPropertyGrid:
    """Hypothesis: the identities hold across scheduler × policy × seed."""

    @settings(max_examples=8, deadline=None)
    @given(
        st.sampled_from(SCHEDULERS),
        st.sampled_from(("immediate", "backoff")),
        st.integers(0, 10_000),
    )
    def test_single_shard_equals_plain(self, scheduler, policy, seed):
        spec = make_spec(scheduler, seed=seed, transactions=24, stream=True, gc_interval=16)
        spec.scheduler_kwargs = {"restart_policy": policy}
        sharded = ShardedEngine(spec, ShardMap(shards=1)).run()
        assert sharded_outcome(sharded) == plain_outcome(spec)

    @settings(max_examples=6, deadline=None)
    @given(
        st.sampled_from(SCHEDULERS),
        st.sampled_from(("immediate", "backoff")),
        st.integers(0, 10_000),
        st.sampled_from((2, 4)),
    )
    def test_transports_agree(self, scheduler, policy, seed, shards):
        # Mid-stream GC (gc_interval=16) and cross-shard transactions both
        # active; the in-process oracle and the process transport must
        # stay bit-identical throughout.
        spec = make_spec(
            scheduler,
            seed=seed,
            transactions=24,
            stream=True,
            assignment=COLOCATED_HOT,
            gc_interval=16,
        )
        spec.scheduler_kwargs = {"restart_policy": policy}
        shard_map = ShardMap(shards=shards, assignment=COLOCATED_HOT)
        inproc = ShardedEngine(spec, shard_map).run()
        multi = ShardedEngine(
            spec, shard_map, mode="multiprocess", mp_context="fork"
        ).run()
        assert sharded_outcome(inproc) == sharded_outcome(multi)
        assert inproc.coordinator == multi.coordinator
        assert inproc.serialisable is True and multi.serialisable is True
