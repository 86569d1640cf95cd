"""Unit tests for the incremental certifier validation path (PR 2).

The optimistic certifier now classifies every executed step exactly once
— against the steps already recorded on its object — and files the
resulting sibling-level candidate edges under both involved transactions.
Commit validation merely *selects* the filed edges whose other side has
resolved: it performs zero conflict-spec calls and never re-enumerates
committed-vs-committed step pairs.  These tests pin that contract down by
counting conflict-spec calls per lifecycle phase, and exercise the
abort cleanup and the retention of committed records, check that no
container grows with the number of arrivals, and run the scheduler under
``tests/oracles/certifier.py`` ``ReenumeratingCertifier``, which
revalidates every commit against a full re-enumeration of step pairs.
Hand-driven transactions are begun first, as the engine begins them.
"""

from __future__ import annotations

import pytest

from repro.objectbase.adts.register import ReadRegister, WriteRegister
from repro.scheduler import OptimisticCertifier
from repro.scheduler.base import Decision
from repro.simulation import HotspotWorkload, SimulationEngine

from tests.oracles.certifier import ReenumeratingCertifier
from tests.scheduler.conftest import info, request


def make_certifier(base, certifier_class=OptimisticCertifier):
    scheduler = certifier_class()
    scheduler.attach(base)
    return scheduler


def begun(scheduler, *transaction_ids):
    """Begin each transaction, as the engine does before its first step."""
    issuers = [info(transaction_id) for transaction_id in transaction_ids]
    for issuer in issuers:
        scheduler.on_transaction_begin(issuer)
    return issuers


def run_step(scheduler, issuer, object_name, operation, value):
    operation_request = request(issuer, object_name, operation, value)
    assert scheduler.on_operation(operation_request).granted
    scheduler.on_operation_executed(operation_request, value)


class _ConflictCounter:
    """Wrap ``scheduler._conflicting`` and count calls per phase."""

    def __init__(self, scheduler):
        self.calls = 0
        self._original = scheduler._conflicting
        scheduler._conflicting = self._count

    def _count(self, object_name, earlier, later):
        self.calls += 1
        return self._original(object_name, earlier, later)

    def take(self) -> int:
        taken, self.calls = self.calls, 0
        return taken


class TestCommitValidationIsIncremental:
    def test_commit_makes_zero_conflict_spec_calls(self, small_object_base):
        scheduler = make_certifier(small_object_base)
        counter = _ConflictCounter(scheduler)
        for index in range(1, 9):
            issuer = info(f"T{index}")
            scheduler.on_transaction_begin(issuer)
            run_step(scheduler, issuer, "cell", WriteRegister(index), index)
            run_step(scheduler, issuer, "other-cell", WriteRegister(index), index)
            executed_calls = counter.take()
            # Classification happens at execution time, once per earlier
            # record on the touched objects — never at commit.
            assert executed_calls >= 0
            assert scheduler.on_commit_request(issuer).granted
            assert counter.take() == 0, "commit validation must not call the conflict spec"
            scheduler.on_transaction_commit(issuer)
            assert counter.take() == 0

    def test_classification_cost_tracks_object_suffix_not_history(self, small_object_base):
        # Validation cost at commit is zero, and execution-time
        # classification touches only same-object records.
        scheduler = make_certifier(small_object_base)
        counter = _ConflictCounter(scheduler)
        for index in range(1, 6):
            issuer = info(f"T{index}")
            scheduler.on_transaction_begin(issuer)
            run_step(scheduler, issuer, "cell", WriteRegister(index), index)
            calls_on_cell = counter.take()
            # Exactly one classification per earlier record on "cell".
            assert calls_on_cell == len(list(scheduler._steps.on("cell"))) - 1
            run_step(scheduler, issuer, "other-cell", WriteRegister(index), index)
            counter.take()
            assert scheduler.on_commit_request(issuer).granted
            assert counter.take() == 0
            scheduler.on_transaction_commit(issuer)

    @staticmethod
    def cross(scheduler, first, second):
        """T1 -> T2 on ``cell`` and T2 -> T1 on ``other-cell``.

        Each read comes before the other side's write, so neither observed
        an uncommitted write: the commit gate grants both requests (no
        commit wait) and validation alone sees the cycle.
        """
        run_step(scheduler, first, "cell", ReadRegister(), 0)
        run_step(scheduler, second, "other-cell", ReadRegister(), 0)
        run_step(scheduler, second, "cell", WriteRegister(2), 2)
        run_step(scheduler, first, "other-cell", WriteRegister(1), 1)

    def test_cyclic_conflicts_still_abort_at_validation(self, small_object_base):
        scheduler = make_certifier(small_object_base, ReenumeratingCertifier)
        first, second = begun(scheduler, "T1", "T2")
        self.cross(scheduler, first, second)
        assert scheduler.on_commit_request(first).granted
        scheduler.on_transaction_commit(first)
        response = scheduler.on_commit_request(second)
        assert response.decision is Decision.ABORT
        assert scheduler.validation_aborts == 1

    def test_failed_validation_rolls_the_committed_graph_back(self, small_object_base):
        scheduler = make_certifier(small_object_base, ReenumeratingCertifier)
        first, second = begun(scheduler, "T1", "T2")
        self.cross(scheduler, first, second)
        assert scheduler.on_commit_request(first).granted
        scheduler.on_transaction_commit(first)
        snapshot_nodes = scheduler._committed_graph.nodes()
        snapshot_edges = scheduler._committed_graph.edges()
        assert scheduler.on_commit_request(second).decision is Decision.ABORT
        # The failed trial left no residue in the committed graph.
        assert scheduler._committed_graph.nodes() == snapshot_nodes
        assert scheduler._committed_graph.edges() == snapshot_edges
        scheduler.on_transaction_abort(second, ("T2",))
        # An unrelated transaction still validates cleanly afterwards.
        (third,) = begun(scheduler, "T3")
        run_step(scheduler, third, "cell", WriteRegister(3), 3)
        assert scheduler.on_commit_request(third).granted


class TestAbortCleanupAndPruning:
    def test_abort_rebuilds_only_touched_objects(self, small_object_base):
        scheduler = make_certifier(small_object_base)
        first, second = begun(scheduler, "T1", "T2")
        run_step(scheduler, first, "cell", WriteRegister(1), 1)
        run_step(scheduler, second, "other-cell", WriteRegister(2), 2)
        steps = scheduler._steps
        untouched = steps._on["other-cell"]
        untouched_before = list(untouched.values())
        scheduler.on_transaction_abort(first, ("T1",))
        assert list(steps.on("cell")) == [] and "cell" not in steps._on
        # The untouched object's records were not rebuilt (same items).
        assert steps._on["other-cell"] is untouched
        assert list(untouched.values()) == untouched_before
        assert "T1" not in steps._of and len(steps) == 1

    def test_abort_unfiles_candidate_edges_on_both_sides(self, small_object_base):
        scheduler = make_certifier(small_object_base)
        first, second = begun(scheduler, "T1", "T2")
        run_step(scheduler, first, "cell", WriteRegister(1), 1)
        run_step(scheduler, second, "cell", WriteRegister(2), 2)
        assert scheduler._pending_edges["T1"] and scheduler._pending_edges["T2"]
        scheduler.on_transaction_abort(second, ("T2",))
        assert "T2" not in scheduler._pending_edges
        assert not scheduler._pending_edges["T1"]
        # T1 validates with no stale edges against the aborted peer.
        assert scheduler.on_commit_request(first).granted

    def test_committed_records_stay_until_garbage_collection(self, small_object_base):
        scheduler = make_certifier(small_object_base)
        (issuer,) = begun(scheduler, "T1")
        # The same execution re-reads the register: a commit keeps every
        # record, in execution order, and only GC drops them.
        run_step(scheduler, issuer, "cell", ReadRegister(), 0)
        run_step(scheduler, issuer, "cell", ReadRegister(), 0)
        run_step(scheduler, issuer, "cell", WriteRegister(5), 5)
        assert len(scheduler._steps) == 3
        assert scheduler.on_commit_request(issuer).granted
        scheduler.on_transaction_commit(issuer)
        assert [step.operation.name for _, (step, _) in scheduler._steps.on("cell")] == [
            "ReadRegister",
            "ReadRegister",
            "WriteRegister",
        ]
        # Nothing live can reach T1, so GC drops all three.
        assert scheduler.collect_garbage() == 3
        assert len(scheduler._steps) == 0 and scheduler.gc_pruned_records == 3

    def test_live_records_are_never_pruned(self, small_object_base):
        scheduler = make_certifier(small_object_base)
        committed, live = begun(scheduler, "T1", "T2")
        run_step(scheduler, committed, "cell", ReadRegister(), 0)
        run_step(scheduler, live, "cell", ReadRegister(), 0)
        run_step(scheduler, live, "cell", ReadRegister(), 0)
        assert scheduler.on_commit_request(committed).granted
        scheduler.on_transaction_commit(committed)
        live_records = [record for owner, record in scheduler._steps.on("cell") if owner == "T2"]
        assert len(live_records) == 2


class TestRetentionIsBoundedByInFlight:
    """No certifier container grows with the number of arrivals."""

    @staticmethod
    def peak_sizes(arrivals: int) -> dict[str, int]:
        """Each sized attribute's peak length, sampled before every GC pass."""
        base, specs = HotspotWorkload(
            transactions=arrivals,
            hot_probability=0.2,
            cold_objects=64,
            operations_per_transaction=2,
            use_service_layer=False,
            seed=3,
        ).build()
        scheduler = OptimisticCertifier(restart_policy="backoff")
        peaks: dict[str, int] = {}
        collect = scheduler.collect_garbage

        def sampled() -> int:
            for name, value in vars(scheduler).items():
                if hasattr(value, "__len__") and not isinstance(value, str):
                    peaks[name] = max(peaks.get(name, 0), len(value))
            return collect()

        scheduler.collect_garbage = sampled
        engine = SimulationEngine(base, scheduler, seed=7, gc_interval=8)
        result = engine.run_stream(specs, {"name": "poisson", "rate": 0.03})
        assert result.metrics.committed == arrivals
        return peaks

    def test_no_container_grows_from_1000_to_4000_arrivals(self):
        short, long = self.peak_sizes(1_000), self.peak_sizes(4_000)
        assert short.keys() == long.keys() and short
        grown = {
            name: (short[name], long[name])
            for name in short
            if long[name] > 2 * short[name] + 16
        }
        assert not grown, grown


class TestLegacyOracle:
    @staticmethod
    def run_under_oracle(seed, restart_policy):
        base, specs = HotspotWorkload(
            transactions=16,
            hot_objects=2,
            cold_objects=6,
            operations_per_transaction=3,
            hot_probability=0.5,
            seed=seed,
        ).build()
        scheduler = ReenumeratingCertifier(restart_policy=restart_policy)
        engine = SimulationEngine(base, scheduler, seed=seed)
        engine.submit_all(specs)
        return engine.run(), scheduler

    @pytest.mark.parametrize("seed", [1, 7, 42, 1111])
    def test_engine_runs_validate_against_legacy(self, seed):
        # The oracle revalidates every commit decision against the original
        # full re-enumeration and raises VerificationError on divergence.
        from repro.analysis import certify_run

        result, _ = self.run_under_oracle(seed, "immediate")
        assert certify_run(result, check_legality=False).serialisable

    @pytest.mark.parametrize("seed", [1, 7, 42, 1111])
    def test_engine_runs_reach_validation_under_backoff(self, seed):
        # Under "immediate" restarts the commit gate's cascade storm lets
        # almost nothing reach validation (0-2 commits of 16 on these
        # seeds); "backoff" commits all 16, so the oracle demonstrably runs.
        result, scheduler = self.run_under_oracle(seed, "backoff")
        assert result.metrics.committed == 16
        assert scheduler.commit_conflict_calls > 600, "the oracle must have enumerated pairs"

    def test_oracle_catches_a_dropped_filed_edge(self, small_object_base, monkeypatch):
        # The differential is live: a selection that loses one filed edge
        # diverges from the re-enumeration at the first commit that has one.
        from repro.core.errors import VerificationError

        selection = OptimisticCertifier._active_edges
        monkeypatch.setattr(
            OptimisticCertifier,
            "_active_edges",
            lambda scheduler, candidate_id: selection(scheduler, candidate_id)[1:],
        )
        scheduler = make_certifier(small_object_base, ReenumeratingCertifier)
        first, second = begun(scheduler, "T1", "T2")
        run_step(scheduler, first, "cell", WriteRegister(1), 1)
        run_step(scheduler, second, "cell", WriteRegister(2), 2)
        assert scheduler.on_commit_request(first).granted
        scheduler.on_transaction_commit(first)
        with pytest.raises(VerificationError, match="selected edges"):
            scheduler.on_commit_request(second)

    def test_describe_reports_incremental_counters(self, small_object_base):
        scheduler = make_certifier(small_object_base)
        description = scheduler.describe()
        assert description["classified_pairs"] == 0
        (issuer,) = begun(scheduler, "T1")
        run_step(scheduler, issuer, "cell", WriteRegister(1), 1)
        run_step(scheduler, issuer, "cell", WriteRegister(2), 2)
        assert scheduler.describe()["classified_pairs"] == 1
        assert scheduler.on_commit_request(issuer).granted
        scheduler.on_transaction_commit(issuer)
        assert scheduler.describe()["committed"] == 1
