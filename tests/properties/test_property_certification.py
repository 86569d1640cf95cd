"""Property-based oracles for the indexed certification machinery.

PR 2 rewrote the serialisation-graph builders and the history order
queries on top of persistent indexes and sorted-interval sweeps; the
original permutation implementations live on as oracles under
``tests/oracles/``.  These tests generate random *nested* histories (with
internal parallelism, so incomparable siblings and non-trivial disjoint
ancestors actually occur) and assert:

* indexed ``order_pairs`` / ``precedes`` agree with the reference
  implementations (``tests/oracles/legality.py`` ``order_pairs_legacy`` and
  ``precedes_oracle``, which derives ``<`` without calling ``precedes``);
* ``check_legal`` — whose condition 2c is an interval-envelope sweep —
  agrees, verdict and message, with the enumeration kept in
  ``tests/oracles/legality.py`` on histories with perturbed or dropped
  intervals;
* the sweep-based ``serialisation_graph`` reproduces the from-scratch
  graph of ``tests/oracles/graphs.py`` — nodes, edges and reason
  multisets — a degenerate history whose ``<`` is cyclic included;
* ``certify_history`` (the certifier fed the finished history) equals the
  definitional certification of ``tests/oracles/certify.py`` on every
  report field.
"""

from __future__ import annotations

import itertools
from collections import Counter

import networkx as nx
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.analysis import certify_history
from repro.core import (
    History,
    HistoryBuilder,
    IllegalHistoryError,
    ModelError,
    ObjectState,
    PerObjectConflicts,
    ReadVariable,
    ReadWriteConflictSpec,
    WriteVariable,
    is_acyclic,
    serialisation_graph,
)

from tests.oracles import certify as oracle
from tests.oracles.graphs import assert_graphs_match, serialisation_graph_legacy
from tests.oracles.legality import (
    check_condition_2c,
    order_pairs_legacy,
    precedes_oracle,
    with_intervals,
)

OBJECT_NAMES = ("A", "B", "C")
VARIABLE_NAMES = ("x", "y")


@st.composite
def nested_history(draw):
    """A random legal history of nested transactions with parallel children.

    Each top-level transaction runs a few accesses; an access invokes a
    child method execution which issues one or two local read/write steps
    and is invoked either sequentially or in parallel with its predecessor
    (``after=[]``), so the execution forest exhibits both comparable and
    incomparable sibling pairs.  Some accesses are relayed through a method
    of another object, so objects other than the environment have proper
    descendants and a non-empty ``SG_mesg``.  The interleaving across
    transactions is drawn by hypothesis.
    """
    transaction_count = draw(st.integers(2, 4))
    accesses_per_transaction = draw(st.integers(1, 3))
    builder = HistoryBuilder(
        initial_states={name: ObjectState({"x": 0, "y": 0}) for name in OBJECT_NAMES},
        conflicts=PerObjectConflicts(default=ReadWriteConflictSpec()),
    )
    transactions = [builder.begin_top_level(f"txn{i}") for i in range(transaction_count)]

    plans = []
    for _ in range(transaction_count):
        plan = []
        for _ in range(accesses_per_transaction):
            plan.append(
                (
                    draw(st.sampled_from(OBJECT_NAMES)),
                    draw(st.sampled_from(VARIABLE_NAMES)),
                    draw(st.booleans()),  # write?
                    draw(st.integers(0, 9)),
                    draw(st.booleans()),  # parallel sibling?
                    draw(st.booleans()),  # second local step?
                    draw(st.sampled_from((None, *OBJECT_NAMES))),  # relayed through?
                )
            )
        plans.append(list(reversed(plan)))

    pending = {index for index in range(transaction_count) if plans[index]}
    while pending:
        index = draw(st.sampled_from(sorted(pending)))
        object_name, variable, is_write, value, parallel, extra_step, relay = plans[index].pop()
        caller = transactions[index]
        if relay is not None:
            caller = builder.invoke(caller, relay, "relay", after=[] if parallel else None)
        child = builder.invoke(
            caller,
            object_name,
            "access",
            after=[] if parallel and relay is None else None,
        )
        if is_write:
            builder.local(child, WriteVariable(variable, value))
        else:
            builder.local(child, ReadVariable(variable, default=0))
        if extra_step:
            builder.local(child, ReadVariable(variable, default=0))
        builder.finish(child)
        if relay is not None:
            builder.finish(caller)
        if not plans[index]:
            pending.discard(index)
    history = builder.build()
    history.check_legal()
    return history


@st.composite
def perturbed_history(draw):
    """A :func:`nested_history` with 0-2 intervals stretched, advanced or dropped."""
    history = draw(nested_history())
    intervals = history.intervals()
    changes = {}
    for _ in range(draw(st.integers(0, 2))):
        step_id = draw(st.sampled_from(sorted(intervals)))
        start, end = intervals[step_id]
        kind = draw(st.sampled_from(("stretch", "advance", "drop")))
        delta = draw(st.integers(1, 6))
        changes[step_id] = {
            "stretch": (start, end + delta),
            "advance": (start - delta, end),
            "drop": None,
        }[kind]
    return with_intervals(history, changes)


def _check_condition_2b(history):
    """Definition 6 condition 2b alone: conflicting local steps are ordered."""
    conflicts = history.conflicts
    for object_name in history.object_names():
        for first, second in itertools.combinations(history.local_steps(object_name), 2):
            if conflicts.steps_conflict(first, second) or conflicts.steps_conflict(second, first):
                if not history.ordered(first, second):
                    raise IllegalHistoryError("unordered conflict", condition="2b")


def _verdict(check):
    try:
        check()
    except IllegalHistoryError as error:
        return error.condition, str(error)
    return None


class TestIndexedHistoryOracles:
    @settings(max_examples=40, deadline=None)
    @given(nested_history())
    def test_order_pairs_sweep_matches_legacy(self, history):
        assert history.order_pairs() == order_pairs_legacy(history)

    @settings(max_examples=30, deadline=None)
    @given(nested_history())
    def test_precedes_matches_legacy_on_every_pair(self, history):
        steps = history.steps()
        for first, second in itertools.permutations(steps, 2):
            assert history.precedes(first, second) == precedes_oracle(history, first, second)

    @settings(max_examples=20, deadline=None)
    @given(nested_history())
    def test_order_pairs_representation_matches_legacy(self, history):
        # Re-encode the same history through explicit order pairs to
        # exercise the reachability (non-interval) code path.
        encoded = History(
            list(history.executions.values()),
            history.initial_states,
            conflicts=history.conflicts,
            order_pairs=history.order_pairs(),
        )
        steps = encoded.steps()
        for first, second in itertools.permutations(steps, 2):
            assert encoded.precedes(first, second) == precedes_oracle(encoded, first, second)
            assert encoded.precedes(first, second) == history.precedes(first, second)

    @settings(max_examples=30, deadline=None)
    @given(nested_history())
    def test_ordered_step_pairs_sweep_is_exact(self, history):
        for object_name in history.object_names():
            steps = history.local_steps(object_name)
            swept = set()
            for first, second in history.ordered_step_pairs(steps):
                swept.add((first.step_id, second.step_id))
            expected = {
                (first.step_id, second.step_id)
                for first, second in itertools.permutations(steps, 2)
                if precedes_oracle(history, first, second)
            }
            assert swept == expected


class TestLegalityOracle:
    def test_check_legal_matches_the_enumeration_of_condition_2c(self):
        # check_legal raises the first violated condition in the order 1,
        # 2a, 2b, 2c, 3 — so it says "2c" exactly when the enumeration does
        # and the same words, and a legal or "3" verdict means 2c held.
        seen: Counter[str] = Counter()

        @settings(max_examples=600, deadline=None, derandomize=True)
        @given(perturbed_history())
        def compare(history):
            verdict = _verdict(history.check_legal)
            enumerated = _verdict(lambda: check_condition_2c(history))
            seen["legal" if verdict is None else verdict[0]] += 1
            if verdict is None or verdict[0] == "3":
                assert enumerated is None
            elif verdict[0] == "2c":
                assert verdict == enumerated
            else:
                assert verdict[0] in ("2a", "2b")

        compare()
        assert sum(seen.values()) >= 500
        assert seen["legal"] >= 50 and seen["2c"] >= 20, seen


class TestGraphBuilderOracles:
    @settings(max_examples=30, deadline=None)
    @given(nested_history())
    def test_serialisation_graph_matches_legacy(self, history):
        assert_graphs_match(
            serialisation_graph(history), serialisation_graph_legacy(history), "serialisation_graph"
        )

    def test_serialisation_graph_handles_cyclic_temporal_order(self):
        # An (illegal) history whose < is cyclic among conflicting local
        # steps: both directions of the pair must be classified or the
        # cycle-closing edge is silently dropped.
        from repro.core import MethodExecution
        from repro.core.executions import ENVIRONMENT_OBJECT
        from repro.core.operations import LocalStep, MessageStep

        t1 = MethodExecution("T1", ENVIRONMENT_OBJECT, "m")
        t2 = MethodExecution("T2", ENVIRONMENT_OBJECT, "m")
        m1 = MessageStep("T1", "A", "w")
        t1.add_step(m1)
        m2 = MessageStep("T2", "A", "w")
        t2.add_step(m2)
        c1 = MethodExecution("T1.1", "A", "w", parent_id="T1", invoking_step_id=m1.step_id)
        c2 = MethodExecution("T2.1", "A", "w", parent_id="T2", invoking_step_id=m2.step_id)
        s1 = LocalStep("T1.1", "A", WriteVariable("x", 1), 1)
        c1.add_step(s1)
        s2 = LocalStep("T2.1", "A", WriteVariable("x", 2), 2)
        c2.add_step(s2)
        history = History(
            [t1, t2, c1, c2],
            {"A": {}},
            conflicts=PerObjectConflicts(default=ReadWriteConflictSpec()),
            order_pairs=[(s1.step_id, s2.step_id), (s2.step_id, s1.step_id)],
        )
        reference = serialisation_graph_legacy(history)
        indexed = serialisation_graph(history)
        assert_graphs_match(indexed, reference, "serialisation_graph")
        assert is_acyclic(indexed) == nx.is_directed_acyclic_graph(reference) is False
        assert set(indexed) == set(reference.edges)


class TestCertifierMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(nested_history())
    def test_certify_history_equals_the_oracle(self, history):
        assert certify_history(history) == oracle.certify_history(history)

    @settings(max_examples=80, deadline=None)
    @given(perturbed_history())
    def test_equal_on_perturbed_intervals_while_conflicts_stay_ordered(self, history):
        # Condition 2b is what makes the certifier's start-stamp order of
        # two conflicting steps the history's ``<``; 2a and 2c may fail.
        intervals = history.intervals()
        if any(step.step_id not in intervals for step in history.local_steps()):
            with pytest.raises(ModelError, match="has no interval"):
                certify_history(history)
            return
        assume(_verdict(lambda: _check_condition_2b(history)) is None)
        assert certify_history(history) == oracle.certify_history(history)
