"""Post-hoc certification is the streaming certifier fed a finished history.

``certify_history`` runs :class:`~repro.analysis.streaming.StreamingCertifier`
over every transaction of the history, in commit order, with no garbage
collection, so it must agree with the definitional certification of
``tests/oracles/certify.py`` — whole ``SG(h)``, every Definition 10 graph,
every ``->_e`` — on every report field, ``sg_edges`` included.  The grid
below covers six schedulers (two of which commit non-serialisable
histories) on a sequential hotspot and on nested transactions with
parallel children.  On the same grid's serialisable runs, Theorem 2's
construction (``execution_serial_order``, ``serialise``) is held against
the certifier's serial order.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro import theorem_5_conditions
from repro.analysis import certify_history, certify_run
from repro.core import History, ModelError, execution_serial_order, serialise
from repro.scheduler import make_scheduler
from repro.simulation import SimulationEngine
from repro.simulation.workloads import make_workload

from tests.conftest import fresh_builder, increment_via_read_write
from tests.oracles import certify as oracle

SCHEDULERS = ("pass-through", "modular-intra-only", "n2pl", "certifier", "nto-step", "modular")
WORKLOADS = {
    "random-ops": {
        "transactions": 6,
        "registers": 4,
        "write_fraction": 0.7,
        "nesting_depth": 3,
        "parallel_fanout": 2,
    },
    "hotspot": {
        "transactions": 8,
        "hot_objects": 2,
        "cold_objects": 6,
        "operations_per_transaction": 3,
        "hot_probability": 0.7,
    },
}
SEEDS = range(15)
#: Cells that commit non-serialisable histories, so the certifier's cyclic
#: path (the cycle witness, Theorem 5's per-object graphs) is compared too.
CYCLIC_CELLS = {
    ("pass-through", "hotspot"),
    ("pass-through", "random-ops"),
    ("modular-intra-only", "random-ops"),
}


def run(scheduler: str, workload: str, seed: int):
    base, specs = make_workload(workload, seed=seed, **WORKLOADS[workload]).build()
    engine = SimulationEngine(base, make_scheduler(scheduler, restart_policy="backoff"), seed=seed)
    engine.submit_all(specs)
    return engine.run()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_certify_run_equals_the_oracle_on_every_field(scheduler, workload):
    serialisable = []
    for seed in SEEDS:
        result = run(scheduler, workload, seed)
        report = certify_run(result)
        assert report == oracle.certify_run(result), (scheduler, workload, seed)
        serialisable.append(report.serialisable)
    if (scheduler, workload) in CYCLIC_CELLS:
        assert not all(serialisable), "this cell should reach the cyclic path"


#: ``serialise(verify=True)`` is quadratic in executions times steps; the
#: random-ops runs (54 executions) fit, the hotspot runs (80) take 3x longer.
SERIALISE_LIMIT = 60


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_theorem_2_construction_agrees_with_the_certifier(scheduler, workload):
    """On every serialisable engine run, Theorem 2's construction orders the
    transactions as the certifier does, and the serial history it builds is
    legal, serial and equivalent."""
    checked = 0
    for seed in SEEDS:
        result = run(scheduler, workload, seed)
        report = certify_run(result)
        if not report.serialisable:
            continue
        history = result.committed_history()
        top_level = set(history.top_level_executions())
        order = [execution_id for execution_id in execution_serial_order(history) if execution_id in top_level]
        assert tuple(order) == report.serial_order, (scheduler, workload, seed)
        if len(history.execution_ids()) <= SERIALISE_LIMIT:
            serialise(history, verify=True)
        checked += 1
    if (scheduler, workload) not in CYCLIC_CELLS:
        assert checked == len(SEEDS)


class TestCertifyHistory:
    def test_no_networkx_graph_unless_sg_is_cyclic(self, monkeypatch, serialisable_history):
        def forbidden(*args, **kwargs):
            raise AssertionError("certify_history built a networkx graph")

        monkeypatch.setattr(nx.DiGraph, "__init__", forbidden)
        assert certify_history(serialisable_history).correct

    def test_theorem_5_is_the_certifiers_view(self, non_serialisable_history):
        report = theorem_5_conditions(non_serialisable_history)
        assert report == oracle.theorem_5_conditions(non_serialisable_history)
        assert report.cyclic_objects == ["environment"] and not report.holds

    def test_order_pair_history_is_rejected(self, serialisable_history):
        history = History(
            list(serialisable_history.executions.values()),
            serialisable_history.initial_states,
            conflicts=serialisable_history.conflicts,
            order_pairs=serialisable_history.order_pairs(),
        )
        with pytest.raises(ModelError, match="order pairs"):
            certify_history(history)

    def test_local_step_without_an_interval_is_rejected(self):
        builder = fresh_builder({"A": {"x": 0}})
        increment_via_read_write(builder, builder.begin_top_level(), "A")
        history = builder.build()
        history.check_legal()
        intervals = history.intervals()
        (untimed, _) = history.local_steps("A")
        del intervals[untimed.step_id]
        stripped = History(
            list(history.executions.values()),
            history.initial_states,
            conflicts=history.conflicts,
            intervals=intervals,
        )
        with pytest.raises(ModelError, match=f"local step {untimed.step_id} .* has no interval"):
            certify_history(stripped)
