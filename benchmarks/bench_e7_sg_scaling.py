"""E7 — cost of building and checking serialisation graphs (Theorem 2).

The serialisability theorem turns correctness into an acyclicity check of
``SG(h)``.  This benchmark measures how the cost of constructing the graph
and extracting the serial order scales with history size, which is what a
certification-based inter-object mechanism (Section 6) would pay online.
"""

from __future__ import annotations

import time

from repro.core import execution_serial_order, is_acyclic, serialisation_graph
from repro.sweep import ScenarioSpec, build_engine

from .harness import print_experiment

TRANSACTION_COUNTS = [5, 10, 20]
COLUMNS = [
    "transactions",
    "executions",
    "local_steps",
    "sg_nodes",
    "sg_edges",
    "build_seconds",
    "serial_order_seconds",
    "serialisable",
]


def _history_of_size(transactions: int):
    spec = ScenarioSpec(
        workload="random-ops",
        scheduler="n2pl",
        seed=606,
        workload_params={
            "registers": 10,
            "transactions": transactions,
            "operations_per_transaction": 4,
            "nesting_depth": 2,
            "seed": 606,
        },
    )
    return build_engine(spec).run().committed_history()


def run_experiment() -> list[dict]:
    rows = []
    for transactions in TRANSACTION_COUNTS:
        history = _history_of_size(transactions)
        # One SG(h) build and its acyclicity test; execution_serial_order
        # builds its own SG(h), so it is timed apart.
        started = time.perf_counter()
        graph = serialisation_graph(history)
        serialisable = is_acyclic(graph)
        built = time.perf_counter()
        if serialisable:
            execution_serial_order(history)
        ordered = time.perf_counter()
        rows.append(
            {
                "transactions": transactions,
                "executions": len(history.execution_ids()),
                "local_steps": len(history.local_steps()),
                "sg_nodes": len(history.execution_ids()),
                "sg_edges": len(graph),
                "build_seconds": built - started,
                "serial_order_seconds": ordered - built,
                "serialisable": serialisable,
            }
        )
    return rows


def test_e7_sg_scaling(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_experiment("E7: serialisation-graph construction cost vs history size", rows, COLUMNS)
    assert all(row["serialisable"] for row in rows)
    sizes = [row["sg_edges"] for row in rows]
    assert sizes == sorted(sizes)
