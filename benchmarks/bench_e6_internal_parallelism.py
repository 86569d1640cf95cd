"""E6 — internal (sibling) parallelism inside method executions.

Paper claim (Section 1(c)): the model allows a method to send messages in
parallel; incomparable sibling executions may interleave as long as their
common ancestor sees a serial view.  We run the same random workload with
fan-out 1 (sequential children) and fan-out 3 (parallel children) and check
that parallel siblings are recorded as unordered in the programme order
while every run stays serialisable.
"""

from __future__ import annotations

from repro.analysis import certify_run
from repro.sweep import ScenarioSpec, build_engine

from .harness import print_experiment

FANOUTS = [1, 3]
SCHEDULERS = ["n2pl", "nto"]
COLUMNS = ["fanout", "scheduler", "makespan", "unordered_sibling_pairs", "aborts", "serialisable"]


def _unordered_sibling_pairs(history) -> int:
    count = 0
    for execution in history.executions.values():
        messages = execution.message_steps()
        for index, first in enumerate(messages):
            for second in messages[index + 1 :]:
                if not execution.program_precedes(first, second) and not execution.program_precedes(
                    second, first
                ):
                    count += 1
    return count


def run_experiment() -> list[dict]:
    rows = []
    for fanout in FANOUTS:
        for scheduler_name in SCHEDULERS:
            spec = ScenarioSpec(
                workload="random-ops",
                scheduler=scheduler_name,
                seed=505,
                workload_params={
                    "registers": 12,
                    "transactions": 10,
                    "operations_per_transaction": 6,
                    "nesting_depth": 2,
                    "parallel_fanout": fanout,
                    "seed": 505,
                },
            )
            result = build_engine(spec).run()
            rows.append(
                {
                    "fanout": fanout,
                    "scheduler": scheduler_name,
                    "makespan": result.metrics.total_ticks,
                    "unordered_sibling_pairs": _unordered_sibling_pairs(result.history),
                    "aborts": result.metrics.aborted_attempts,
                    "serialisable": certify_run(result, check_legality=False).serialisable,
                }
            )
    return rows


def test_e6_internal_parallelism(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_experiment("E6: internal parallelism (parallel sibling invocations)", rows, COLUMNS)
    sequential = [row for row in rows if row["fanout"] == 1]
    parallel = [row for row in rows if row["fanout"] == 3]
    assert all(row["unordered_sibling_pairs"] == 0 for row in sequential)
    assert all(row["unordered_sibling_pairs"] > 0 for row in parallel)
    assert all(row["serialisable"] for row in rows)
