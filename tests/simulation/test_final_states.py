"""``RunResult.final_states()`` is the engine's state table, held to a replay.

The engine applies every granted step to its own state table and undoes
every aborted attempt in it (incremental undo, ``tests/simulation/
test_undo.py``), so the table is what the run left behind and
``final_states()`` returns it without replaying anything.  The oracle here
is the definitional answer: replay the committed projection of the
recorded history (Definition 6, Theorem 1), which also raises if that
projection is not legal.  The grid is every registry scheduler on seven
workloads, closed batches, three seeds.
"""

from __future__ import annotations

import pytest

from repro.scheduler import SCHEDULER_FACTORIES, make_scheduler
from repro.simulation import SimulationEngine, make_workload

WORKLOADS = ("hotspot", "banking", "order-processing", "random-ops", "mixed", "zipf", "btree")


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("scheduler", sorted(SCHEDULER_FACTORIES))
def test_state_table_equals_the_committed_replay(scheduler, workload):
    for seed in (1, 2, 3):
        base, specs = make_workload(workload, transactions=12, seed=seed).build()
        engine = SimulationEngine(base, make_scheduler(scheduler), seed=seed)
        engine.submit_all(specs)
        result = engine.run()
        assert result.final_states() == result.committed_history().final_states(), (
            f"{scheduler} on {workload}, seed {seed}"
        )
