"""The library runs on its own graph kernel, and the decision path pays by reach.

Two claims, both checked by what happens rather than by stopwatch:

* nothing ``import repro`` loads, and nothing a certified run or Theorem
  2's ``serialise`` calls, imports networkx: every acyclicity test, cycle
  witness and topological order in ``src/`` is ``repro.core.dag``'s
  (networkx is the oracle under ``tests/oracles/`` and in
  ``tests/core/test_dag.py``, and ``bench/trace.py`` counts its calls);
* the inter-object coordinator's work per edge-inducing step follows what
  the step can reach, not what garbage collection has left behind.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.sweep import ScenarioSpec
from repro.sweep.runner import build_engine

BACKOFF = {"restart_policy": "backoff"}

#: Imports every public package, certifies a pass-through run that commits a
#: non-serialisable history (so ``finalise`` takes its cycle witness) and an
#: n2pl run that does not, serialises the latter, then reports whether
#: networkx was loaded.
HYGIENE_SCRIPT = """
import sys
import repro, repro.shard, repro.sweep, repro.analysis
from repro.analysis import certify_run
from repro.core import serialise
from repro.scheduler import make_scheduler
from repro.simulation import SimulationEngine, make_workload

def run(scheduler):
    base, specs = make_workload(
        "hotspot", transactions=8, hot_objects=2, cold_objects=6,
        operations_per_transaction=3, hot_probability=0.7, seed=0,
    ).build()
    engine = SimulationEngine(base, make_scheduler(scheduler, restart_policy="backoff"), seed=0)
    engine.submit_all(specs)
    return engine.run()

report = certify_run(run("pass-through"))
assert not report.serialisable and report.cycle, report
serialisable = run("n2pl")
assert certify_run(serialisable).serial_order
assert serialise(serialisable.committed_history(), verify=True).is_serial()
print("networkx" in sys.modules)
"""


def stream(inner: dict, rate: float) -> dict:
    return {"inner_params": inner, "arrival": "poisson", "arrival_params": {"rate": rate}}


def zipf_stream_spec(
    scheduler: str, gc_interval: int = 16, transactions: int = 240, **scheduler_kwargs
) -> ScenarioSpec:
    inner = {
        "transactions": transactions,
        "objects": 12,
        "skew": 1.1,
        "operations_per_transaction": 3,
        "seed": 21,
    }
    return ScenarioSpec(
        workload="zipf-stream",
        workload_params=stream(inner, 0.02),
        scheduler=scheduler,
        scheduler_kwargs={**BACKOFF, **scheduler_kwargs},
        seed=21,
        engine_params={"gc_interval": gc_interval},
        certify=False,
    )


def test_the_library_never_imports_networkx():
    # A fresh interpreter: this test process has networkx loaded by the oracles.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    completed = subprocess.run(
        [sys.executable, "-c", HYGIENE_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False", (
        "the library loaded networkx: graph operations in src/ belong in repro.core.dag"
    )


@pytest.mark.parametrize("strategy, lazy_interval", [("locking", 64), ("timestamp", 128)])
def test_coordinator_work_does_not_grow_with_retained_garbage(strategy, lazy_interval):
    """Same stream, GC every 4 resolutions and every `lazy_interval`: same decisions, bounded work.

    The copy-and-recheck coordinator paid for every retained node and edge
    on every edge-inducing step, so a lazier GC cadence cost 4x the wall
    on this workload.  The kernel pays one search per inserted edge, and
    the search walks what the requester reaches — which garbage (by
    definition unreachable from anything live) is never part of.  Stale
    *records* still induce their (harmless) edges until GC drops them, so
    the edge count follows the cadence; the work per edge does not.

    All-locking objects are commit-ordered, so their coordinator orders
    only siblings, drops a transaction's state when it ends, and leaves no
    garbage for either cadence to collect; timestamp objects keep the
    cross-transaction edges this test was written about.  Their watermarks
    retain more state between passes, so the lazy run needs every 128
    resolutions to sit on ten times the eager run's.
    """
    rows = {}
    for gc_interval in (4, lazy_interval):
        spec = zipf_stream_spec(
            "modular", gc_interval, transactions=400, default_strategy=strategy
        )
        result = build_engine(spec).run()
        rows[gc_interval] = (result.metrics.as_dict(), result.scheduler_description)
    eager_metrics, eager = rows[4]
    lazy_metrics, lazy = rows[lazy_interval]

    # GC cadence is decision-invariant: every deterministic column that does
    # not itself gauge retained state is identical.
    def decisions(metrics):
        return {k: v for k, v in metrics.items() if not k.startswith("live_state")}

    assert decisions(eager_metrics) == decisions(lazy_metrics)
    for key in ("ordering_aborts", "rollbacks", "deadlocks_detected", "blocked_requests"):
        assert eager[key] == lazy[key], key

    if strategy == "locking":
        # Nothing outlives its transaction, so no pass finds anything ...
        assert eager["gc_pruned_records"] == lazy["gc_pruned_records"] == 0
    else:
        # The lazy run really does sit on an order of magnitude more state ...
        assert lazy_metrics["live_state_peak"] > 10 * eager_metrics["live_state_peak"]
    # ... and a search still costs a node or two per inserted edge (measured
    # 0 and 0 on locking, 0.44 and 0.90 on timestamps), where re-checking
    # the retained graph would cost thousands per edge-inducing step.
    for description in (eager, lazy):
        assert description["edge_inserts"] > 1000
        assert description["dfs_visits"] <= 2 * description["edge_inserts"]
