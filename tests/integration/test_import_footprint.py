"""Importing the library loads only what a caller names, and a run loads nothing.

Every package surface and every component registry resolves a name the
first time it is used (DESIGN.md, "Import on use"), so a pass loads only
the modules its spec names:

* ``import repro`` loads its surface (three modules) and nothing else, and
  importing the library loads no process-pool machinery: only a parallel
  sweep (``SweepRunner`` with ``workers > 1``) and a multiprocess sharded
  run start processes, and they import ``multiprocessing`` and
  ``concurrent.futures`` where they do (about 2 MB of resident set every
  in-process run is spared);
* a hotspot stream under N2PL, spec built and run, loads no other
  scheduler, no shard worker or coordinator, no ADT but the register and
  no workload but the hotspot one;
* on each of the end-to-end benchmark's five workloads, building the
  engine loads everything its run and its summary use: ``run()`` and
  ``summarise_*`` import nothing, so no deferred import lands in a
  throughput wall;
* and only a spec that certifies post hoc loads the certifier: the 2-shard
  benchmark stream, which does not, never loads it.

Each check runs in a fresh interpreter: pytest itself has loaded the
whole library here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from bench.workloads import WORKLOADS


def run_script(script: str, *arguments: str) -> str:
    """``script``'s standard output, run in a fresh interpreter on this ``sys.path``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    completed = subprocess.run(
        [sys.executable, "-c", script, *arguments],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.strip()


POOL_SCRIPT = """
import sys
import repro, repro.shard, repro.sweep
print(sorted(m for m in sys.modules if m.split(".")[0] in ("multiprocessing", "concurrent")))
"""


def test_importing_the_library_loads_no_process_pool_modules():
    assert run_script(POOL_SCRIPT) == "[]"


SURFACE_SCRIPT = """
import sys
import repro
print(sorted(m for m in sys.modules if m.startswith("repro")))
print(repro.objectbase.adts.register_definition.__module__, repro.ShardMap.__module__)
"""


def test_import_repro_loads_its_surface_and_names_load_on_use():
    loaded, resolved = run_script(SURFACE_SCRIPT).splitlines()
    assert loaded == "['repro', 'repro.core', 'repro.core.registry']"
    # A subpackage is an attribute, as with an eager __init__.
    assert resolved == "repro.objectbase.adts.register repro.shard.map"


FOOTPRINT_SCRIPT = """
import importlib, json, pkgutil, sys
import repro, repro.shard, repro.sweep
from repro.sweep import ScenarioSpec, build_engine, summarise_run

inner = {"transactions": 40, "seed": 3, "hot_objects": 2, "cold_objects": 16}
spec = ScenarioSpec(
    workload="hotspot-stream",
    workload_params={"inner_params": inner, "arrival_params": {"rate": 0.05}},
    scheduler="n2pl",
    scheduler_kwargs={"restart_policy": "backoff"},
    seed=3,
    certify="stream",
    check_legality=True,
)
summarise_run(build_engine(spec).run(), spec.scheduler, certify=spec.certify)
loaded = sorted(m for m in sys.modules if m.startswith("repro"))


def submodules(package):
    path = importlib.import_module(package).__path__
    return [f"{package}.{module.name}" for module in pkgutil.iter_modules(path)]


print(json.dumps({
    "loaded": loaded,
    "adts": submodules("repro.objectbase.adts"),
    "workloads": submodules("repro.simulation.workloads"),
}))
"""

#: The modules a hotspot stream under N2PL has no use for.
FOREIGN_SCHEDULERS = {
    f"repro.scheduler.{name}" for name in ("modular", "adaptive", "certifier", "nto")
}
FOREIGN_SHARD_MODULES = {"repro.shard.worker", "repro.shard.coordinator"}
OWN_WORKLOAD_MODULES = {
    f"repro.simulation.workloads.{name}" for name in ("base", "hotspot", "stream")
}


def test_a_hotspot_n2pl_stream_loads_only_what_its_spec_names():
    footprint = json.loads(run_script(FOOTPRINT_SCRIPT))
    loaded = set(footprint["loaded"])
    # The run itself went through what it needed (a vacuous pass would not).
    assert {"repro.scheduler.n2pl", "repro.objectbase.adts.register"} <= loaded
    assert {"repro.simulation.workloads.hotspot", "repro.analysis.streaming"} <= loaded
    foreign = (
        FOREIGN_SCHEDULERS
        | FOREIGN_SHARD_MODULES
        | set(footprint["adts"]) - {"repro.objectbase.adts.register"}
        | set(footprint["workloads"]) - OWN_WORKLOAD_MODULES
    )
    assert len(foreign) > 15, sorted(foreign)  # the package scans found the modules
    assert sorted(loaded & foreign) == []


RUN_SCRIPT = """
import json, sys
from bench.workloads import WORKLOADS
from repro.shard import ShardMap, ShardedEngine
from repro.sweep import ScenarioSpec, build_engine, summarise_run, summarise_sharded_run

spec = ScenarioSpec(**WORKLOADS[sys.argv[1]].fields(12, 0.02))
if spec.shards > 1:
    engine = ShardedEngine(spec, ShardMap(spec.shards, spec.shard_assignment))
else:
    engine = build_engine(spec)
built = set(sys.modules)
result = engine.run()
if spec.shards > 1:
    summarise_sharded_run(result, spec.scheduler)
else:
    summarise_run(
        result, spec.scheduler, certify=spec.certify, check_legality=spec.check_legality
    )
print(json.dumps(sorted(set(sys.modules) - built)))
"""


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_a_run_and_its_summary_import_nothing(workload):
    assert json.loads(run_script(RUN_SCRIPT, workload)) == []


UNCERTIFIED_SCRIPT = """
import json, sys
from bench.workloads import WORKLOADS
from repro.shard import ShardMap, ShardedEngine
from repro.sweep import ScenarioSpec, summarise_sharded_run

spec = ScenarioSpec(**WORKLOADS["hotspot-stream-2shard-nto"].fields(12, 0.02))
assert spec.shards > 1 and spec.certify is False
engine = ShardedEngine(spec, ShardMap(spec.shards, spec.shard_assignment))
summarise_sharded_run(engine.run(), spec.scheduler)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro.analysis"))))
"""


def test_an_uncertified_sharded_pass_loads_no_certifier():
    # Only a spec that certifies post hoc loads the certifier, at set-up:
    # the 2-shard benchmark stream builds its fleet, runs and summarises
    # without the post-hoc certifier or the streaming one it feeds.
    loaded = json.loads(run_script(UNCERTIFIED_SCRIPT))
    assert "repro.analysis.certify" not in loaded
    assert "repro.analysis.streaming" not in loaded
