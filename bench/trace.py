"""Timing wrappers around the public methods at each layer boundary.

The traced run installs class-level wrappers from *this* file around the
calls into each layer — nothing under ``src/`` knows it is being traced —
and removes them afterwards.  One wrapper stack gives every span its parent,
so a span's self time is its duration minus the part its children cover.

Two kinds of record come out:

* **phase spans** (set-up, build, run, certify, summarise, each shard round)
  are kept in full as ``name, start_ns, end_ns, parent, workload``;
* **per-call hooks** (about a million per run: scheduler hooks, history
  recording, undo log, streaming certifier) are aggregated online to
  ``calls, total_ns, self_ns`` per ``layer.function`` key, because a span
  object per call would cost more than the call it measures.

Both feed the same stack, so within any root span the self times of
everything that ran add up to the root span's duration, exactly, in
nanoseconds.  When a root span closes, the aggregate's growth since the
previous root span is filed under its name (``phases``): per-layer metrics
read the ``harness.run`` and ``harness.summarise`` phases, never the output
checks that follow them.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator

#: The hook protocol of ``repro.scheduler.base.Scheduler`` — what the engine
#: calls.  Helper methods a scheduler happens to expose are not layer
#: boundaries and stay unwrapped, and so does a hook the scheduler inherits
#: unchanged from the base class (a no-op or the base's own bookkeeping):
#: a wrapper there would only tax the hot path to measure nothing.
SCHEDULER_HOOKS = (
    "attach",
    "on_transaction_begin",
    "on_invoke",
    "on_operation",
    "on_operation_executed",
    "on_execution_complete",
    "on_commit_request",
    "on_transaction_commit",
    "on_transaction_abort",
    "drain_wakeups",
    "live_state_size",
    "collect_garbage",
    "describe",
)

#: What the engine calls on its history builder and undo log while running
#: (trivial accessors such as ``execution_record`` are left alone).
HISTORY_METHODS = ("begin_top_level", "invoke", "record_local", "finish", "intervals_for", "build")
UNDO_LOG_METHODS = ("record", "undo", "prune", "collect", "forget_transaction")

#: Entry points of the engine: ``run`` on plain runs, the rest under shards.
ENGINE_ENTRY_POINTS = (
    "run",
    "run_shard_round",
    "apply_shard_directives",
    "finalize_shard",
)


class Tracer:
    """Span stack, online aggregate and the list of installed wrappers."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict[str, Any]] = []
        #: key -> [calls, total_ns, self_ns]
        self.slots: dict[str, list[int]] = {}
        #: root span name -> key -> [calls, total_ns, self_ns] within it
        self.phases: dict[str, dict[str, list[int]]] = {}
        self._filed: dict[str, tuple[int, int, int]] = {}
        self._children: list[int] = []
        self._open_spans: list[int] = []
        self._patches: list[tuple[Any, str, bool, Any]] = []

    # -- recording ---------------------------------------------------------------

    def _slot(self, key: str) -> list[int]:
        return self.slots.setdefault(key, [0, 0, 0])

    def count(self, key: str, amount: int = 1) -> None:
        """Add to a pure counter (a slot whose times stay zero)."""
        self._slot(key)[0] += amount

    def _open(self, name: str) -> dict[str, Any]:
        record = {
            "name": name,
            "start_ns": 0,
            "end_ns": 0,
            "parent": self._open_spans[-1] if self._open_spans else None,
            "workload": self.workload,
        }
        self._open_spans.append(len(self.spans))
        self.spans.append(record)
        self._children.append(0)
        record["start_ns"] = time.perf_counter_ns()
        return record

    def _close(self, record: dict[str, Any]) -> None:
        record["end_ns"] = time.perf_counter_ns()
        elapsed = record["end_ns"] - record["start_ns"]
        inner = self._children.pop()
        slot = self._slot(record["name"])
        slot[0] += 1
        slot[1] += elapsed
        slot[2] += elapsed - inner
        self._open_spans.pop()
        if self._children:
            self._children[-1] += elapsed
        else:
            self._file_phase(record["name"])

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A phase span, kept in full; a root span also closes a phase."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _file_phase(self, name: str) -> None:
        phase = self.phases.setdefault(name, {})
        for key, slot in self.slots.items():
            before = self._filed.get(key, (0, 0, 0))
            if tuple(slot) == before:
                continue
            entry = phase.setdefault(key, [0, 0, 0])
            for index in range(3):
                entry[index] += slot[index] - before[index]
            self._filed[key] = tuple(slot)

    def duration_s(self, name: str) -> float:
        """Total duration of the spans called ``name``, in seconds."""
        return self.slots.get(name, (0, 0, 0))[1] / 1e9

    # -- wrappers ----------------------------------------------------------------

    def _timed(
        self, function: Callable, key: str, observe: Callable[[Any], None] | None = None
    ) -> Callable:
        """The per-call hook: aggregate only, nothing allocated per call."""
        slot = self._slot(key)
        children = self._children
        clock = time.perf_counter_ns

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            children.append(0)
            started = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - started
                inner = children.pop()
                slot[0] += 1
                slot[1] += elapsed
                slot[2] += elapsed - inner
                if children:
                    children[-1] += elapsed
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _spanned(self, function: Callable, key: str) -> Callable:
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            record = self._open(key)
            try:
                return function(*args, **kwargs)
            finally:
                self._close(record)

        return wrapper

    def _counted(self, function: Callable, key: str) -> Callable:
        slot = self._slot(key)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            slot[0] += 1
            return function(*args, **kwargs)

        return wrapper

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        namespace = vars(owner)
        self._patches.append((owner, name, name in namespace, namespace.get(name)))
        setattr(owner, name, replacement)

    def wrap_methods(
        self,
        cls: type,
        names: Iterable[str],
        layer: str,
        *,
        spans: bool = False,
        observe: dict[str, Callable[[Any], None]] | None = None,
    ) -> None:
        """Wrap ``cls.<name>`` for each plain method among ``names``.

        The wrapper goes on ``cls`` itself even when the method is inherited,
        so a subclass override that calls ``super()`` is timed once.
        """
        for name in names:
            function = inspect.getattr_static(cls, name, None)
            if not inspect.isfunction(function):
                continue
            key = f"{layer}.{name}"
            if spans:
                wrapper = self._spanned(function, key)
            else:
                wrapper = self._timed(function, key, (observe or {}).get(name))
            self._patch(cls, name, wrapper)

    def wrap_function(
        self, function: Callable, key: str, observe: Callable[[Any], None] | None = None
    ) -> None:
        """Wrap a module-level function wherever ``repro`` has bound its name."""
        wrapper = self._timed(function, key, observe)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is function:
                    self._patch(module, name, wrapper)

    def count_calls(self, owner: Any, name: str, key: str) -> None:
        """A counting shim (no clock) around ``owner.<name>``."""
        self._patch(owner, name, self._counted(inspect.getattr_static(owner, name), key))

    def restore(self) -> None:
        """Remove every wrapper, newest first."""
        while self._patches:
            owner, name, was_own, original = self._patches.pop()
            if was_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    # -- output ------------------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        fields = ("calls", "total_ns", "self_ns")
        return {
            "workload": self.workload,
            "spans": self.spans,
            "phases": {
                phase: {key: dict(zip(fields, slot)) for key, slot in sorted(keys.items())}
                for phase, keys in self.phases.items()
            },
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle)


def public_methods(cls: type) -> list[str]:
    """Names of the plain public methods ``cls`` defines or inherits."""
    return [
        name
        for name in dir(cls)
        if not name.startswith("_") and inspect.isfunction(inspect.getattr_static(cls, name))
    ]


def install(tracer: Tracer, spec) -> None:
    """Install the wrappers for the layers ``spec``'s run passes through.

    Imports of the program under test are local so that importing this
    module (from the parent harness, from tests) pulls nothing in.
    """
    import networkx

    from repro.analysis import certify as certify_module
    from repro.analysis.streaming import StreamingCertifier
    from repro.core import graphs
    from repro.core.history import HistoryBuilder
    from repro.core.state import UndoLog
    from repro.scheduler import make_scheduler
    from repro.scheduler.base import Scheduler
    from repro.shard.coordinator import InterShardCoordinator
    from repro.shard.engine import ShardWorker
    from repro.simulation import SimulationEngine, make_workload
    from repro.simulation.metrics import RunResult

    workload = make_workload(spec.workload, **spec.workload_params)
    tracer.wrap_methods(type(workload), ("build",), "simulation.workloads")
    arrival_factory = getattr(workload, "arrival_process", None)
    if arrival_factory is not None:
        tracer.wrap_methods(type(arrival_factory()), ("schedule",), "simulation.arrivals")

    scheduler_class = type(make_scheduler(spec.scheduler, **spec.scheduler_kwargs))
    own_hooks = [
        name
        for name in SCHEDULER_HOOKS
        if inspect.getattr_static(scheduler_class, name) is not inspect.getattr_static(Scheduler, name)
    ]

    def note_decision(response) -> None:
        tracer.count(f"scheduler.on_operation.{response.decision.name}")

    tracer.wrap_methods(
        scheduler_class, own_hooks, "scheduler", observe={"on_operation": note_decision}
    )
    tracer.wrap_methods(SimulationEngine, ENGINE_ENTRY_POINTS, "simulation.engine")
    tracer.wrap_methods(HistoryBuilder, HISTORY_METHODS, "core.history")
    tracer.wrap_methods(RunResult, ("committed_history",), "core.history")
    tracer.wrap_methods(UndoLog, UNDO_LOG_METHODS, "core.state")
    tracer.wrap_methods(
        StreamingCertifier, public_methods(StreamingCertifier), "analysis.streaming"
    )
    tracer.wrap_methods(ShardWorker, ("__init__",), "shard.engine.worker")
    tracer.wrap_methods(ShardWorker, ("round", "finalize"), "shard.engine.worker", spans=True)
    tracer.wrap_methods(
        InterShardCoordinator, ("process_round", "break_stall"), "shard.coordinator", spans=True
    )

    def note_report(report) -> None:
        tracer.count("analysis.certify.sg_nodes", report.sg_nodes)
        tracer.count("analysis.certify.sg_edges", report.sg_edges)

    def note_graph(graph) -> None:
        tracer.count("core.graphs.sg_edges", graph.number_of_edges())

    tracer.wrap_function(
        certify_module.certify_run, "analysis.certify.certify_run", observe=note_report
    )
    tracer.wrap_function(
        graphs.serialisation_graph, "core.graphs.serialisation_graph", observe=note_graph
    )
    tracer.count_calls(networkx, "is_directed_acyclic_graph", "core.graphs.nx_dag_checks")
    tracer.count_calls(networkx, "has_path", "core.graphs.nx_has_path_calls")
    tracer.count_calls(networkx.DiGraph, "copy", "core.graphs.nx_graph_copies")
