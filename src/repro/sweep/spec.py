"""Declarative scenario and sweep specifications.

The paper's claims are comparative (blocking vs restarting schedulers,
step vs operation conflict granularity, modular vs uniform strategy
mixes), so every experiment is a *grid*: a base configuration plus a few
axes whose cartesian product yields the scenarios to run.  This module
turns that shape into data:

* :class:`ScenarioSpec` — one fully-determined scenario: a workload name
  plus constructor parameters (resolved through
  :data:`~repro.simulation.workloads.WORKLOAD_REGISTRY`), a scheduler
  name plus keyword arguments (resolved through
  :data:`~repro.scheduler.SCHEDULER_FACTORIES`), the engine seed and
  engine options, and free-form ``tags`` that are merged into the
  resulting metrics row (the experiment's axis columns).
* :class:`Axis` / :class:`AxisPoint` — one grid dimension.  A scalar
  point sets a single dotted-path target (e.g.
  ``workload_params.hot_probability``); an :class:`AxisPoint` carries a
  display label plus an arbitrary override mapping, which is how
  non-orthogonal configurations (E5's coupled scheduler+kwargs choices)
  stay declarative.
* :class:`SweepSpec` — a named base scenario plus axes;
  :meth:`SweepSpec.scenarios` expands the grid in deterministic
  nested-loop order (first axis outermost).

Every specification is validated eagerly at construction (unknown
workload/scheduler names, unknown workload or engine parameters,
malformed override paths all raise
:class:`~repro.core.errors.SweepSpecError`) and is canonicalised to
JSON-serialisable values, so ``from_json(to_json(spec)) == spec`` holds
for every valid spec and a spec can be pickled to a ``multiprocessing``
worker or stored next to a results file verbatim.
"""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..core.errors import ModelError, ReproError, SweepSpecError
from ..scheduler import make_scheduler
from ..shard.map import ShardMap
from ..simulation.engine import SimulationEngine
from ..simulation.workloads import make_workload

#: Engine constructor keywords a scenario may set — derived from the
#: :class:`SimulationEngine` signature so the whitelist tracks the engine
#: by construction (``seed`` and ``certify`` are first-class ScenarioSpec
#: fields, stated there once, and the positional arguments are supplied by
#: the runner).
ENGINE_PARAM_NAMES = frozenset(
    name
    for name in inspect.signature(SimulationEngine.__init__).parameters
    if name not in {"self", "object_base", "scheduler", "seed", "certify"}
)

_SCALAR_FIELDS = frozenset(
    {
        "workload",
        "scheduler",
        "seed",
        "certify",
        "check_legality",
        "modular_strategy_from_workload",
        "shards",
        "shard_mode",
    }
)
_MAPPING_FIELDS = frozenset(
    {"workload_params", "scheduler_kwargs", "engine_params", "tags", "shard_assignment"}
)

#: Execution modes of the sharded engine (``repro.shard``): the in-process
#: oracle and the one-worker-process-per-shard transport it must match
#: bit for bit.
SHARD_MODES = ("inprocess", "multiprocess")

#: Metrics-row columns produced by :func:`repro.sweep.runner.summarise_run`.
#: Tags (and hence axis names) must not shadow them: ``row.update(tags)``
#: would silently overwrite a *measured* value with an axis label, and the
#: corruption would be identical in serial and parallel runs, so the
#: determinism checks could never catch it.  ``scheduler`` is exempt — the
#: scheduler axis deliberately labels rows with the name already recorded
#: in that column.
RESERVED_ROW_COLUMNS = frozenset(
    {
        "committed",
        "commit_rate",
        "aborts",
        "gave_up",
        "deadlocks",
        "ts_aborts",
        "validation_aborts",
        "cascade_aborts",
        "inter_object_aborts",
        "makespan",
        "blocked_ticks",
        "blocked_fraction",
        "parks",
        "wakes",
        "wait_ticks",
        "restarts",
        "delayed_restarts",
        "restart_delay_ticks",
        "wasted_fraction",
        "throughput",
        "arrived",
        "in_flight_peak",
        "mean_latency",
        "latency_max",
        "live_state_peak",
        "live_state_ratio",
        "serialisable",
        "legal",
        # Sharded-run extras (repro.sweep.runner.summarise_sharded_run).
        # ``shards`` is reserved too: an axis varying the shard count must
        # pick a different *name* (e.g. ``shard_count``) while targeting
        # the ``shards`` field, or its string label would overwrite the
        # measured integer column.
        "shards",
        "shard_rounds",
        "remote_invocations",
        "cross_commits",
        "cross_aborts",
    }
)


def _canonical(value: Any, *, where: str) -> Any:
    """Round ``value`` through JSON, raising :class:`SweepSpecError` if it can't.

    ``allow_nan=False`` keeps the emitted documents strict RFC 8259 JSON
    (Python's default would happily write ``NaN``/``Infinity`` literals
    that other parsers reject).
    """
    try:
        return json.loads(json.dumps(value, allow_nan=False))
    except (TypeError, ValueError) as exc:
        raise SweepSpecError(f"{where} must be JSON-serialisable, got {value!r}") from exc


def _built(make: Callable[..., Any], name: str, params: Mapping[str, Any], field_name: str):
    """``make(name, **params)``, any refusal raised as :class:`SweepSpecError`."""
    try:
        return make(name, **params)
    except (KeyError, TypeError, ValueError, ReproError) as exc:
        # A KeyError's str() is the repr of its message; show the message.
        reason = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        raise SweepSpecError(
            f"{name!r} rejects {field_name} {sorted(params)}: {reason}"
        ) from exc


@dataclass
class ScenarioSpec:
    """One fully-determined scenario: workload × scheduler × seed × options.

    Args:
        workload: a :data:`~repro.simulation.workloads.WORKLOAD_REGISTRY` name.
        workload_params: constructor arguments of the workload dataclass
            (must be JSON-serialisable; validation builds the workload).
        scheduler: a :func:`~repro.scheduler.make_scheduler` registry name.
        scheduler_kwargs: keyword arguments for the scheduler factory
            (validation builds the scheduler).
        seed: the engine's RNG seed (interleaving choice); workload
            generation seeds live in ``workload_params``.
        engine_params: extra :class:`~repro.simulation.engine.SimulationEngine`
            options (see :data:`ENGINE_PARAM_NAMES`).
        certify: run certification and record the verdict in the row's
            ``serialisable`` column.  ``True`` certifies post-hoc
            (:func:`~repro.analysis.certify.certify_run`), ``"stream"``
            runs the engine with the online
            :class:`~repro.analysis.streaming.StreamingCertifier` and
            reads the rolling report, ``False`` skips certification.
        check_legality: also replay-check legality during certification
            (slower; off by default, matching the benchmark harness).
        modular_strategy_from_workload: ask the built workload for its
            ``modular_strategy_map()`` and pass it to the scheduler factory
            as ``per_object_strategy`` (how E5 wires the modular scheduler
            without embedding per-object tables in the spec).
        shards: partition the object space over this many shards and run
            one engine per shard under the inter-shard coordinator
            (``repro.shard``); ``1`` (the default) is the plain
            single-engine path, bit for bit.
        shard_mode: ``"inprocess"`` runs every shard in the current
            interpreter (the determinism oracle); ``"multiprocess"`` runs
            one worker process per shard.  Ignored when ``shards == 1``.
        shard_assignment: explicit ``object name -> shard index`` pins for
            the :class:`~repro.shard.map.ShardMap` (names absent here fall
            back to the CRC-32 placement).
        tags: extra key/value pairs merged into the metrics row after the
            run — the sweep axes record their labels here.
    """

    workload: str
    scheduler: str
    workload_params: dict[str, Any] = field(default_factory=dict)
    scheduler_kwargs: dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    engine_params: dict[str, Any] = field(default_factory=dict)
    certify: bool | str = True
    check_legality: bool = False
    modular_strategy_from_workload: bool = False
    shards: int = 1
    shard_mode: str = "inprocess"
    shard_assignment: dict[str, int] = field(default_factory=dict)
    tags: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Canonical first: a value JSON cannot carry (NaN, a callable) is
        # refused as such, before a constructor sees it.
        self.workload_params = _canonical(self.workload_params, where="workload_params")
        self.scheduler_kwargs = _canonical(self.scheduler_kwargs, where="scheduler_kwargs")
        self.engine_params = _canonical(self.engine_params, where="engine_params")
        self.shard_assignment = _canonical(self.shard_assignment, where="shard_assignment")
        self.tags = _canonical(self.tags, where="tags")
        self.validate()

    # -- validation ------------------------------------------------------------

    def validate(self) -> None:
        """Check the spec; raise :class:`SweepSpecError`.

        What a workload or a scheduler accepts is what its constructor
        accepts: both are built here (names, keywords, restart policy,
        gate mode, arrival process and inner workload are each checked
        once, where they are defined), so a bad spec fails at
        construction, before any worker process is spawned.
        """
        for mapping_name in ("workload_params", "scheduler_kwargs", "engine_params", "tags"):
            mapping = getattr(self, mapping_name)
            if not isinstance(mapping, Mapping):
                raise SweepSpecError(f"{mapping_name} must be a mapping, got {mapping!r}")
        workload = _built(make_workload, self.workload, self.workload_params, "workload_params")
        _built(make_scheduler, self.scheduler, self.scheduler_kwargs, "scheduler_kwargs")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise SweepSpecError(f"seed must be an int, got {self.seed!r}")
        if self.certify not in (True, False, "stream"):
            raise SweepSpecError(
                f"certify must be True, False or 'stream', got {self.certify!r}"
            )
        unknown_engine = sorted(set(self.engine_params) - ENGINE_PARAM_NAMES)
        if unknown_engine:
            raise SweepSpecError(
                f"unknown engine parameters {unknown_engine}; "
                f"available: {', '.join(sorted(ENGINE_PARAM_NAMES))}"
            )
        shadowing = sorted(set(self.tags) & RESERVED_ROW_COLUMNS)
        if shadowing:
            raise SweepSpecError(
                f"tags {shadowing} would overwrite measured metrics-row columns; "
                "rename the tag/axis (e.g. prefix it with the parameter it varies)"
            )
        if self.modular_strategy_from_workload and not hasattr(workload, "modular_strategy_map"):
            raise SweepSpecError(
                f"workload {self.workload!r} does not define modular_strategy_map(), "
                "required by modular_strategy_from_workload=True"
            )
        if not isinstance(self.shard_assignment, Mapping):
            raise SweepSpecError(
                f"shard_assignment must be a mapping, got {self.shard_assignment!r}"
            )
        try:
            ShardMap(self.shards, self.shard_assignment)
        except ModelError as exc:
            raise SweepSpecError(f"invalid shards / shard_assignment: {exc}") from exc
        if self.shard_mode not in SHARD_MODES:
            raise SweepSpecError(
                f"unknown shard_mode {self.shard_mode!r}; "
                f"available: {', '.join(SHARD_MODES)}"
            )
        if self.shards > 1 and self.certify == "stream":
            raise SweepSpecError(
                "certify='stream' is the single-engine online path; sharded "
                "runs certify each shard's committed projection post-hoc "
                "(use certify=True)"
            )

    # -- description -----------------------------------------------------------

    def describe(self) -> str:
        """A short human-readable label (used in logs and progress output)."""
        parts = [f"workload={self.workload}", f"scheduler={self.scheduler}", f"seed={self.seed}"]
        parts.extend(f"{key}={value}" for key, value in self.tags.items())
        return " ".join(parts)

    # -- JSON round-trip --------------------------------------------------------

    def to_json_dict(self) -> dict[str, Any]:
        """The spec as a plain JSON-serialisable dictionary."""
        return dataclasses.asdict(self)

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_json_dict` output (re-validates)."""
        known = {spec_field.name for spec_field in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SweepSpecError(f"unknown ScenarioSpec fields {unknown}")
        return cls(**dict(data))

    def to_json(self, **dumps_kwargs: Any) -> str:
        return json.dumps(self.to_json_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class AxisPoint:
    """One grid point: a display label plus the overrides it applies.

    ``overrides`` maps dotted paths (``"scheduler"``,
    ``"workload_params.hot_probability"``) to values; the label becomes
    the axis's tag value in the scenario's metrics row.
    """

    label: Any
    overrides: Mapping[str, Any]

    def to_json_dict(self) -> dict[str, Any]:
        return {"label": self.label, "overrides": dict(self.overrides)}

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "AxisPoint":
        return cls(label=data["label"], overrides=dict(data.get("overrides", {})))


def _validate_path(path: str) -> None:
    segments = path.split(".")
    if segments[0] in _SCALAR_FIELDS:
        if len(segments) != 1:
            raise SweepSpecError(f"override path {path!r} must not nest into {segments[0]!r}")
    elif segments[0] in _MAPPING_FIELDS:
        if len(segments) != 2 or not segments[1]:
            raise SweepSpecError(
                f"override path {path!r} must name exactly one key inside {segments[0]!r}"
            )
    else:
        raise SweepSpecError(
            f"override path {path!r} does not start with a ScenarioSpec field; "
            f"expected one of {', '.join(sorted(_SCALAR_FIELDS | _MAPPING_FIELDS))}"
        )


def _apply_override(data: dict[str, Any], path: str, value: Any) -> None:
    segments = path.split(".")
    if len(segments) == 1:
        data[segments[0]] = value
    else:
        data.setdefault(segments[0], {})[segments[1]] = value


@dataclass(frozen=True)
class Axis:
    """One sweep dimension: a name (tag/column label) plus its grid points.

    Args:
        name: the tag key recorded in every scenario's row for this axis.
        points: scalars or :class:`AxisPoint` instances.  A scalar ``v``
            is shorthand for ``AxisPoint(label=v, overrides={target: v})``.
        target: the dotted path scalar points write to; defaults to the
            axis name (so ``Axis("scheduler", ("n2pl", "nto"))`` sweeps
            the scheduler field directly).
    """

    name: str
    points: tuple[AxisPoint, ...]
    target: str | None = None

    def __init__(self, name: str, points: Sequence[Any], target: str | None = None):
        if not name:
            raise SweepSpecError("axis name must be non-empty")
        if not points:
            raise SweepSpecError(f"axis {name!r} needs at least one point")
        default_target = target if target is not None else name
        normalised = []
        for point in points:
            if isinstance(point, AxisPoint):
                if not point.overrides:
                    raise SweepSpecError(
                        f"axis {name!r} point {point.label!r} applies no overrides"
                    )
                for path in point.overrides:
                    _validate_path(path)
                normalised.append(
                    AxisPoint(
                        _canonical(point.label, where=f"axis {name!r} label"),
                        _canonical(dict(point.overrides), where=f"axis {name!r} overrides"),
                    )
                )
            else:
                _validate_path(default_target)
                value = _canonical(point, where=f"axis {name!r} point")
                normalised.append(AxisPoint(value, {default_target: value}))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "points", tuple(normalised))
        object.__setattr__(self, "target", target)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "target": self.target,
            "points": [point.to_json_dict() for point in self.points],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "Axis":
        return cls(
            name=data["name"],
            points=[AxisPoint.from_json_dict(point) for point in data["points"]],
            target=data.get("target"),
        )


@dataclass
class SweepSpec:
    """A named base scenario plus grid axes.

    :meth:`scenarios` expands the cartesian product of the axes over the
    base scenario in deterministic nested-loop order — the first axis is
    the outermost loop — so serial and fanned-out runs see the same
    scenario list in the same order.
    """

    name: str
    base: ScenarioSpec
    axes: tuple[Axis, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise SweepSpecError("sweep name must be non-empty")
        if not isinstance(self.base, ScenarioSpec):
            raise SweepSpecError(f"base must be a ScenarioSpec, got {self.base!r}")
        self.axes = tuple(self.axes)
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise SweepSpecError(f"duplicate axis names in {names}")
        # Expansion re-validates every combination; fail fast on specs whose
        # base is valid but whose grid produces an invalid scenario.  The
        # result is cached so later scenarios()/iteration calls do not pay
        # the per-cell JSON round-trip and re-validation again.
        self._scenarios = self._expand()

    # -- expansion --------------------------------------------------------------

    def _expand(self) -> tuple[ScenarioSpec, ...]:
        expanded: list[ScenarioSpec] = []
        for combination in itertools.product(*(axis.points for axis in self.axes)):
            data = self.base.to_json_dict()
            tags = dict(data.get("tags", {}))
            for axis, point in zip(self.axes, combination):
                for path, value in point.overrides.items():
                    _apply_override(data, path, value)
                tags[axis.name] = point.label
            data["tags"] = tags
            expanded.append(ScenarioSpec.from_json_dict(data))
        return tuple(expanded)

    def scenarios(self) -> list[ScenarioSpec]:
        """The expanded scenario list (first axis outermost, stable order)."""
        return list(self._scenarios)

    def __len__(self) -> int:
        return len(self._scenarios)

    def __iter__(self) -> Iterator[ScenarioSpec]:
        return iter(self._scenarios)

    # -- JSON round-trip --------------------------------------------------------

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "base": self.base.to_json_dict(),
            "axes": [axis.to_json_dict() for axis in self.axes],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        return cls(
            name=data["name"],
            base=ScenarioSpec.from_json_dict(data["base"]),
            axes=tuple(Axis.from_json_dict(axis) for axis in data.get("axes", [])),
        )

    def to_json(self, **dumps_kwargs: Any) -> str:
        return json.dumps(self.to_json_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        return cls.from_json_dict(json.loads(text))
