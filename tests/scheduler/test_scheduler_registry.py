"""The scheduler registry is a table of classes, and a scheduler can be re-attached.

Three facts are written once in ``repro.scheduler`` and pinned here from the
outside: the keywords a registry name accepts are the signature of the class
it maps to (minus what a preset fixes); a scheduler's per-run state is
whatever ``_reset`` creates — so attaching a used instance to a second engine
must behave exactly like a new instance; and a granted step is the one
``LocalStep`` the engine built for its request, which every scheduler keeps
rather than building its own.  Every scheduler but the pass-through base
also shows the state it keeps for a live transaction to the live-state gauge.
"""

from __future__ import annotations

import inspect

import pytest

from repro.core.operations import LocalStep
from repro.objectbase.adts.register import WriteRegister
from repro.scheduler import (
    OPERATION_LEVEL,
    SCHEDULER_FACTORIES,
    STEP_LEVEL,
    adaptive,
    make_scheduler,
)
from repro.simulation import SimulationEngine, make_workload
from repro.sweep import ScenarioSpec
from repro.sweep.spec import SweepSpecError

from tests.scheduler.conftest import info, request

_MODULAR = {
    "default_strategy": "locking",
    "per_object_strategy": None,
    "inter_object_checks": True,
    "level": "step",
    "restart_policy": "immediate",
    "gate_mode": "cascade",
}

#: name -> {keyword: default}, in signature order, as recorded from the
#: hand-written factories this table replaced.
RECORDED_SIGNATURES = {
    "pass-through": {"restart_policy": "immediate"},
    "n2pl": {"level": "operation", "restart_policy": "immediate"},
    "n2pl-step": {"restart_policy": "immediate"},
    "nto": {"level": "operation", "restart_policy": "immediate", "gate_mode": "cascade"},
    "nto-step": {"restart_policy": "immediate", "gate_mode": "cascade"},
    "single-active": {"restart_policy": "immediate"},
    # ``check`` (re-enumerate at every commit) left with the oracle it
    # selected: tests/oracles/certifier.py.
    "certifier": {"level": "step", "restart_policy": "immediate", "gate_mode": "cascade"},
    "modular": _MODULAR,
    "modular-intra-only": {
        key: value
        for key, value in _MODULAR.items()
        if key not in ("inter_object_checks", "gate_mode")
    },
    # The coordinator is always on: adaptive's safety rests on it.
    "adaptive": {
        "window": 128,
        **{
            key: value
            for key, value in _MODULAR.items()
            if key not in ("default_strategy", "inter_object_checks")
        },
    },
}

FIXED_KEYWORDS = [
    ("n2pl-step", "level", "operation"),
    ("nto-step", "level", "operation"),
    ("modular-intra-only", "inter_object_checks", True),
    ("modular-intra-only", "gate_mode", "aca"),
]


def test_every_registry_name_is_recorded():
    assert set(SCHEDULER_FACTORIES) == set(RECORDED_SIGNATURES)


@pytest.mark.parametrize("name", sorted(RECORDED_SIGNATURES))
def test_signature_is_the_recorded_one(name):
    parameters = inspect.signature(SCHEDULER_FACTORIES[name]).parameters
    assert [(p.name, p.default) for p in parameters.values()] == list(
        RECORDED_SIGNATURES[name].items()
    )


@pytest.mark.parametrize("name, keyword, value", FIXED_KEYWORDS)
def test_fixed_keyword_is_rejected(name, keyword, value):
    with pytest.raises(TypeError, match=keyword):
        make_scheduler(name, **{keyword: value})
    with pytest.raises(SweepSpecError, match=keyword):
        ScenarioSpec(workload="hotspot", scheduler=name, scheduler_kwargs={keyword: value})


@pytest.mark.parametrize("name", sorted(RECORDED_SIGNATURES))
def test_unknown_keyword_names_the_scheduler_class(name):
    with pytest.raises(TypeError) as caught:
        make_scheduler(name, no_such_keyword=1)
    message = str(caught.value)
    assert "no_such_keyword" in message
    # ... by the class whose ``__init__`` it is (single-active inherits the base's).
    assert any(
        f"{cls.__name__}.__init__()" in message for cls in type(make_scheduler(name)).__mro__
    )
    assert "lambda" not in message


@pytest.mark.parametrize("name", sorted(set(RECORDED_SIGNATURES) - {"pass-through"}))
def test_live_state_gauge_sees_a_granted_write(name, small_object_base):
    # A scheduler that keeps state for a live transaction shows it to the
    # engine's live-state gauge; only the pass-through base keeps none.
    scheduler = make_scheduler(name)
    scheduler.attach(small_object_base)
    transaction = info("T1")
    scheduler.on_transaction_begin(transaction)
    write = request(transaction, "cell", WriteRegister(1))
    assert scheduler.on_operation(write).granted
    scheduler.on_operation_executed(write)
    assert scheduler.live_state_size() > 0


def _run(scheduler, workload_seed):
    # A fresh object base per run, contended enough that every scheduler
    # blocks, aborts or restarts something.
    base, specs = make_workload(
        "hotspot", transactions=14, hot_objects=2, hot_probability=0.8, seed=workload_seed
    ).build()
    engine = SimulationEngine(base, scheduler, seed=5)
    engine.submit_all(specs)
    result = engine.run()
    return result.metrics.as_dict(), result.scheduler_description


@pytest.mark.parametrize("name", sorted(RECORDED_SIGNATURES))
def test_reattached_scheduler_starts_like_a_new_one(name, monkeypatch):
    kwargs = {"restart_policy": "backoff"}
    if name == "adaptive":
        # A short run must adapt, so that a swap left behind would show.
        monkeypatch.setattr(adaptive, "PROMOTE_THRESHOLD", 2)
        kwargs.update(window=8)
    used = make_scheduler(name, **kwargs)
    first = _run(used, workload_seed=11)
    assert first[0]["committed"] > 0
    # Same instance, second engine, other workload: anything the first run
    # left behind outside ``_reset`` shows in the metrics row or describe().
    assert _run(used, workload_seed=12) == _run(make_scheduler(name, **kwargs), workload_seed=12)


def _levels():
    """Every registry name, at both levels where it takes a ``level``."""
    for name in sorted(SCHEDULER_FACTORIES):
        if "level" in inspect.signature(SCHEDULER_FACTORIES[name]).parameters:
            yield from ((name, level) for level in (OPERATION_LEVEL, STEP_LEVEL))
        else:
            yield name, None


@pytest.mark.parametrize("name, level", list(_levels()))
def test_one_local_step_per_operation_request(name, level, monkeypatch):
    # Nested parallel children on a few registers: every hook that records
    # a step (intra-object, coordinator, sibling order, gate) is exercised.
    scheduler = make_scheduler(name, **({} if level is None else {"level": level}))
    base, specs = make_workload(
        "random-ops", transactions=12, registers=4, nesting_depth=3, parallel_fanout=2, seed=7
    ).build()
    engine = SimulationEngine(base, scheduler, seed=5)
    engine.submit_all(specs)
    counts = {"requests": 0, "steps": 0}
    on_operation, init = scheduler.on_operation, LocalStep.__init__

    def counted_request(request):
        counts["requests"] += 1
        return on_operation(request)

    def counted_step(self, *args, **kwargs):
        counts["steps"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(scheduler, "on_operation", counted_request)
    monkeypatch.setattr(LocalStep, "__init__", counted_step)
    result = engine.run()
    monkeypatch.undo()
    assert result.metrics.local_steps > 0
    assert counts["steps"] == counts["requests"], counts
