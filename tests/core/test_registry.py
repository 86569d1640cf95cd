"""Uniform component resolution: the one spec shape behind every registry."""

from __future__ import annotations

import importlib
import inspect

import pytest

import repro
from repro.core.registry import LazyTable, component_names, resolve_component
from repro.shard import ShardedEngine
from repro.simulation import SimulationEngine
from repro.sweep import SweepRunner


class Widget:
    def __init__(self, size=1, colour="red"):
        self.size = size
        self.colour = colour


class Gadget:
    def __init__(self, prefix, size=1):
        self.prefix = prefix
        self.size = size


REGISTRY = {"widget": Widget, "gadget": Gadget}


class TestShapes:
    def test_name(self):
        built = resolve_component(REGISTRY, "widget")
        assert isinstance(built, Widget)
        assert built.size == 1

    def test_name_with_kwargs(self):
        built = resolve_component(REGISTRY, "widget", size=4)
        assert built.size == 4

    def test_mapping(self):
        built = resolve_component(REGISTRY, {"name": "widget", "colour": "blue"})
        assert built.colour == "blue"

    def test_kwargs_override_mapping_entries(self):
        built = resolve_component(
            REGISTRY, {"name": "widget", "size": 2}, size=9
        )
        assert built.size == 9

    def test_instance_passthrough(self):
        ready = Widget(size=7)
        assert (
            resolve_component(REGISTRY, ready, instance_of=Widget) is ready
        )

    def test_construction_args_are_prepended(self):
        built = resolve_component(
            REGISTRY, "gadget", construction_args=("pfx",), size=3
        )
        assert built.prefix == "pfx"
        assert built.size == 3

    def test_instances_never_see_construction_args(self):
        ready = Gadget("pfx")
        resolved = resolve_component(
            REGISTRY, ready, instance_of=Gadget, construction_args=("other",)
        )
        assert resolved is ready


class TestErrors:
    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="unknown component 'nope'.*gadget, widget"):
            resolve_component(REGISTRY, "nope")

    def test_kind_names_the_family(self):
        with pytest.raises(KeyError, match="unknown restart policy"):
            resolve_component(REGISTRY, "nope", kind="restart policy")

    def test_mapping_without_name(self):
        with pytest.raises(TypeError, match="needs a 'name' entry"):
            resolve_component(REGISTRY, {"size": 3})

    def test_mapping_with_non_string_name(self):
        with pytest.raises(TypeError, match="needs a 'name' entry"):
            resolve_component(REGISTRY, {"name": 42})

    def test_unsupported_spec_type(self):
        with pytest.raises(TypeError, match="must be a name, a mapping"):
            resolve_component(REGISTRY, 42)

    def test_instance_shape_off_by_default(self):
        # Without instance_of, a ready instance is an unsupported type.
        with pytest.raises(TypeError, match="must be a name, a mapping"):
            resolve_component(REGISTRY, Widget())

    def test_kwargs_on_instance(self):
        with pytest.raises(TypeError, match="ready Widget instance"):
            resolve_component(REGISTRY, Widget(), instance_of=Widget, size=2)

    def test_unknown_constructor_keyword_propagates(self):
        with pytest.raises(TypeError):
            resolve_component(REGISTRY, "widget", bogus=1)


def test_component_names_sorted():
    assert component_names(REGISTRY) == ["gadget", "widget"]


class TestLazyTable:
    def test_names_and_membership_load_nothing(self):
        loads = []
        table = LazyTable(__name__, {"widget": lambda: loads.append(1) or Widget})
        assert "widget" in table and "gadget" not in table
        assert list(table) == ["widget"] and len(table) == 1
        assert component_names(table) == ["widget"]
        assert loads == []
        assert table["widget"] is Widget and table["widget"] is Widget
        assert loads == [1]  # loaded once, then kept

    def test_targets_resolve_relative_to_the_home_package(self):
        table = LazyTable("repro.core.registry", {"dag": ".dag:PrecedenceDag", "self": ":LazyTable"})
        assert table["dag"] is importlib.import_module("repro.core.dag").PrecedenceDag
        assert table["self"] is LazyTable

    def test_unknown_names_raise_key_error_through_resolve_component(self):
        with pytest.raises(KeyError, match="unknown component 'nope'.*widget"):
            resolve_component(LazyTable(__name__, {"widget": lambda: Widget}), "nope")


SURFACES = (
    "repro",
    "repro.core",
    "repro.scheduler",
    "repro.simulation",
    "repro.simulation.workloads",
    "repro.objectbase",
    "repro.objectbase.adts",
    "repro.analysis",
    "repro.shard",
    "repro.shard.engine",
    "repro.sweep",
)


@pytest.mark.parametrize("surface", SURFACES)
def test_every_surface_name_resolves_and_is_listed(surface):
    module = importlib.import_module(surface)
    assert module.__all__, surface
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in dir(module)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        getattr(module, "no_such_name")


@pytest.mark.parametrize(
    "registry",
    (
        "SCHEDULER_FACTORIES",
        "WORKLOAD_REGISTRY",
        "INTRA_STRATEGIES",
        "RESTART_POLICIES",
        "ARRIVAL_REGISTRY",
        "FAULT_REGISTRY",
    ),
)
def test_every_registry_entry_resolves_to_a_factory(registry):
    table = getattr(repro, registry)
    assert isinstance(table, LazyTable)
    assert all(callable(factory) for factory in table.values())


#: The constructor arguments ``make_intra_strategy`` supplies itself.
_INTRA_CONSTRUCTION = ("object_name", "conflicts", "step_level")
_GATED = ("restart_policy", "gate_mode")
_STREAM = ("inner_params", "arrival", "arrival_params")
_MODULAR = ("default_strategy", "per_object_strategy", "inter_object_checks", "level", *_GATED)


class TestKeywordCensus:
    """Every keyword a caller can set on a component, pinned by name.

    A keyword stays only if production sets a second value or it is an input
    of the run (DESIGN.md, first rule), so adding one is an edit here too.
    """

    CENSUS = {
        "SCHEDULER_FACTORIES": {
            "pass-through": ("restart_policy",),
            "n2pl": ("level", "restart_policy"),
            "n2pl-step": ("restart_policy",),
            "nto": ("level", *_GATED),
            "nto-step": _GATED,
            "single-active": ("restart_policy",),
            "certifier": ("level", *_GATED),
            "modular": _MODULAR,
            "modular-intra-only": (
                "default_strategy", "per_object_strategy", "level", "restart_policy",
            ),
            "adaptive": ("window", "per_object_strategy", "level", *_GATED),
        },
        "RESTART_POLICIES": {"immediate": (), "backoff": (), "ordered": ()},
        "ARRIVAL_REGISTRY": {
            "poisson": ("rate",),
            "bursty": ("burst", "mean_gap", "within_gap"),
            "diurnal": ("rate", "amplitude", "period"),
            "flash-crowd": ("rate", "spike_factor", "spike_length", "mean_calm"),
        },
        "FAULT_REGISTRY": {"crash": ("at", "period", "max_faults")},
        "WORKLOAD_REGISTRY": {
            "banking": (
                "accounts", "branches", "transactions", "initial_balance", "transfer_fraction",
                "payroll_fraction", "payroll_width", "audit_sample", "hot_fraction", "seed",
            ),
            "btree": (
                "indexes", "transactions", "operations_per_transaction", "key_space",
                "initial_keys", "degree", "read_fraction", "scan_fraction", "seed",
            ),
            "hotspot": (
                "transactions", "hot_objects", "cold_objects", "operations_per_transaction",
                "hot_probability", "use_service_layer", "seed",
            ),
            "mixed": (
                "customers", "catalogue_items", "transactions", "order_fraction",
                "restock_fraction", "price_range", "initial_balance", "seed",
            ),
            "order-processing": (
                "customers", "items", "transactions", "order_fraction", "fulfil_fraction",
                "restock_fraction", "skew", "price", "initial_balance", "initial_stock", "seed",
            ),
            "queue": (
                "queues", "producers", "consumers", "items_per_transaction", "initial_depth",
                "seed",
            ),
            "random-ops": (
                "registers", "transactions", "operations_per_transaction", "write_fraction",
                "nesting_depth", "parallel_fanout", "seed",
            ),
            "zipf": ("transactions", "objects", "operations_per_transaction", "skew", "seed"),
            "stream": ("inner", *_STREAM),
            **{
                f"{inner}-stream": _STREAM
                for inner in (
                    "banking", "btree", "hotspot", "mixed", "order-processing", "queue",
                    "random-ops", "zipf",
                )
            },
        },
        "INTRA_STRATEGIES": {
            "locking": (),
            "timestamp": (),
            "certifier": (),
            "btree-key-locking": (),
            "pass-through": (),
        },
    }

    ENTRY_POINTS = {
        SimulationEngine: (
            "object_base", "scheduler", "seed", "max_restarts", "max_ticks",
            "record_trace", "gc_interval", "certify", "fault_plan",
        ),
        ShardedEngine: ("spec", "shard_map", "mode", "mp_context", "check_legality"),
        SweepRunner: ("sweep", "workers", "mp_context"),
    }  # fmt: skip

    @staticmethod
    def keywords(factory, supplied=()) -> tuple:
        parameters = inspect.signature(factory).parameters
        return tuple(name for name in parameters if name not in supplied)

    @pytest.mark.parametrize("registry", sorted(CENSUS))
    def test_registry_entries(self, registry):
        table = getattr(repro, registry)
        supplied = _INTRA_CONSTRUCTION if registry == "INTRA_STRATEGIES" else ()
        census = {name: self.keywords(table[name], supplied) for name in table}
        assert census == self.CENSUS[registry]

    @pytest.mark.parametrize("entry_point", ENTRY_POINTS, ids=lambda cls: cls.__name__)
    def test_entry_points(self, entry_point):
        assert self.keywords(entry_point) == self.ENTRY_POINTS[entry_point]
