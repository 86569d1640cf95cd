"""Unit tests for the object-base runtime (objects, methods, environment)."""

import pytest

from repro.core import ENVIRONMENT_OBJECT, ConservativeConflictSpec, ObjectState
from repro.core.errors import ModelError, UnknownMethodError, UnknownObjectError
from repro.objectbase import (
    MethodDefinition,
    ObjectBase,
    ObjectDefinition,
    build_object_base,
    single_operation_method,
)
from repro.objectbase.adts import counter_definition, register_definition
from repro.objectbase.adts.register import ReadRegister


class TestObjectDefinition:
    def test_initial_state_coerced_to_object_state(self):
        definition = ObjectDefinition("A", {"x": 1})
        assert isinstance(definition.initial_state, ObjectState)
        assert definition.initial_state["x"] == 1

    def test_conflicts_default_to_conservative(self):
        definition = ObjectDefinition("A")
        assert isinstance(definition.conflicts("operation"), ConservativeConflictSpec)
        # Without a step-level spec, the operation-level spec is reused.
        assert definition.conflicts("step") is definition.conflicts("operation")

    def test_unknown_conflict_level_rejected(self):
        with pytest.raises(ModelError):
            ObjectDefinition("A").conflicts("bogus")

    def test_add_and_lookup_method(self):
        definition = ObjectDefinition("A")
        method = MethodDefinition("noop", lambda ctx: iter(()))
        definition.add_method(method)
        assert definition.method("noop") is method

    def test_duplicate_method_rejected(self):
        definition = ObjectDefinition("A")
        definition.add_method(MethodDefinition("noop", lambda ctx: iter(())))
        with pytest.raises(ModelError):
            definition.add_method(MethodDefinition("noop", lambda ctx: iter(())))

    def test_unknown_method_raises(self):
        with pytest.raises(UnknownMethodError):
            ObjectDefinition("A").method("missing")


class TestObjectBase:
    def test_environment_always_present(self):
        base = ObjectBase()
        assert ENVIRONMENT_OBJECT in base
        assert base.environment.name == ENVIRONMENT_OBJECT
        assert len(base) == 0  # the environment is not counted

    def test_register_and_lookup(self):
        base = ObjectBase()
        definition = register_definition("cell")
        base.register(definition)
        assert base.definition("cell") is definition
        assert "cell" in base
        assert base.object_names() == ["cell"]
        assert len(base) == 1

    def test_duplicate_registration_rejected(self):
        base = ObjectBase()
        base.register(register_definition("cell"))
        with pytest.raises(ModelError):
            base.register(register_definition("cell"))

    def test_unknown_object_raises(self):
        with pytest.raises(UnknownObjectError):
            ObjectBase().definition("missing")

    def test_register_transaction_attaches_to_environment(self):
        base = ObjectBase()

        def body(ctx):
            yield ctx.invoke("cell", "read")

        base.register_transaction(MethodDefinition("peek", body))
        assert base.environment.method("peek").name == "peek"
        assert base.method(ENVIRONMENT_OBJECT, "peek").body is body

    def test_initial_states_cover_all_objects(self):
        base = ObjectBase()
        base.register(register_definition("cell", 7))
        base.register(counter_definition("hits", 3))
        states = base.initial_states()
        assert states["cell"]["value"] == 7
        assert states["hits"]["count"] == 3
        assert ENVIRONMENT_OBJECT in states

    def test_conflict_registry_uses_per_object_specs(self):
        base = ObjectBase()
        base.register(register_definition("cell"))
        registry = base.conflicts("operation")
        assert not registry["cell"].operations_conflict(ReadRegister(), ReadRegister())
        # unknown objects fall back to the conservative default
        assert registry["unknown"].operations_conflict(ReadRegister(), ReadRegister())

    def test_describe_summarises_objects(self):
        base = ObjectBase()
        base.register(register_definition("cell"))
        summary = base.describe()
        assert summary["cell"]["methods"] == ["read", "write"]
        assert summary["cell"]["variables"] == ["value"]

    def test_build_object_base_from_list_and_mapping(self):
        definitions = [register_definition("a"), register_definition("b")]
        base = build_object_base(definitions)
        assert base.object_names() == ["a", "b"]
        base_from_mapping = build_object_base({d.name: d for d in definitions[:1]})
        assert base_from_mapping.object_names() == ["a"]


class TestSingleOperationMethod:
    def test_body_yields_one_local_request(self):
        method = single_operation_method("read", ReadRegister)

        class FakeContext:
            def local(self, operation):
                return ("local", operation)

        generator = method.body(FakeContext())
        kind, operation = next(generator)
        assert kind == "local"
        assert isinstance(operation, ReadRegister)
        with pytest.raises(StopIteration) as stop:
            generator.send(42)
        assert stop.value.value == 42
