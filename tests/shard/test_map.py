"""ShardMap: placement determinism, routing, validation, JSON round-trip."""

from __future__ import annotations

import zlib

import pytest

from repro.core.errors import ModelError
from repro.shard import ShardMap
from repro.simulation.transactions import TransactionSpec

NAMES = frozenset({"hot-0", "hot-1", "cold-000", "cold-001", "cold-002"})


class TestPlacement:
    def test_default_placement_is_crc32(self):
        shard_map = ShardMap(shards=4)
        for name in NAMES:
            assert shard_map.shard_of(name) == zlib.crc32(name.encode()) % 4

    def test_explicit_assignment_overrides_hash(self):
        shard_map = ShardMap(shards=4, assignment={"hot-0": 3})
        assert shard_map.shard_of("hot-0") == 3

    def test_single_shard_owns_everything(self):
        shard_map = ShardMap(shards=1)
        assert all(shard_map.shard_of(name) == 0 for name in NAMES)

    def test_placement_routes_every_name_to_a_shard(self):
        shard_map = ShardMap(shards=3)
        placement = shard_map.placement(NAMES)
        assert set(placement) == NAMES
        assert set(placement.values()) <= {0, 1, 2}


class TestRouting:
    def test_spec_objects_walks_nested_arguments(self):
        shard_map = ShardMap(shards=2)
        spec = TransactionSpec("update", (["hot-0", "unknown"], {"key": "cold-001"}, 7))
        assert shard_map.spec_objects(spec, NAMES) == ["hot-0", "cold-001"]

    def test_home_is_first_routable_name(self):
        shard_map = ShardMap(shards=2, assignment={"hot-0": 1, "cold-000": 0})
        spec = TransactionSpec("update", (("hot-0", "cold-000"), 1))
        assert shard_map.route(spec, shard_map.placement(NAMES))[0] == 1

    def test_no_names_routes_to_shard_zero_and_is_local(self):
        shard_map = ShardMap(shards=4)
        spec = TransactionSpec("noop", (42,))
        assert shard_map.route(spec, shard_map.placement(NAMES)) == (0, False)

    def test_is_cross_iff_names_span_shards(self):
        shard_map = ShardMap(shards=2, assignment={"hot-0": 0, "hot-1": 1, "cold-000": 0})
        local = TransactionSpec("update", (("hot-0", "cold-000"), 1))
        cross = TransactionSpec("update", (("hot-0", "hot-1"), 1))
        placement = shard_map.placement(NAMES)
        assert shard_map.route(local, placement) == (0, False)
        assert shard_map.route(cross, placement) == (0, True)


class TestValidation:
    def test_rejects_zero_shards(self):
        with pytest.raises(ModelError):
            ShardMap(shards=0)

    def test_rejects_out_of_range_assignment(self):
        with pytest.raises(ModelError):
            ShardMap(shards=2, assignment={"hot-0": 2})

    def test_rejects_non_int_assignment(self):
        with pytest.raises(ModelError):
            ShardMap(shards=2, assignment={"hot-0": "1"})

    def test_rejects_unknown_json_fields(self):
        with pytest.raises(ModelError):
            ShardMap.from_json_dict({"shards": 2, "placement": "range"})


class TestJsonRoundTrip:
    def test_round_trip_preserves_routing(self):
        original = ShardMap(shards=3, assignment={"hot-0": 2, "cold-001": 0})
        rebuilt = ShardMap.from_json(original.to_json())
        assert rebuilt == original
        assert all(rebuilt.shard_of(name) == original.shard_of(name) for name in NAMES)

    def test_json_dict_is_canonical(self):
        shard_map = ShardMap(shards=2, assignment={"b": 1, "a": 0})
        data = shard_map.to_json_dict()
        assert list(data["assignment"]) == ["a", "b"]
