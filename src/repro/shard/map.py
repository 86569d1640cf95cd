"""Declarative partitioning of the object space across shards.

A :class:`ShardMap` is to the sharded engine what a
:class:`~repro.sweep.spec.ScenarioSpec` is to a sweep: a small, eagerly
validated, JSON-canonical value object.  It answers exactly one question
— *which shard owns this object name?* — and it answers it as a pure
function of its fields, so every process that holds an equal map routes
identically.  That purity is what lets the multiprocess transport ship a
map to each worker as plain JSON and still guarantee bit-identical
behaviour with the in-process oracle.

The default placement hashes the object name with CRC-32 (a stable,
platform-independent digest — ``hash()`` is salted per process and would
destroy cross-process determinism).  Explicit ``assignment`` overrides
pin chosen objects to chosen shards, which experiments use to construct
known-local and known-cross workloads.

Transactions are routed by the object names found in their argument
lists: the first routable name picks the *home* shard (where the
transaction body runs) and any name owned elsewhere marks the
transaction as *cross-shard* (its remote invocations will travel through
the inter-shard coordinator).  Transactions naming no objects run on
shard 0.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Any, Collection, Iterable, Mapping

from ..core.errors import ModelError
from ..simulation.transactions import TransactionSpec

__all__ = ["ShardMap"]


def _stable_shard(name: str, shards: int) -> int:
    return zlib.crc32(name.encode("utf-8")) % shards


def _named_objects(value: Any, names: Collection[str], found: list[str]) -> list[str]:
    """``found`` plus every string in ``value`` that is one of ``names``."""
    if isinstance(value, str):
        if value in names:
            found.append(value)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _named_objects(item, names, found)
    elif isinstance(value, Mapping):
        for key, item in value.items():
            _named_objects(key, names, found)
            _named_objects(item, names, found)
    return found


@dataclass(frozen=True)
class ShardMap:
    """Assigns every object name to exactly one of ``shards`` shards.

    Attributes:
        shards: number of shards (>= 1).
        assignment: explicit ``object name -> shard index`` overrides;
            names absent from the mapping fall back to the CRC-32 hash
            placement.
    """

    shards: int
    assignment: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", dict(self.assignment))
        self.validate()

    def validate(self) -> None:
        if not isinstance(self.shards, int) or isinstance(self.shards, bool):
            raise ModelError(f"shards must be an int, got {self.shards!r}")
        if self.shards < 1:
            raise ModelError(f"shards must be >= 1, got {self.shards}")
        for name, index in self.assignment.items():
            if not isinstance(name, str) or not name:
                raise ModelError(f"assignment keys must be object names, got {name!r}")
            if not isinstance(index, int) or isinstance(index, bool):
                raise ModelError(f"assignment[{name!r}] must be an int, got {index!r}")
            if not 0 <= index < self.shards:
                raise ModelError(
                    f"assignment[{name!r}] = {index} outside 0..{self.shards - 1}"
                )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_of(self, object_name: str) -> int:
        """The shard that owns ``object_name``."""
        explicit = self.assignment.get(object_name)
        if explicit is not None:
            return explicit
        return _stable_shard(object_name, self.shards)

    def spec_objects(self, spec: TransactionSpec, names: Collection[str]) -> list[str]:
        """Object names referenced by a transaction spec's arguments.

        Walks the argument structure (strings, sequences, mappings) and
        collects, in encounter order, every value that is a known object
        name.  This is the routing oracle: it sees exactly the same
        argument values in every process, so home/cross classification is
        a pure function of (spec, map).
        """
        return _named_objects(spec.arguments, names, [])

    def placement(self, object_names: Iterable[str]) -> dict[str, int]:
        """``object name -> shard`` for ``object_names``: a routing table."""
        return {name: self.shard_of(name) for name in object_names}

    def route(self, spec: TransactionSpec, placement: Mapping[str, int]) -> tuple[int, bool]:
        """``(home, cross)`` of a spec, in one walk of its arguments.

        ``placement`` is a :meth:`placement` table over the known object
        names; the home is the first routable name's shard (0 if none).
        """
        if self.shards == 1:
            return 0, False
        shards = [placement[name] for name in self.spec_objects(spec, placement)]
        if not shards:
            return 0, False
        return shards[0], shards.count(shards[0]) != len(shards)

    # ------------------------------------------------------------------
    # JSON canonical form
    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict[str, Any]:
        return {
            "shards": self.shards,
            "assignment": {name: self.assignment[name] for name in sorted(self.assignment)},
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "ShardMap":
        known = {"shards", "assignment"}
        unknown = set(data) - known
        if unknown:
            raise ModelError(f"unknown ShardMap fields: {sorted(unknown)}")
        if "shards" not in data:
            raise ModelError("ShardMap JSON requires a 'shards' field")
        return cls(shards=data["shards"], assignment=dict(data.get("assignment", {})))

    def to_json(self, **dumps_kwargs: Any) -> str:
        dumps_kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_json_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ShardMap":
        return cls.from_json_dict(json.loads(text))
