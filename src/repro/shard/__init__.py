"""Sharded execution: partitioned object space, per-shard schedulers.

The paper's modularity theorem applied one level up: each shard runs a
complete scheduler over its slice of the object base, and the
:class:`InterShardCoordinator` arbitrates only the transactions that
cross shards.  See ``DESIGN.md`` ("Sharded execution") for the
barrier rule, its determinism argument and the commit protocol.
"""

from .coordinator import InterShardCoordinator, ShardReport, ShardStepTracker
from .engine import (
    ShardOutcome,
    ShardWorker,
    ShardedEngine,
    ShardedRunResult,
)
from .map import ShardMap

__all__ = [
    "InterShardCoordinator",
    "ShardMap",
    "ShardOutcome",
    "ShardReport",
    "ShardStepTracker",
    "ShardWorker",
    "ShardedEngine",
    "ShardedRunResult",
]
