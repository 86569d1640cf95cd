"""Sharded execution: partitioned object space, per-shard schedulers.

The paper's modularity theorem applied one level up: each shard runs a
complete scheduler over its slice of the object base, and the
:class:`InterShardCoordinator` arbitrates only the transactions that
cross shards.  See ``DESIGN.md`` ("Sharded execution") for the
barrier rule, its determinism argument and the commit protocol.
"""

from ..core.registry import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        ".coordinator": ("InterShardCoordinator", "ShardReport", "ShardStepTracker"),
        ".engine": ("ShardOutcome", "ShardedEngine", "ShardedRunResult"),
        ".map": ("ShardMap",),
        ".worker": ("ShardWorker",),
    },
)
