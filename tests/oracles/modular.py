"""The modular scheduler with the full inter-object check on every step.

Kept out of ``src/``: production never runs it.  When every object runs
strict locking, :class:`repro.scheduler.modular.ModularScheduler` marks
its coordinator commit-ordered and compares a step only with its own
transaction's earlier steps, skipping the commit gate (DESIGN.md,
"Commit-ordered objects").  :class:`FullCheckModularScheduler` never sets
the mark, so every step is compared with every recorded step of its
object and passes the gate, as before the mark existed.  Run on the same
scenario, the two must make every decision alike
(``tests/scheduler/test_commit_ordered.py``).

:func:`disjoint_ancestors_by_chains` is
:func:`repro.core.waits.disjoint_ancestors` before it returned the top
levels of two transactions without walking their chains; a property
test holds the two equal (``tests/scheduler/test_modular.py``).
"""

from __future__ import annotations

from repro.scheduler.base import ExecutionInfo
from repro.scheduler.modular import ModularScheduler


class FullCheckModularScheduler(ModularScheduler):
    """Always runs the cross-transaction check and the commit gate."""

    def _commit_ordered(self) -> bool:
        return False


def disjoint_ancestors_by_chains(
    first: ExecutionInfo, second: ExecutionInfo
) -> tuple[str, str] | None:
    """The children of the least common ancestor on each side, or top levels, by chain walk."""
    first_chain = (first.execution_id,) + first.ancestor_ids
    second_chain = (second.execution_id,) + second.ancestor_ids
    if first.execution_id in second_chain or second.execution_id in first_chain:
        return None
    second_set = set(second_chain)
    common = next((ancestor for ancestor in first_chain if ancestor in second_set), None)
    if common is None:
        return first.top_level_id, second.top_level_id
    first_side = first_chain[first_chain.index(common) - 1]
    second_side = second_chain[second_chain.index(common) - 1]
    return first_side, second_side
