"""Reference validation for :class:`repro.scheduler.OptimisticCertifier`.

Kept out of ``src/``: production selects pre-classified edges at commit
and never looks at a step pair again.  :class:`ReenumeratingCertifier` is
the implementation that replaced — at every commit request it re-derives
the candidate's precedence edges from scratch, over every retained step
pair on every object, and raises unless the production selection
(``_active_edges``) produced exactly that edge set and owner map.
"""

from __future__ import annotations

import itertools

from repro.core.errors import VerificationError
from repro.scheduler import OptimisticCertifier
from repro.scheduler.base import disjoint_ancestors


class ReenumeratingCertifier(OptimisticCertifier):
    """Cross-checks every commit's edge selection against a full re-enumeration."""

    def _reset(self) -> None:
        super()._reset()
        # Ids whose records were garbage-collected: the re-enumeration can
        # no longer see their steps, so edges against them are excluded
        # from the comparison.
        self._pruned_committed: set[str] = set()
        self.commit_conflict_calls = 0

    def _active_edges(self, candidate_id: str):
        active = super()._active_edges(candidate_id)
        self._check_against_reenumeration(candidate_id, active)
        return active

    def collect_garbage(self) -> int:
        retained = set(self._resolve_seq)
        removed = super().collect_garbage()
        self._pruned_committed |= retained - set(self._resolve_seq)
        return removed

    def _reenumerated_edges(
        self, candidate_id: str
    ) -> tuple[set[tuple[str, str]], dict[str, str]]:
        relevant = self._committed | {candidate_id}
        edges: set[tuple[str, str]] = set()
        owner_of: dict[str, str] = {}
        for object_name in self.object_base.object_names(include_environment=True):
            # Records come in execution order, so each pair is (earlier, later).
            for earlier, later in itertools.combinations(self._steps.on(object_name), 2):
                (earlier_id, (earlier_step, earlier_info)) = earlier
                (later_id, (later_step, later_info)) = later
                if earlier_id not in relevant or later_id not in relevant:
                    continue
                if candidate_id not in (earlier_id, later_id):
                    continue
                self.commit_conflict_calls += 1
                if not self._conflicting(object_name, earlier_step, later_step):
                    continue
                pair = disjoint_ancestors(earlier_info, later_info)
                if pair is None:
                    continue  # comparable executions: no ordering constraint
                edges.add(pair)
                owner_of[pair[0]] = earlier_id
                owner_of[pair[1]] = later_id
        return edges, owner_of

    def _check_against_reenumeration(self, candidate_id: str, active) -> None:
        active = [
            edge for edge in active if edge.other(candidate_id) not in self._pruned_committed
        ]
        expected_edges, expected_owner_of = self._reenumerated_edges(candidate_id)
        selected_edges = {(edge.source, edge.target) for edge in active}
        if selected_edges != expected_edges:
            raise VerificationError(
                f"certifier check: candidate {candidate_id!r} selected edges "
                f"{sorted(selected_edges)!r} != re-enumerated {sorted(expected_edges)!r}"
            )
        owner_of = self._owner_map(active)
        if owner_of != expected_owner_of:
            raise VerificationError(
                f"certifier check: candidate {candidate_id!r} owner map diverges "
                f"({owner_of!r} != {expected_owner_of!r})"
            )
