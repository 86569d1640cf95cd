"""Post-hoc certification of simulation runs.

The schedulers are proven correct in the paper (Theorems 3 and 4); the
certification layer verifies the same claim *operationally* on every run:
the committed projection of the recorded history must be legal, its
serialisation graph must be acyclic (Theorem 2's sufficient condition) and
the modular conditions of Theorem 5 must hold.  Experiments that disable a
part of the machinery (e.g. the intra-object-only configuration of E4) use
the certification verdicts to count correctness violations.

There is one certifier, :class:`~repro.analysis.streaming.StreamingCertifier`.
:func:`certify_history` feeds it every transaction of a finished history
in commit order and never collects garbage, so its report covers the whole
history (``sg_edges`` included); legality is :meth:`History.check_legal`,
all of Definition 6.
"""

from __future__ import annotations

from dataclasses import replace

from ..core.errors import IllegalHistoryError, ModelError
from ..core.executions import MethodExecution, natural_execution_key
from ..core.history import History
from ..simulation.metrics import RunResult
from .streaming import CertificationReport, StreamingCertifier, Theorem5Report


def _fed_certifier(history: History) -> StreamingCertifier:
    """A certifier that has seen every transaction of ``history`` commit.

    A transaction is an execution forest: an execution whose parent is
    missing from the history (a condition 1 violation) roots a group of its
    own.  Groups commit in the order their last step ends.
    """
    intervals = history.intervals()
    if intervals is None:
        raise ModelError(
            "certification needs an interval-backed history; this one orders its "
            "steps by order pairs"
        )
    executions = history.executions
    groups: dict[str, list[MethodExecution]] = {}
    for execution_id, execution in executions.items():
        root, parent_id, seen = execution_id, execution.parent_id, {execution_id}
        while parent_id in executions:
            if parent_id in seen:
                raise ModelError(f"the ancestry of execution {execution_id!r} is cyclic")
            seen.add(parent_id)
            root, parent_id = parent_id, executions[parent_id].parent_id
        groups.setdefault(root, []).append(execution)
        for step in execution.local_steps():
            if step.step_id not in intervals:
                raise ModelError(f"local step {step.step_id} of {execution_id!r} has no interval")

    stamps = {
        root: max(
            (
                intervals[step_id][1]
                for execution in group
                for step_id in execution.step_ids_iter()
                if step_id in intervals
            ),
            default=0,
        )
        for root, group in groups.items()
    }
    certifier = StreamingCertifier(history.conflicts, history.initial_states)
    for root in sorted(groups, key=lambda root: (stamps[root], natural_execution_key(root))):
        certifier.note_commit(root, groups[root], intervals, resolve_stamp=stamps[root])
    return certifier


def certify_history(history: History, *, check_legality: bool = True) -> CertificationReport:
    """Certify an interval-backed history (assumed already projected to committed work).

    Raises :class:`~repro.core.errors.ModelError` for an order-pair
    history, or one with a local step that has no interval.
    """
    report = _fed_certifier(history).finalise()
    violations = list(report.violations)
    if not report.legal:
        del violations[0]  # the certifier's condition 3 replay; check_legal covers it
    legal = True
    if check_legality:
        try:
            history.check_legal()
        except IllegalHistoryError as error:
            legal = False
            violations.insert(0, f"legality: {error}")
    return replace(report, legal=legal, violations=violations)


def certify_run(result: RunResult, *, check_legality: bool = True) -> CertificationReport:
    """Certify the committed projection of a simulation run."""
    return certify_history(result.committed_history(), check_legality=check_legality)


def theorem_5_conditions(history: History) -> Theorem5Report:
    """Conditions (a) and (b) of Theorem 5, as the certifier evaluates them.

    (a) for every object ``o``, ``SG_local(h, o) union SG_mesg(h, o)`` is
    acyclic; (b) for every execution ``e`` the message relation ``->_e`` is
    acyclic.  When both hold the history is serialisable.
    """
    certifier = _fed_certifier(history)
    certifier.finalise()
    return certifier.theorem5
