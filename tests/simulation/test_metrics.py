"""``RunMetrics``: one field list, with ``as_dict`` and the shard merge derived from it."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields

import pytest

from repro.simulation.metrics import RunMetrics, merge_run_metrics

#: The keys ``as_dict`` reported when they were still listed by hand.
AS_DICT_KEYS = {
    "total_ticks", "decisions", "committed", "aborted_attempts", "gave_up",
    "restarts", "delayed_restarts", "restart_delay_ticks", "local_steps",
    "wasted_steps", "blocked_ticks", "invocations", "remote_invocations",
    "submitted", "parks", "wakes", "forced_wakes", "commit_parks", "wait_ticks",
    "commit_wait_ticks", "arrived", "in_flight_peak", "mean_latency",
    "latency_max", "live_state_peak", "live_state_ratio_peak",
    "live_state_samples", "live_state_per_in_flight", "throughput",
    "commit_rate", "abort_rate", "blocked_fraction", "wasted_fraction",
    "aborts_by_reason", "faults_injected",
}

#: Fields the fleet takes the maximum of; every other number adds.
MAXIMA = {"total_ticks", "latency_max", "live_state_ratio_peak"}


def populated(offset: int) -> RunMetrics:
    """Every numeric field set to a distinct value, shifted by ``offset``."""
    metrics = RunMetrics()
    for position, spec in enumerate(fields(RunMetrics)):
        if spec.name != "aborts_by_reason":
            setattr(metrics, spec.name, position + offset)
    metrics.aborts_by_reason.update({"deadlock": 1 + offset, "fault": offset})
    return metrics


def test_as_dict_lists_the_fields_and_the_derived_quantities():
    metrics = populated(3)
    data = metrics.as_dict()
    assert set(data) == AS_DICT_KEYS
    for key in AS_DICT_KEYS - {"aborts_by_reason"}:
        assert data[key] == getattr(metrics, key)
    assert data["aborts_by_reason"] == {"deadlock": 4, "fault": 3}
    assert type(data["aborts_by_reason"]) is dict


def test_merge_adds_counters_and_takes_the_worst_clock_and_ratio():
    first, second = populated(0), populated(100)
    merged = merge_run_metrics([first, second])
    for spec in fields(RunMetrics):
        ours, theirs = getattr(first, spec.name), getattr(second, spec.name)
        if spec.name == "aborts_by_reason":
            # Counter.update, not ``+``: a zero count is kept.
            assert merged.aborts_by_reason == Counter({"deadlock": 102, "fault": 100})
            assert "fault" in merged.aborts_by_reason
        elif spec.name in MAXIMA:
            assert getattr(merged, spec.name) == max(ours, theirs), spec.name
        else:
            assert getattr(merged, spec.name) == ours + theirs, spec.name
    assert merge_run_metrics([]) == RunMetrics()


def test_a_field_without_a_merge_rule_fails_loudly():
    @dataclass
    class Extended(RunMetrics):
        lost_wakeups: int = 0  # declared without _metric(...): no rule

    with pytest.raises(TypeError, match="Extended.lost_wakeups declares no merge rule"):
        merge_run_metrics([Extended(), Extended()])
    # ...while as_dict picks a new field up rather than dropping it.
    assert Extended(lost_wakeups=2).as_dict()["lost_wakeups"] == 2
