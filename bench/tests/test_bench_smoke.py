"""Smoke test of the benchmark harness itself (``pytest bench/tests``).

Outside tier-1's ``testpaths`` on purpose: it spawns the benchmark at
``--scale 0.02`` and checks the harness, not the program under test.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from bench import metrics, onepass
from bench.run import OUT, ROOT
from bench.workloads import WORKLOADS

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*flags: str) -> dict[str, dict]:
    done = subprocess.run(
        [sys.executable, "-m", "bench.run", "--scale", "0.02", *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )  # fmt: skip
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    lines = [json.loads(line) for line in done.stdout.splitlines()[-len(WORKLOADS):]]
    return {line["workload"]: line for line in lines}


@pytest.fixture(scope="module")
def untraced() -> dict[str, dict]:
    return _run("--repeats", "3")


@pytest.fixture(scope="module")
def traced() -> dict[str, dict]:
    return _run("--trace", "1", "--repeats", "1")


def test_declaration_is_within_the_contract():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert DECLARED["paths"] == ["bench"]
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in DECLARED[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 <= entry["bound"] <= 0.25 for entry in DECLARED["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        entry for entry in DECLARED["end_to_end"] if entry["name"] == "setup_s"
    ).items()


def test_declaration_matches_the_code():
    assert [(w["name"], w["why"]) for w in DECLARED["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in DECLARED["end_to_end"]
    ] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in DECLARED["per_layer"]] == list(
        metrics.PER_LAYER
    )


@pytest.mark.parametrize("section", ["end_to_end", "per_layer"])
def test_every_declared_metric_is_printed(section, untraced, traced):
    results = untraced if section == "end_to_end" else traced
    assert list(results) == [w["name"] for w in DECLARED["workloads"]]
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    for result in results.values():
        assert set(result) == {
            "workload", "correct", "attempted", "failed", "metrics", "comparable"
        }  # fmt: skip
        assert result["correct"] is True and result["comparable"] is False
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_layers_separate(traced):
    def layer(workload, prefix):
        values = traced[workload]["metrics"]
        return {name: m["value"] for name, m in values.items() if name.startswith(prefix)}

    for name in WORKLOADS:
        sharded = name == "hotspot-stream-2shard-nto"
        assert any(layer(name, "shard.").values()) == sharded
    assert layer("banking-closed-certifier", "analysis.certify.wall_share").popitem()[1] > 0.5
    assert not any(layer("zipf-stream-modular", "analysis.certify.").values())
    assert not any(layer("banking-closed-certifier", "analysis.streaming.").values())


def test_self_times_sum_to_the_run_span(traced):
    for name in WORKLOADS:
        trace = json.loads((OUT / f"trace-{name}.json").read_text(encoding="utf-8"))
        assert all(span["workload"] == name for span in trace["spans"])
        for phase in ("harness.run", "harness.summarise"):
            (root,) = [s for s in trace["spans"] if s["name"] == phase and s["parent"] is None]
            self_ns = sum(entry["self_ns"] for entry in trace["phases"][phase].values())
            assert self_ns == root["end_ns"] - root["start_ns"]


def test_wrappers_are_gone_after_a_traced_pass(capsys, tmp_path):
    from repro.core.history import HistoryBuilder

    original = vars(HistoryBuilder)["record_local"]
    arguments = ["--workload", "zipf-stream-modular", "--seed", "12", "--scale", "0.01"]
    assert onepass.main([*arguments, "--kind", "traced", "--trace-out", str(tmp_path / "t.json")]) == 0
    traced_pass = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert vars(HistoryBuilder)["record_local"] is original
    assert traced_pass["phases"]["harness.run"]["core.history.record_local"][0] > 0
    # Tracing perturbs no decision.
    assert onepass.main([*arguments, "--kind", "timed"]) == 0
    timed_pass = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert timed_pass["exact"] == traced_pass["exact"]
    assert "core.history.record_local" not in timed_pass["phases"]["harness.run"]
