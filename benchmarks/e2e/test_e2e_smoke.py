"""Smoke test of the end-to-end benchmark: every workload, both modes.

Runs ``run.py --smoke`` (tiny op counts, one boot sample) for the four
workloads untraced and traced, two interpreters at a time, and checks the
contract of the result line rather than any timing: the declared metrics
are all there with their units, the run is correct, nothing failed, the
traced lap attributes the submit time, and a seed fixes the script and
every metric whose unit is ``count`` or ``ratio`` (a ratio of two timings
carries the unit ``x``).
"""

from __future__ import annotations

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
FAMILY = {0: "end_to_end", 1: "per_layer"}

#: the workload run a second time with the same seed
REPEATED = "churn_under_traffic"


def _run(workload: str, trace: int, seed: int):
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["details"]


@pytest.fixture(scope="module")
def runs():
    jobs = [(workload, trace, 1) for trace in (0, 1)
            for workload in WORKLOADS]
    jobs.append((REPEATED, 1, 1))
    with ThreadPoolExecutor(max_workers=2) as pool:
        outcomes = list(pool.map(lambda job: _run(*job), jobs))
    return dict(zip(jobs[:-1], outcomes)), outcomes[-1]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_meets_the_contract(runs, workload, trace):
    result, details = runs[0][(workload, trace, 1)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in SPEC[FAMILY[trace]]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == declared
    assert result["correct"] is True, details["errors"]
    assert result["failed"] == 0 and details["failures"] == {}
    assert result["attempted"] >= 1
    assert len(details["script_sha256"]) == 64
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif workload.startswith("deploy_"):
        # full-size runs with the box to themselves read 0.03 and 0.08 here,
        # and the README wants new spans above 0.10.  In this test two
        # interpreters share two cores, every thread hand-off wakes up late
        # and the lateness lands in the containers: the check is that they
        # decompose at all (a span that stops nesting reads 0.5 and more).
        assert result["metrics"]["harness.unattributed_ratio"]["value"] <= 0.25


def test_layers_read_as_the_workloads_intend(runs):
    def layer(workload, name):
        return runs[0][(workload, 1, 1)][0]["metrics"][name]["value"]

    assert layer("deploy_cold", "core.cache.program_hit_ratio") == 0.0
    assert layer("deploy_warm", "core.cache.program_hit_ratio") >= 0.95
    assert layer("deploy_warm", "placement.memo_hit_ratio") >= 0.95
    assert layer("deploy_warm", "frontend.compile_ms") == 0.0
    assert layer("traffic_steady", "emulator.kernel_bails") == 0
    assert layer("traffic_steady", "emulator.fallback_packet_ratio") == 0.0
    assert layer("churn_under_traffic", "emulator.kernel_bails") > 0
    assert layer("churn_under_traffic", "gateway.update_p50_ms") > 0.0


def test_a_seed_fixes_the_script_and_every_count(runs):
    from benchmarks.e2e import scripts

    first, again = runs[0][(REPEATED, 1, 1)], runs[1]
    assert first[1]["script_sha256"] == again[1]["script_sha256"]
    assert first[1]["script_sha256"] != scripts.build(
        REPEATED, 2, first[1]["seconds"], smoke=True)["sha256"]
    assert first[0]["attempted"] == again[0]["attempted"]
    for name, metric in first[0]["metrics"].items():
        if metric["unit"] in ("count", "ratio"):
            assert again[0]["metrics"][name]["value"] == metric["value"], name
