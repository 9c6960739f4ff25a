"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e``; not
collected by tier-1, whose ``testpaths`` is ``tests``).

Every workload runs once untraced and once traced at 1 % scale with a
zero time budget (so each runs exactly its counted slices) and must emit
exactly the metric names and units ``BENCHMARK.json`` declares; a run
whose model was corrupted on purpose must fail.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    command = [
        sys.executable, *MANIFEST["command"][1:],
        "--workload", workload, "--seed", "1", "--seconds", "0",
        "--trace", str(trace), "--scale", "0.01", *extra,
    ]
    return subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=170
    )


def test_manifest_names_are_well_formed():
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in MANIFEST[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in MANIFEST["end_to_end"]
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_exactly_the_declared_metrics(workload, trace):
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr + done.stdout[-400:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_corrupted_model_fails_the_run(workload):
    done = run(workload, 0, "--inject-fault")
    assert done.returncode != 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
