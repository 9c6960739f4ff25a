"""Every example script runs clean end to end (release smoke tests)."""

import asyncio
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip(), "examples must narrate what they do"


def test_examples_exist():
    names = {p.stem for p in EXAMPLES}
    assert {
        "quickstart",
        "skewed_workload",
        "tuning_explorer",
        "crash_recovery",
        "store_recovery",
        "sharded_store",
        "server_quickstart",
        "cluster_quickstart",
    } <= names


def test_cluster_quickstart_in_process(capsys):
    """The cluster example's entry points, imported and run on the
    shared ``LoopbackCluster`` fixture: the tour, then the campaign."""
    spec = importlib.util.spec_from_file_location(
        "cluster_quickstart", EXAMPLES_DIR / "cluster_quickstart.py"
    )
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    asyncio.run(example.main())
    example.crash_campaign()
    out = capsys.readouterr().out
    assert "acked writes (and the delete) survived" in out
    assert "0 acked writes lost" in out
