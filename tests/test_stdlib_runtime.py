"""The runtime imports nothing outside the standard library.

A fresh interpreter imports every ``repro.*`` module, then builds and
writes one store under each registered filter policy. Nothing it loads
on the way may come from a third-party distribution — numpy above all,
whose import alone costs 11–14 MiB of RSS.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent

PROBE = """
import importlib, json, pkgutil, sys

before = set(sys.modules)
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    # ``python -m repro`` runs the CLI on import; repro.cli is walked.
    if not info.name.endswith(".__main__"):
        importlib.import_module(info.name)

from repro.engine import EngineConfig, build_store
from repro.filters.policy import available_policies

for name in available_policies():
    store = build_store(EngineConfig(buffer_entries=16, policy=name))
    for key in range(200):
        store.put(key, key)
    assert store.get(7) == 7 and store.get(1000) is None, name

roots = {m.partition(".")[0] for m in set(sys.modules) - before}
print(json.dumps({
    "policies": available_policies(),
    "numpy": "numpy" in sys.modules,
    "foreign": sorted(roots - set(sys.stdlib_module_names) - {"repro"}),
}))
"""


def test_every_module_and_policy_runs_on_the_standard_library_alone():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert "bloom" in report["policies"]
    assert not report["numpy"]
    assert report["foreign"] == []
