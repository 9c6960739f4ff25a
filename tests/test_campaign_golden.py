"""Golden digests of the crash campaigns' full reports.

The campaigns are deterministic in (config, seed), so the sha256 of a
report's ``as_dict()`` pins every schedule explored, every crash site
chosen, every counter absorbed and every verdict. The digests below were
computed at the commit before the four single-node schedules and the
cluster schedule were folded onto one skeleton (PR 20's tree); a
refactor of the harness must reproduce them untouched.

The coverage asserts make the digest mean something: the pinned
campaigns between them tear a WAL append, cut a run write short, crash
all five ``tuning.*`` points and all eight ``cluster.*`` points — so
every drive function contributes to a pinned report.
"""

import hashlib
import json

import pytest

from repro.cluster import ClusterFaultcheckConfig, run_cluster_faultcheck
from repro.cluster.faultcheck import CLUSTER_POINTS
from repro.faults import FaultcheckConfig, run_faultcheck

SINGLE_NODE = {
    ("leveled", 1, "chucky"):
        "8f4ae11313fd636df2909444abf600a86c9644524c63c75e0f59c1e1cf32a2c8",
    ("tiered", 4, "chucky"):
        "c9d9e29c0a43e3596a02532932da7f060d3e654bc873744bde1eae0cb1af70b3",
    ("lazy", 1, "bloom"):
        "5a25da0b233dcd504bfd1845cb39e8519e743d6dc1321872500e57a2fb13a14a",
    ("leveled", 1, "chucky-uncompressed"):
        "80ffb9d8f74bd6cf7ab44e4a9745e4f6633ce52e6d8977afb35bce31da7eb89b",
}
CLUSTER = "b38645e496cd409dbf9290d47631d5ee1863a6c1fb491f158dd60f91be61eabc"

TUNING_POINTS = {
    "tuning.migrate.before_build",
    "tuning.migrate.mid_build",
    "tuning.migrate.before_swap",
    "tuning.migrate.after_swap",
    "tuning.switch.before_commit",
}


def digest(report) -> str:
    text = json.dumps(report.as_dict(), sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("preset,shards,policy", sorted(SINGLE_NODE))
def test_single_node_campaign_matches_parent(preset, shards, policy):
    report = run_faultcheck(
        FaultcheckConfig(seeds=6, shards=shards, preset=preset, policy=policy)
    )
    data = report.as_dict()
    assert data["ok"], data["violations"]
    assert data["torn_wal_appends"] > 0
    assert data["partial_run_writes"] > 0
    assert TUNING_POINTS <= set(data["crash_points_seen"])
    kinds = {r["schedule"].split()[0] for r in data["results"]}
    assert {"trace", "group-commit", "migration"} <= kinds
    assert digest(report) == SINGLE_NODE[preset, shards, policy]


def test_cluster_campaign_matches_parent():
    report = run_cluster_faultcheck(ClusterFaultcheckConfig(seeds=8))
    data = report.as_dict()
    assert data["ok"], data["violations"]
    crashed = {r["point"] for r in data["results"] if r["crashed"]}
    assert crashed == set(CLUSTER_POINTS)
    assert digest(report) == CLUSTER
