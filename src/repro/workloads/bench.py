"""The canonical engine benchmark suite behind ``repro bench``.

A small fixed matrix — uniform / zipf / ycsb-b point+scan mixes over
the leveled and tiered presets — each case run on a fresh store with a
deterministic seed, reporting the three currencies the repo measures
everything in:

* **throughput** — real wall-clock ops/s of the Python engine (noisy,
  machine-dependent, still useful for relative movement);
* **counted I/Os per op** — the reproducible quantity (storage reads /
  writes / memory I/Os per operation from snapshot diffs);
* **modelled latency** — the counted I/Os priced by the store's
  :class:`~repro.common.cost.CostModel`, plus nearest-rank wall-clock
  percentiles per op.

``BENCH_core.json`` is the artifact future PRs diff against to make
adaptive-vs-static (and any engine change) measurable over time.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from dataclasses import dataclass
from typing import Any

from repro.common.quantile import nearest_rank
from repro.engine.config import EngineConfig, build_store
from repro.workloads.generators import request_stream
from repro.workloads.ops import Op, apply


def host_fingerprint() -> dict[str, Any]:
    """Identify the machine a bench artifact was produced on.

    Counted I/Os are machine-independent, but the wall-clock metrics in
    the same artifact are not — ``repro benchdiff`` compares this
    fingerprint and demotes wall-band violations to warnings when the
    baseline came from different hardware.
    """
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python_version": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
    }


#: Wall-clock metrics of one case row, re-aggregated under ``--repeat``.
_WALL_PERCENTILES = ("p50", "p95", "p99", "mean")


def _median_wall(rows: list[dict[str, Any]]) -> dict[str, Any]:
    """Fold repeated runs of one case into a single row.

    Counted quantities are deterministic — identical in every run, so
    the first run's values stand. Wall-clock metrics are per-run noise;
    the median across runs replaces them.
    """
    row = dict(rows[0])
    row["wall_s"] = round(statistics.median(r["wall_s"] for r in rows), 4)
    row["throughput_ops_per_s"] = round(
        statistics.median(r["throughput_ops_per_s"] for r in rows), 1
    )
    row["wall_latency_us"] = {
        name: statistics.median(r["wall_latency_us"][name] for r in rows)
        for name in _WALL_PERCENTILES
    }
    return row

#: The canonical case matrix: every workload kind over both presets —
#: the point/scan mixes, the full YCSB A–F family, and delete-heavy
#: churn. Baselines are pinned additively: the original six cases'
#: counted I/Os are untouched by the matrix growing around them.
CANONICAL_CASES: tuple[tuple[str, str], ...] = tuple(
    (preset, workload)
    for preset in ("leveled", "tiered")
    for workload in (
        "uniform", "zipf",
        "ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d", "ycsb-e", "ycsb-f",
        "churn",
    )
)


@dataclass(frozen=True)
class BenchCase:
    """One benchmark cell: a merge preset (a key of
    :data:`repro.lsm.config.PRESETS`), a workload, and its mix."""

    preset: str
    workload: str
    read_fraction: float = 0.95
    #: Issue one short range scan every N point ops (0 = no scans).
    scan_every: int = 50
    scan_width: int = 32


def default_cases() -> list[BenchCase]:
    return [BenchCase(preset=p, workload=w) for p, w in CANONICAL_CASES]


def run_case(
    case: BenchCase,
    ops: int = 2000,
    preload: int = 500,
    seed: int = 0,
    policy: str = "chucky",
    bits_per_entry: float = 10.0,
) -> dict[str, Any]:
    """Run one case on a fresh store; returns its JSON-ready row."""
    config = EngineConfig.preset(
        case.preset,
        size_ratio=4,
        buffer_entries=64,
        block_entries=16,
        cache_blocks=64,
        policy=policy,
        bits_per_entry=bits_per_entry,
    )
    store = build_store(config)
    keys = list(range(preload))
    for key in keys:
        store.put(key, f"v{key}")
    store.flush()

    wall_us: list[float] = []
    snap = store.snapshot()
    requests = request_stream(
        case.workload, keys, ops, read_fraction=case.read_fraction, seed=seed
    )
    scans = 0
    start = time.perf_counter()
    for index, (kind, key) in enumerate(requests):
        op_start = time.perf_counter_ns()
        apply(store, Op(kind, key, f"u{key}", hi=key + case.scan_width))
        if case.scan_every and (index + 1) % case.scan_every == 0:
            lo = key % max(1, preload - case.scan_width)
            apply(store, Op("scan", lo, hi=lo + case.scan_width))
            scans += 1
        wall_us.append((time.perf_counter_ns() - op_start) / 1_000)
    elapsed = time.perf_counter() - start

    total_ops = ops + scans
    store.flush()  # account buffered updates' write I/O in the diff
    after = store.snapshot()
    memory_ios = sum(after.memory.values()) - sum(snap.memory.values())
    breakdown = store.latency_since(snap, operations=total_ops)
    return {
        "name": f"{case.preset}/{case.workload}",
        "preset": case.preset,
        "workload": case.workload,
        "read_fraction": case.read_fraction,
        "ops": total_ops,
        "scans": scans,
        "wall_s": round(elapsed, 4),
        "throughput_ops_per_s": round(total_ops / elapsed, 1) if elapsed else 0.0,
        "counted_per_op": {
            "storage_reads": (after.storage_reads - snap.storage_reads)
            / total_ops,
            "storage_writes": (after.storage_writes - snap.storage_writes)
            / total_ops,
            "memory_ios": memory_ios / total_ops,
        },
        "false_positives": after.false_positives - snap.false_positives,
        "cache_hit_ratio": round(
            (after.cache_hits - snap.cache_hits)
            / max(
                1,
                (after.cache_hits - snap.cache_hits)
                + (after.cache_misses - snap.cache_misses),
            ),
            4,
        ),
        "modelled_ns_per_op": breakdown.total_ns,
        "modelled_breakdown_ns": breakdown.as_dict(),
        "wall_latency_us": {
            "p50": nearest_rank(wall_us, 0.50),
            "p95": nearest_rank(wall_us, 0.95),
            "p99": nearest_rank(wall_us, 0.99),
            "mean": round(statistics.fmean(wall_us), 2),
        },
    }


def run_bench(
    ops: int = 2000,
    preload: int = 500,
    seed: int = 0,
    policy: str = "chucky",
    bits_per_entry: float = 10.0,
    cases: list[BenchCase] | None = None,
    repeat: int = 1,
) -> dict[str, Any]:
    """Run the suite; returns the full JSON-ready report.

    ``repeat`` runs every case that many times: counted metrics come
    from the first run (they are deterministic and identical in all of
    them), wall-clock metrics become medians across runs — the cheap
    way to de-noise throughput numbers on a busy machine.
    """
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    rows = []
    for case in cases if cases is not None else default_cases():
        runs = [
            run_case(
                case,
                ops=ops,
                preload=preload,
                seed=seed,
                policy=policy,
                bits_per_entry=bits_per_entry,
            )
            for _ in range(repeat)
        ]
        rows.append(runs[0] if repeat == 1 else _median_wall(runs))
    return {
        "suite": "core",
        "ops_per_case": ops,
        "preload": preload,
        "seed": seed,
        "policy": policy,
        "bits_per_entry": bits_per_entry,
        "repeat": repeat,
        "host": host_fingerprint(),
        "cases": rows,
    }


def write_artifact(report: dict[str, Any], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
