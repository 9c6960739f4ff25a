"""Bench-regression gate: diff fresh bench artifacts against pinned
baselines with per-metric tolerance bands.

``repro benchdiff`` compares a freshly produced ``BENCH_core.json``
(and optionally ``BENCH_serve.json``) against the committed baselines
under ``benchmarks/baselines/`` and exits nonzero when any metric
leaves its band. The bands encode the repo's measurement philosophy:

* **counted I/Os and modelled latency are deterministic** — same code,
  same seed, same numbers — so their bands are tight (a few percent,
  just enough slack for float accumulation order). A counted-I/O
  regression is a *real* algorithmic change, never noise.
* **wall-clock numbers are machine noise** — throughput and latency
  percentiles of a Python engine in CI jitter wildly — so their bands
  are deliberately generous (e.g. throughput may drop 60%, p99 may
  quadruple, before the gate trips). They only catch catastrophic
  slowdowns, which is exactly what a CI gate is for.

A band violation is *not* symmetric: each metric declares which
direction is a regression. Getting faster never fails the gate, but an
unexpected *drop* in counted I/Os still does — silently doing less
work is as suspicious as doing more, and usually means the benchmark
stopped measuring what it thinks it measures.

Baselines are compared like-for-like: if the baseline was produced
with a different ops count, seed, or policy, the diff refuses to
compare rather than produce a meaningless verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable

#: Keys that must match between baseline and current for a core diff
#: to be meaningful at all.
CORE_CONFIG_KEYS = ("ops_per_case", "preload", "seed", "policy", "bits_per_entry")

#: Same, for the serve artifact (nested under ``config``).
SERVE_CONFIG_KEYS = (
    "ops", "connections", "workload", "key_space", "read_fraction", "seed",
)


@dataclass(frozen=True)
class Band:
    """Tolerance band for one metric.

    ``max_increase`` / ``max_decrease`` are relative fractions of the
    baseline value (``0.05`` = 5%); ``None`` leaves that direction
    unchecked. ``floor`` is an absolute slack added on top of the
    relative band — it keeps near-zero baselines (0.01 counted I/Os
    per op, 0 errors) from turning tiny absolute wiggles into huge
    relative ones.

    current violates iff::

        current > baseline * (1 + max_increase) + floor      (if set)
        current < baseline * (1 - max_decrease) - floor      (if set)

    ``wall`` marks wall-clock metrics: meaningful only when baseline
    and current ran on the same host. On a host-fingerprint mismatch
    their violations demote to warnings (reported, never gating) —
    counted bands stay strict everywhere.
    """

    max_increase: float | None = None
    max_decrease: float | None = None
    floor: float = 0.0
    wall: bool = False

    def __post_init__(self) -> None:
        if self.max_increase is None and self.max_decrease is None:
            raise ValueError("band must check at least one direction")
        for name in ("max_increase", "max_decrease"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.floor < 0:
            raise ValueError(f"floor must be >= 0, got {self.floor}")

    def check(self, baseline: float, current: float) -> str | None:
        """Return a violation description, or None when in band."""
        if self.max_increase is not None:
            limit = baseline * (1 + self.max_increase) + self.floor
            if current > limit:
                return (
                    f"rose to {current:g} (baseline {baseline:g}, "
                    f"limit {limit:g})"
                )
        if self.max_decrease is not None:
            limit = baseline * (1 - self.max_decrease) - self.floor
            if current < limit:
                return (
                    f"fell to {current:g} (baseline {baseline:g}, "
                    f"limit {limit:g})"
                )
        return None


#: Per-metric bands for one BENCH_core.json case row. Keys are dotted
#: paths into the row dict.
CORE_BANDS: dict[str, Band] = {
    # Deterministic counted quantities: tight both ways.
    "counted_per_op.storage_reads": Band(0.03, 0.03, floor=0.02),
    "counted_per_op.storage_writes": Band(0.03, 0.03, floor=0.02),
    "counted_per_op.memory_ios": Band(0.03, 0.03, floor=0.5),
    "modelled_ns_per_op": Band(0.05, 0.05, floor=5.0),
    "false_positives": Band(0.10, None, floor=3.0),
    # Wall-clock: generous, regression-direction only.
    "throughput_ops_per_s": Band(None, 0.60, wall=True),
    "wall_latency_us.p50": Band(4.0, None, floor=50.0, wall=True),
    "wall_latency_us.p99": Band(4.0, None, floor=200.0, wall=True),
}

#: Per-metric bands for the BENCH_serve.json summary.
SERVE_BANDS: dict[str, Band] = {
    "throughput_ops_per_s": Band(None, 0.60, wall=True),
    "latency_us.all.p50_us": Band(4.0, None, floor=200.0, wall=True),
    "latency_us.all.p99_us": Band(4.0, None, floor=1000.0, wall=True),
    "latency_us.read.p99_us": Band(4.0, None, floor=1000.0, wall=True),
    "latency_us.update.p99_us": Band(4.0, None, floor=1000.0, wall=True),
    # Correctness-flavored: any error is a gate failure (never relaxed).
    "errors": Band(0.0, None, floor=0.0),
}

#: Keys that must match for a cluster diff (nested under ``config``).
CLUSTER_CONFIG_KEYS = (
    "ops", "connections", "workload", "key_space", "read_fraction",
    "seed", "kill",
)

#: Per-metric bands for the BENCH_cluster.json summary.
CLUSTER_BANDS: dict[str, Band] = {
    "throughput_ops_per_s": Band(None, 0.60, wall=True),
    "latency_us.read.p99_us": Band(4.0, None, floor=2000.0, wall=True),
    "latency_us.update.p99_us": Band(4.0, None, floor=2000.0, wall=True),
    # THE gate: an acked write that cannot be read back after the
    # mid-run leader kill. Zero tolerance, never relaxed.
    "lost_acked": Band(0.0, None, floor=0.0),
    # A leader kill legitimately surfaces a few routed-request errors
    # while the failover converges; losing *acked* data does not.
    "errors": Band(3.0, None, floor=10.0, wall=True),
}


def _lookup(tree: dict[str, Any], path: str) -> float | None:
    node: Any = tree
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def _diff_tree(
    baseline: dict[str, Any],
    current: dict[str, Any],
    bands: dict[str, Band],
    where: str,
) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """Check every band against one (baseline, current) dict pair.

    Returns ``(checks, violations)``; every check appears in the first
    list, violating ones also in the second.
    """
    checks: list[dict[str, Any]] = []
    violations: list[dict[str, Any]] = []
    for path, band in bands.items():
        base = _lookup(baseline, path)
        cur = _lookup(current, path)
        if base is None or cur is None:
            # A metric missing on either side is itself a violation:
            # artifacts must stay schema-compatible with the baseline.
            entry = {
                "where": where,
                "metric": path,
                "baseline": base,
                "current": cur,
                "problem": "metric missing from "
                + ("baseline" if base is None else "current artifact"),
            }
            checks.append(entry)
            violations.append(entry)
            continue
        problem = band.check(base, cur)
        entry = {
            "where": where,
            "metric": path,
            "baseline": base,
            "current": cur,
            "problem": problem,
            "wall": band.wall,
        }
        checks.append(entry)
        if problem is not None:
            violations.append(entry)
    return checks, violations


def _host_mismatches(
    baseline: dict[str, Any], current: dict[str, Any]
) -> list[str]:
    """Host-fingerprint differences between two artifacts.

    Artifacts that both predate host fingerprints compare strictly (the
    historical behavior); an artifact carrying one against an artifact
    without one counts as a mismatch — provenance unknown.
    """
    base = baseline.get("host")
    cur = current.get("host")
    if base is None and cur is None:
        return []
    if base is None or cur is None:
        return ["host: fingerprint missing from "
                + ("baseline" if base is None else "current artifact")]
    out = []
    for key in sorted(set(base) | set(cur)):
        if base.get(key) != cur.get(key):
            out.append(
                f"host.{key}: baseline={base.get(key)!r} "
                f"current={cur.get(key)!r}"
            )
    return out


def _relax_wall(
    violations: list[dict[str, Any]], host_mismatches: list[str]
) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """Demote wall-metric band violations to warnings on host mismatch.

    Only actual band violations demote; a wall metric *missing* from an
    artifact is still a schema break and stays gating, as does every
    counted-metric violation.
    """
    if not host_mismatches:
        return violations, []
    hard: list[dict[str, Any]] = []
    warnings: list[dict[str, Any]] = []
    for entry in violations:
        if (
            entry.get("wall")
            and entry["baseline"] is not None
            and entry["current"] is not None
        ):
            warnings.append(entry)
        else:
            hard.append(entry)
    return hard, warnings


def _config_mismatches(
    baseline: dict[str, Any],
    current: dict[str, Any],
    keys: tuple[str, ...],
) -> list[str]:
    out = []
    for key in keys:
        if baseline.get(key) != current.get(key):
            out.append(
                f"{key}: baseline={baseline.get(key)!r} "
                f"current={current.get(key)!r}"
            )
    return out


def _diff(
    artifact: str,
    baseline: dict[str, Any],
    current: dict[str, Any],
    config_keys: tuple[str, ...],
    compare: Callable[
        [dict[str, Any], dict[str, Any]],
        tuple[list[dict[str, Any]], list[dict[str, Any]]],
    ],
    config: Callable[[dict[str, Any]], dict[str, Any]] = (
        lambda art: art.get("config", {})
    ),
) -> dict[str, Any]:
    """The one diff skeleton: refuse on a config mismatch, else
    ``compare(baseline, current) -> (checks, violations)``, then relax
    wall bands on a host mismatch. ``config`` finds an artifact's run
    config (nested under ``config`` by default)."""
    mismatches = _config_mismatches(
        config(baseline), config(current), config_keys
    )
    host_mismatches = _host_mismatches(baseline, current)
    checks: list[dict[str, Any]] = []
    violations: list[dict[str, Any]] = []
    if not mismatches:
        checks, violations = compare(baseline, current)
    violations, warnings = _relax_wall(violations, host_mismatches)
    return {
        "artifact": artifact,
        "ok": not mismatches and not violations,
        "config_mismatches": mismatches,
        "host_mismatches": host_mismatches,
        "checks": checks,
        "violations": violations,
        "warnings": warnings,
    }


def _diff_cases(
    baseline: dict[str, Any], current: dict[str, Any]
) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """Core reports case by case, matched by ``name``; a case present
    on one side only is a violation — coverage must not silently
    shrink."""
    checks: list[dict[str, Any]] = []
    violations: list[dict[str, Any]] = []
    base_cases = {row["name"]: row for row in baseline.get("cases", [])}
    cur_cases = {row["name"]: row for row in current.get("cases", [])}
    for name in sorted(set(base_cases) | set(cur_cases)):
        if name not in base_cases or name not in cur_cases:
            entry = {
                "where": name,
                "metric": "(case)",
                "baseline": None,
                "current": None,
                "problem": "case missing from "
                + ("current run" if name not in cur_cases else "baseline"),
            }
            checks.append(entry)
            violations.append(entry)
            continue
        case_checks, case_violations = _diff_tree(
            base_cases[name], cur_cases[name], CORE_BANDS, name
        )
        checks.extend(case_checks)
        violations.extend(case_violations)
    return checks, violations


def diff_core(
    baseline: dict[str, Any], current: dict[str, Any]
) -> dict[str, Any]:
    """Diff two BENCH_core.json reports case-by-case (run config at the
    top level)."""
    return _diff(
        "core", baseline, current, CORE_CONFIG_KEYS, _diff_cases,
        config=lambda art: art,
    )


def diff_serve(
    baseline: dict[str, Any], current: dict[str, Any]
) -> dict[str, Any]:
    """Diff two BENCH_serve.json summaries."""
    return _diff(
        "serve", baseline, current, SERVE_CONFIG_KEYS,
        lambda base, cur: _diff_tree(base, cur, SERVE_BANDS, "serve"),
    )


def diff_cluster(
    baseline: dict[str, Any], current: dict[str, Any]
) -> dict[str, Any]:
    """Diff two BENCH_cluster.json summaries (loadgen ``--cluster``)."""
    return _diff(
        "cluster", baseline, current, CLUSTER_CONFIG_KEYS,
        lambda base, cur: _diff_tree(base, cur, CLUSTER_BANDS, "cluster"),
    )


def load_artifact(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def format_report(result: dict[str, Any]) -> str:
    """Render one diff result as the terminal/CI report."""
    lines = [f"benchdiff [{result['artifact']}]"]
    if result["config_mismatches"]:
        lines.append("  CONFIG MISMATCH — refusing to compare:")
        for mismatch in result["config_mismatches"]:
            lines.append(f"    {mismatch}")
        return "\n".join(lines)
    if result.get("host_mismatches"):
        lines.append(
            "  HOST MISMATCH — wall-clock bands relaxed to warnings:"
        )
        for mismatch in result["host_mismatches"]:
            lines.append(f"    {mismatch}")
    n_checks = len(result["checks"])
    n_bad = len(result["violations"])
    for entry in result["violations"]:
        lines.append(
            f"  FAIL {entry['where']}: {entry['metric']} {entry['problem']}"
        )
    for entry in result.get("warnings", []):
        lines.append(
            f"  WARN {entry['where']}: {entry['metric']} {entry['problem']}"
        )
    if n_bad:
        lines.append(f"  {n_bad}/{n_checks} metrics out of band")
    else:
        lines.append(f"  OK — {n_checks} metrics within bands")
    return "\n".join(lines)
