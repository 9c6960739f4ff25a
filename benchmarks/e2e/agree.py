#!/usr/bin/env python3
"""Does the benchmark agree with itself?

    python3 benchmarks/e2e/agree.py            # two sets on one seed + one on another
    python3 benchmarks/e2e/agree.py --spread 10   # ten seeds per workload

The default mode runs every workload twice on the same seed (fresh
processes) and prints, for each end-to-end metric, the relative
difference between the two runs beside the metric's bound; it fails if
any difference exceeds its bound, if a counted metric of an in-process
workload is not bit-identical, or if a third set on another seed saw the
same inputs. ``--spread N`` runs N seeds per workload and prints the
interquartile range of each metric as a share of its median — the
number that has to stay within the bound for a later comparison of two
commits to resolve anything.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import harness

#: Counted at a fixed op count, so exact per seed. ``serve-mixed`` is left
#: out: two concurrent connections interleave differently run to run.
COUNTED = ("storage_writes_per_write", "filter_bits_per_entry")
CONCURRENT = ("serve-mixed",)


def run_once(manifest, workload: str, seed: int, seconds: float, scale: float) -> dict:
    command = [
        *manifest["command"],
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0", "--scale", str(scale),
    ]
    done = subprocess.run(
        command, cwd=harness.ROOT, capture_output=True, text=True, timeout=180,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}"
            f"{done.stdout[-400:]}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed ops")
    tag = f"{workload}-seed{seed}-trace0"
    with open(harness.OUT / f"result-{tag}.json", encoding="utf-8") as fh:
        result["input_digest"] = json.load(fh)["input_digest"]
    return result


def agreement(manifest, args) -> bool:
    ok = True
    for workload in (w["name"] for w in manifest["workloads"]):
        first, second = (
            run_once(manifest, workload, args.seed, args.seconds, args.scale)
            for _ in range(2)
        )
        other = run_once(manifest, workload, args.seed + 1, args.seconds, args.scale)
        print(f"\n{workload}")
        if first["input_digest"] != second["input_digest"]:
            print("  FAIL: the same seed produced different inputs")
            ok = False
        if first["input_digest"] == other["input_digest"]:
            print("  FAIL: a different seed produced the same inputs")
            ok = False
        for metric in manifest["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            diff = abs(a - b) / abs(a)
            exact = name in COUNTED and workload not in CONCURRENT
            verdict = "ok"
            if exact and a != b:
                verdict = "FAIL (counted metric not identical)"
            elif diff > bound:
                verdict = "FAIL"
            ok = ok and verdict == "ok"
            print(
                f"  {name:<28} {a:>14.6g} {b:>14.6g}  diff {diff:7.2%}"
                f"  bound {bound:5.0%}  {verdict}"
            )
    return ok


def spread(manifest, args) -> bool:
    ok = True
    for workload in (w["name"] for w in manifest["workloads"]):
        runs = [
            run_once(manifest, workload, seed, args.seconds, args.scale)
            for seed in range(args.seed, args.seed + args.spread)
        ]
        print(f"\n{workload}  ({args.spread} seeds)")
        for metric in manifest["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [run["metrics"][name]["value"] for run in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            middle = statistics.median(values)
            share = (q3 - q1) / middle
            # The set-up time's own spread is not held to its bound.
            verdict = "ok" if share <= bound / 3 or name == "setup_s" else (
                "over a third of the bound" if share <= bound else "FAIL"
            )
            ok = ok and verdict != "FAIL"
            print(
                f"  {name:<28} median {middle:>12.6g}  IQR/median {share:7.2%}"
                f"  bound {bound:5.0%}  {verdict}"
            )
    return ok


def main() -> int:
    harness.require_repo()
    manifest = harness.load_manifest()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--spread", type=int, default=0, metavar="N")
    args = parser.parse_args()
    ok = spread(manifest, args) if args.spread else agreement(manifest, args)
    print("\nagree: " + ("OK" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
