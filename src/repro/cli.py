"""Command-line interface: ``python -m repro <command>``.

Fifteen commands for poking at the system without writing code:

* ``info``      — package, geometry and codebook overview
* ``fpr``       — model + measured FPR comparison for one geometry
* ``codebook``  — the full coding plan for one geometry
* ``workload``  — run a mixed workload and print latency + metrics
  (``--metrics-out m.json`` additionally writes the observability
  registry as a JSON artifact; ``--shards N`` hash-shards the store
  and reports per-shard plus aggregate numbers)
* ``stats``     — run a workload and render the metrics registry in
  Prometheus text exposition format (or JSON with ``--format json``)
* ``trace``     — run a workload and dump the last N per-operation
  trace spans (modelled-time durations, nesting, attributes);
  ``--request <trace-id>`` instead renders one sampled request's
  causal span tree — from a running server (``--host/--port``) or a
  loadgen traces artifact (``--traces``) — and ``--list`` shows which
  trace ids a server currently holds
* ``serve``     — expose a (sharded) durable store over TCP: binary
  protocol, group commit, BUSY backpressure, graceful drain on SIGINT
  (``--adapt`` runs the adaptive-tuning controller: a background task
  polls it between requests, and it applies its decisions there)
* ``bench``     — run the canonical benchmark suite (uniform / zipf /
  ycsb-b over the leveled and tiered presets) and write the
  ``BENCH_core.json`` artifact
* ``tune``      — replay a drift scenario, polling the adaptive-tuning
  loop after every op, and print the decision log (``--static`` replays
  the same ops unpolled for comparison)
* ``loadgen``   — drive a running server closed-loop over N
  connections and write the ``BENCH_serve.json`` latency artifact
  (``--trace-every N`` head-samples requests into the wire trace
  header; ``--traces-out`` writes the combined span trees;
  ``--cluster spec.json`` instead drives a replicated cluster with
  acked-write verification — optionally killing a node mid-run with
  ``--kill auto`` — and writes ``BENCH_cluster.json``)
* ``cluster``   — spawn a replicated multi-node cluster as worker
  subprocesses (WAL shipping, leader failover, live shard handoff)
  rendezvousing on a JSON spec file; ``--worker`` runs one node
* ``rebalance`` — drive a live shard handoff to another node through
  the current leader (reads the cluster spec file to route)
* ``dash``      — live terminal dashboard over a running server's
  STATS payload: counters, and sparklines over its own polls (counters
  as per-second rates)
* ``benchdiff`` — regression gate: diff fresh BENCH artifacts against
  the pinned baselines with per-metric tolerance bands; exits
  non-zero when any metric leaves its band
* ``faultcheck``— explore seeded crash schedules (torn WAL tails,
  partial run writes, crashes at every registered commit point) and
  verify the recovery invariants after each one; exits non-zero on
  any violation (``--cluster`` runs the replicated-cluster campaign
  instead: node kills mid-replication / mid-handoff / mid-promotion,
  gating on "acked ⇒ durable" across the failover)
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import signal
import sys
import time

from repro import __version__
from repro.analysis.fpr_models import (
    fpr_bloom_optimal,
    fpr_bloom_uniform,
    fpr_chucky_model,
    fpr_cuckoo_integer_lids,
)
from repro.analysis.measured import collect_metrics
from repro.chucky.codebook import ChuckyCodebook
from repro.coding.distributions import LidDistribution
from repro.coding.entropy import (
    combination_entropy_per_lid,
    huffman_acl,
    lid_entropy_exact,
)
from repro.common.errors import CodebookError, ReproError
from repro.engine import (
    EngineConfig,
    KVStore,
    ShardedKVStore,
    aggregate_snapshots,
    build_store,
    shards_of,
)
from repro.filters.policy import available_policies
from repro.lsm.config import PRESETS
from repro.obs import Observability, render_json, render_prometheus
from repro.workloads.generators import WORKLOAD_KINDS


def _add_geometry(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--size-ratio", "-t", type=int, default=5,
                        help="T, the level size ratio (default 5)")
    parser.add_argument("--levels", "-l", type=int, default=6,
                        help="L, number of levels (default 6)")
    parser.add_argument("--runs-per-level", "-k", type=int, default=1,
                        help="K, sub-levels per inner level (default 1)")
    parser.add_argument("--runs-at-last", "-z", type=int, default=1,
                        help="Z, sub-levels at the largest level (default 1)")
    parser.add_argument("--bits", "-m", type=float, default=10.0,
                        help="memory budget in bits per entry (default 10)")


def _save(path: str, payload: object, what: str = "artifact") -> bool:
    """Write ``payload`` to ``path`` — a str as it is, anything else as a
    sorted JSON artifact — and say where it went, or on stderr why not."""
    from repro.workloads.bench import write_artifact

    try:
        if isinstance(payload, str):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(payload)
        else:
            write_artifact(payload, path)
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return False
    print(f"{what} written to {path}")
    return True


def _dist(args) -> LidDistribution:
    return LidDistribution(
        args.size_ratio, args.levels, args.runs_per_level, args.runs_at_last
    )


def cmd_info(args) -> int:
    dist = _dist(args)
    print(f"repro {__version__} — Chucky (SIGMOD 2021) reproduction")
    print(f"geometry: T={args.size_ratio} L={args.levels} "
          f"K={args.runs_per_level} Z={args.runs_at_last} "
          f"-> A={dist.num_sublevels} sub-levels")
    print(f"LID entropy H          : {lid_entropy_exact(dist):.4f} bits")
    print(f"per-LID Huffman ACL    : {huffman_acl(dist):.4f} bits")
    print(f"combination H (S=4)    : {combination_entropy_per_lid(dist, 4):.4f} bits")
    return 0


def cmd_fpr(args) -> int:
    t, l, k, z, m = (
        args.size_ratio, args.levels, args.runs_per_level,
        args.runs_at_last, args.bits,
    )
    print(f"expected false positives per lookup at M={m:g} bits/entry:")
    print(f"  uniform Bloom filters (Eq 2)  : {fpr_bloom_uniform(m, l, k, z):.5f}")
    print(f"  optimal Bloom filters (Eq 3)  : {fpr_bloom_optimal(m, t, k, z):.5f}")
    print(f"  integer-LID cuckoo    (Eq 6)  : {fpr_cuckoo_integer_lids(m, l, k, z):.5f}")
    print(f"  Chucky model          (Eq 16) : {fpr_chucky_model(m, t, k, z):.5f}")
    try:
        cb = ChuckyCodebook(_dist(args), slots=4, bucket_bits=round(m * 4))
        print(f"  Chucky codebook (this build)  : {cb.expected_fpr():.5f}")
    except CodebookError as exc:
        print(f"  Chucky codebook (this build)  : infeasible ({exc})")
    return 0


def cmd_codebook(args) -> int:
    try:
        cb = ChuckyCodebook(
            _dist(args), slots=4, bucket_bits=round(args.bits * 4)
        )
    except CodebookError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    print(f"bucket: {cb.bucket_bits} bits, S={cb.slots}, NOV={cb.nov}")
    print(f"combinations: |C|={len(cb.probabilities)} "
          f"|C_freq|={len(cb.frequent)} (mass {cb.frequent_mass:.6f})")
    print(f"fingerprints by level: {cb.fp_by_level} "
          f"(avg {cb.average_fp_bits():.3f} bits)")
    print(f"code cost: {cb.average_code_bits_per_entry():.3f} bits/entry")
    print(f"overflow probability: {cb.overflow_probability():.2e}")
    print(f"expected FPR: {cb.expected_fpr():.5f}")
    return 0


#: Store flags a command may carry: argparse dest -> EngineConfig field.
_STORE_FLAGS = {
    "size_ratio": "size_ratio",
    "runs_per_level": "runs_per_level",
    "runs_at_last": "runs_at_last_level",
    "buffer": "buffer_entries",
    "policy": "policy",
    "bits": "bits_per_entry",
    "cache_blocks": "cache_blocks",
    "shards": "shards",
}


def _engine_config(args, **fixed) -> EngineConfig:
    """The store a command's flags describe (K and Z from ``--preset``
    when the command has one; 16-entry blocks; ``fixed`` on top, e.g. a
    durable server). An invalid store is a usage error, exit 2 — so
    every command calls this before it prints anything."""
    fields = {
        field: getattr(args, flag)
        for flag, field in _STORE_FLAGS.items()
        if hasattr(args, flag)
    }
    fields.update(block_entries=16, **fixed)
    try:
        if hasattr(args, "preset"):
            return EngineConfig.preset(args.preset, **fields)
        return EngineConfig(**fields)
    except ValueError as exc:
        args.error(str(exc))


def _drive_workload(
    config: EngineConfig, args, observability: Observability | None
) -> tuple[KVStore | ShardedKVStore, int, list]:
    """Build a store and run the standard mixed workload.

    Returns (store, hits, per-shard snapshots taken before the reads).
    """
    store = build_store(config, observability=observability)
    rng = random.Random(args.seed)
    universe = max(16, args.ops // 2)
    for i in range(args.ops):
        store.put(rng.randrange(universe), f"v{i}")
    snaps = [shard.snapshot() for shard in shards_of(store)]
    hits = 0
    for _ in range(args.reads):
        hits += store.get(rng.randrange(universe)) is not None
    return store, hits, snaps


def cmd_workload(args) -> int:
    config = _engine_config(args)
    obs = Observability() if args.metrics_out else None
    shard_note = f", {args.shards} shards" if args.shards > 1 else ""
    print(f"running {args.ops} writes + {args.reads} reads "
          f"({args.policy}, T={args.size_ratio}{shard_note}) ...")
    store, hits, snaps = _drive_workload(config, args, obs)
    lat = store.latency_since(aggregate_snapshots(snaps), operations=args.reads)
    print(f"reads: {hits}/{args.reads} hits, "
          f"{lat.total_ns:.0f} ns/read modelled "
          f"(filter {lat.filter_ns:.0f}, fence {lat.fence_ns:.0f}, "
          f"storage {lat.storage_ns:.0f})")
    if config.shards > 1:
        entries = store.entries_per_shard()
        print(f"  shards: {store.num_shards}, entries per shard "
              f"{min(entries)}-{max(entries)} "
              f"(imbalance {store.imbalance:.3f})")
        for index, shard_lat in enumerate(store.shard_latencies(snaps)):
            print(f"    shard {index}: {shard_lat.total_ns:,.0f} ns total "
                  f"(storage {shard_lat.storage_ns:,.0f})")
    metrics = collect_metrics(store)
    for name, value in metrics.as_dict().items():
        print(f"  {name:24s}: {'n/a' if value is None else format(value, 'g')}")
    if obs is not None and not _save(
        args.metrics_out, render_json(obs.registry), "metrics artifact"
    ):
        return 1
    return 0


def cmd_stats(args) -> int:
    config = _engine_config(args)
    obs = Observability()
    _drive_workload(config, args, obs)
    if args.format == "json":
        print(render_json(obs.registry))
    else:
        sys.stdout.write(render_prometheus(obs.registry))
    return 0


def _span_forest(spans: list[dict]) -> list[dict]:
    """Stitch a flat list of (possibly nested) span dicts into trees.

    Spans from different processes arrive as separate top-level dicts
    linked only by ``parent_id``; this grafts each one under its
    parent when the parent is present anywhere in the forest, keeping
    already-nested ``children`` intact.
    """
    index: dict[int, dict] = {}

    def _walk(node: dict) -> None:
        node.setdefault("children", [])
        if node.get("span_id"):
            index[node["span_id"]] = node
        for child in node["children"]:
            _walk(child)

    for span in spans:
        _walk(span)
    roots = []
    for span in spans:
        parent = index.get(span.get("parent_id", 0))
        if parent is not None and parent is not span:
            parent["children"].append(span)
        else:
            roots.append(span)
    return sorted(roots, key=lambda s: s.get("start_ns", 0))


def _print_span_tree(node: dict, depth: int = 0) -> None:
    indent = "  " * depth
    wall_us = node.get("wall_ns", 0) / 1_000
    modelled_us = node.get("duration_ns", 0) / 1_000
    attrs = node.get("attrs", {})
    attr_text = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
    error = node.get("error")
    line = (
        f"{indent}{node.get('name', '?'):<{max(1, 28 - len(indent))}} "
        f"wall {wall_us:>9.1f}us  modelled {modelled_us:>9.1f}us"
    )
    if attr_text:
        line += f"  [{attr_text}]"
    if error:
        line += f"  ERROR: {error}"
    print(line)
    for child in sorted(
        node.get("children", []), key=lambda s: s.get("start_ns", 0)
    ):
        _print_span_tree(child, depth + 1)


def _trace_sink_warnings(summary: dict) -> None:
    """Capacity / drop warnings for the server's trace sink: evicted
    traces and dropped spans are sampled spans actually lost."""
    evicted_traces = summary.get("dropped_traces", 0)
    evicted_spans = summary.get("dropped_spans", 0)
    if evicted_traces or evicted_spans:
        print(
            f"warning: trace sink evicted {evicted_traces} sampled "
            f"trace(s) / dropped {evicted_spans} span(s) at capacity — "
            "older sampled traces are gone",
            file=sys.stderr,
        )
    capacity = summary.get("capacity", 0)
    if capacity and summary.get("traces", 0) >= capacity:
        print(
            f"warning: trace sink full ({capacity} traces) — new sampled "
            "traces evict the oldest",
            file=sys.stderr,
        )


def _cmd_trace_remote(args) -> int:
    """``repro trace --request/--list``: spans from a live server or a
    loadgen traces artifact, rendered as a causal tree."""
    from repro.obs.context import format_trace_id, parse_trace_id
    from repro.server.client import AsyncClient, bounded

    wanted = parse_trace_id(args.request) if args.request else 0
    if args.traces:
        with open(args.traces, encoding="utf-8") as fh:
            artifact = json.load(fh)
        traces = {t["trace_id"]: t for t in artifact.get("traces", [])}
        if args.list or not wanted:
            for trace_id in traces:
                print(format_trace_id(trace_id))
            return 0
        found = traces.get(wanted)
        if found is None:
            print(f"trace {args.request} not in {args.traces}",
                  file=sys.stderr)
            return 1
        for root in _span_forest(list(found["spans"])):
            _print_span_tree(root)
        return 0

    async def fetch() -> tuple[dict, dict | None]:
        client = await bounded(AsyncClient.connect(args.host, args.port))
        try:
            summary = await bounded(client.fetch_trace(0)) or {}
            if args.list or not wanted:
                return summary, None
            return summary, await bounded(client.fetch_trace(wanted))
        finally:
            await client.close()

    try:
        summary, payload = asyncio.run(fetch())
    except (ConnectionRefusedError, OSError) as exc:
        print(f"cannot reach {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    if args.list or not wanted:
        if not summary.get("tracing_enabled", False):
            print("server tracing is disabled", file=sys.stderr)
            return 1
        _trace_sink_warnings(summary)
        ids = summary.get("trace_ids", [])
        print(f"{summary.get('traces', 0)} trace(s) held "
              f"(capacity {summary.get('capacity', 0)}):")
        for trace_id in ids:
            print(f"  {format_trace_id(trace_id)}")
        return 0
    if payload is None:
        _trace_sink_warnings(summary)
        print(
            f"trace {args.request} not held by the server (evicted, "
            "unsampled, or never seen)", file=sys.stderr,
        )
        return 1
    _trace_sink_warnings(summary)
    print(f"trace {format_trace_id(wanted)}:")
    for root in _span_forest(list(payload.get("spans", []))):
        _print_span_tree(root)
    return 0


def cmd_trace(args) -> int:
    if args.request or args.list:
        return _cmd_trace_remote(args)
    config = _engine_config(args)
    obs = Observability(trace_ring=max(args.last, 1))
    store, _, _ = _drive_workload(config, args, obs)
    if config.shards > 1:
        spans = store.recent_spans(args.last)
    else:
        spans = obs.tracer.recent(args.last)
    if not spans:
        print("no spans recorded", file=sys.stderr)
        return 1
    for span in spans:
        print(json.dumps(span.to_dict(), sort_keys=True))
    return 0


def cmd_bench(args) -> int:
    from repro.workloads.bench import run_bench

    _engine_config(args)  # every case's store takes --policy / --bits
    print(
        f"bench: core suite, {args.ops} ops/case over {args.preload} keys "
        f"(policy={args.policy}, M={args.bits:g} bits/entry, "
        f"seed={args.seed})",
        flush=True,
    )
    report = run_bench(
        ops=args.ops,
        preload=args.preload,
        seed=args.seed,
        policy=args.policy,
        bits_per_entry=args.bits,
        repeat=args.repeat,
    )
    for row in report["cases"]:
        per_op = row["counted_per_op"]
        print(
            f"  {row['name']:16s}: {row['throughput_ops_per_s']:>9,.0f} ops/s  "
            f"{per_op['storage_reads']:.3f} sr/op  "
            f"{per_op['storage_writes']:.3f} sw/op  "
            f"{row['modelled_ns_per_op']:>8,.0f} ns/op modelled  "
            f"p99 {row['wall_latency_us']['p99']:g}us"
        )
    return 0 if _save(args.out, report) else 1


def cmd_microbench(args) -> int:
    from repro.workloads.micro import format_micro, run_micro

    report = run_micro(inner=args.inner, rounds=args.rounds)
    print(format_micro(report))
    if args.out and not _save(args.out, report):
        return 1
    return 0


def cmd_tune(args) -> int:
    from repro.tuning import PlannerConfig, TuningConfig, TuningController
    from repro.workloads.drift import scenario, total_ops
    from repro.workloads.ops import apply

    config = _engine_config(args)
    if args.window_ops < 1:
        args.error(f"--window-ops must be >= 1, got {args.window_ops}")
    phases = scenario(args.scenario, seed=args.seed)
    obs = Observability()
    store = build_store(config, observability=obs)
    controller = TuningController(
        store,
        config,
        TuningConfig(
            window_ops=args.window_ops,
            planner=PlannerConfig(hysteresis=args.hysteresis),
        ),
        observability=obs,
    )
    mode = "static (never polled)" if args.static else "adaptive"
    print(
        f"tune: scenario={args.scenario} ({len(phases)} phases, "
        f"{total_ops(phases)} ops), start policy={args.policy} "
        f"M={args.bits:g}, preset={args.preset}, "
        f"window={args.window_ops} ops, mode={mode}",
        flush=True,
    )
    phase_rows = []
    for phase in phases:
        before = store.snapshot()
        for op in phase.ops:
            apply(store, op)
            if not args.static:
                controller.poll()
        after = store.snapshot()
        row = {
            "phase": phase.name,
            "ops": len(phase.ops),
            "storage_reads": after.storage_reads - before.storage_reads,
            "storage_writes": after.storage_writes - before.storage_writes,
            "policy_after": controller.effective_config.policy,
        }
        phase_rows.append(row)
        print(
            f"  {phase.name:10s}: {row['ops']:>5d} ops  "
            f"{row['storage_reads']:>6d} storage reads  "
            f"{row['storage_writes']:>6d} storage writes  "
            f"[policy={row['policy_after']}]"
        )
    status = controller.status()
    applied = [d for d in status["decisions"] if d["applied"]]
    print(
        f"windows={status['windows']} decisions={len(status['decisions'])} "
        f"applied={len(applied)} -> effective policy "
        f"{status['effective_policy']} at "
        f"{status['effective_bits_per_entry']:g} bits/entry, "
        f"memtable={status['memtable_capacity']}"
    )
    for decision in applied:
        print(
            f"  window {decision['window']:>3d}: {decision['action']} "
            f"(win {decision['win']:.1%}) — {decision['reason']}"
        )
    if args.json:
        artifact = {
            "scenario": args.scenario,
            "mode": "static" if args.static else "adaptive",
            "phases": phase_rows,
            "status": status,
        }
        if not _save(args.json, artifact, "decision log"):
            return 1
    return 0


async def _serve_main(args, engine_config: EngineConfig) -> int:
    from repro.server import ReproServer, ServerConfig

    # No untraced ring: nothing reads one here, so an unsampled request
    # builds no spans; sampled ones still reach the sink (TRACE op).
    obs = Observability(trace_ring=0)
    store = build_store(engine_config, observability=obs)
    controller = None
    adapt_task = None
    if args.adapt:
        from repro.tuning import TuningConfig, TuningController

        # Polled from a task on the event loop, so a window closes and a
        # decision applies between requests, never inside one.
        controller = TuningController(
            store,
            engine_config,
            TuningConfig(window_ops=args.adapt_window),
            observability=obs,
        )

        async def _adapt_loop() -> None:
            while True:
                await asyncio.sleep(args.adapt_interval)
                decision = controller.poll()
                if decision is not None and decision.applied:
                    print(
                        f"repro serve: tuning applied {decision.action} "
                        f"(win {decision.win:.1%}) — {decision.reason}",
                        flush=True,
                    )

        adapt_task = asyncio.get_running_loop().create_task(_adapt_loop())
    server = ReproServer(
        store,
        ServerConfig(
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            max_queue_depth=args.queue_depth,
            group_commit_batch=args.commit_batch,
        ),
        observability=obs,
    )
    port = await server.start()
    print(
        f"repro serve: listening on {args.host}:{port} "
        f"({args.shards} shard{'s' if args.shards != 1 else ''}, "
        f"policy={args.policy}, max_inflight={args.max_inflight})",
        flush=True,
    )
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(
                signum, lambda: loop.create_task(server.drain("signal"))
            )
        except (NotImplementedError, RuntimeError, ValueError):
            # non-unix loop, or serving off the main thread (tests —
            # asyncio re-raises the set_wakeup_fd ValueError as
            # RuntimeError); SHUTDOWN over the wire still drains.
            pass
    await server.serve_until_drained()
    if adapt_task is not None:
        adapt_task.cancel()
        status = controller.status()
        print(
            f"repro serve: tuning saw {status['windows']} windows, "
            f"applied {status['applied']} actions "
            f"(effective policy {status['effective_policy']})",
            flush=True,
        )
    print(
        f"repro serve: drained ({server.requests} requests, "
        f"{server.shed} shed, {server.errors} errors, "
        f"{server.commit.batches} commit batches / "
        f"{server.commit.items} writes)",
        flush=True,
    )
    return 0


def cmd_serve(args) -> int:
    # Durable: the WAL is what makes group commit and recovery meaningful.
    config = _engine_config(args, durable=True)
    if args.adapt_window < 1:
        args.error(f"--adapt-window must be >= 1, got {args.adapt_window}")
    if not args.adapt_interval > 0:
        args.error(f"--adapt-interval must be > 0, got {args.adapt_interval}")
    try:
        return asyncio.run(_serve_main(args, config))
    except KeyboardInterrupt:  # pragma: no cover — signal handler races
        return 0


def _mode_flags(args, names: tuple[str, ...], other_mode: str) -> dict:
    """The flags of one mode the user actually gave (their parser
    default is SUPPRESS, so the config dataclass owns the defaults);
    giving one in the mode it does not apply to is a usage error, not
    a silently ignored flag."""
    given = {name: getattr(args, name) for name in names if hasattr(args, name)}
    if given and other_mode:
        flag = "--" + next(iter(given)).replace("_", "-")
        args.error(f"{flag} does not apply {other_mode}")
    return given


_LOADGEN_SERVER_FLAGS = (
    "host", "port", "trace_every", "trace_slow_us", "traces_out",
)
_LOADGEN_CLUSTER_FLAGS = ("kill", "kill_after")


def cmd_loadgen(args) -> int:
    from repro.server import LoadgenConfig, run_loadgen

    server = _mode_flags(
        args, _LOADGEN_SERVER_FLAGS, "with --cluster" if args.cluster else ""
    )
    cluster = _mode_flags(
        args, _LOADGEN_CLUSTER_FLAGS, "" if args.cluster else "without --cluster"
    )
    if "kill_after" in cluster:
        cluster["kill_after_fraction"] = cluster.pop("kill_after")
    traces_out = server.pop("traces_out", None)
    try:
        cfg = LoadgenConfig(
            connections=args.connections,
            ops=args.ops,
            workload=args.workload,
            key_space=args.key_space,
            read_fraction=args.read_fraction,
            theta=args.theta,
            value_size=args.value_size,
            seed=args.seed,
            preload=not args.no_preload,
            **server,
        )
        if args.cluster:
            from repro.cluster.loadgen import (
                ClusterLoadgenConfig,
                kill_via_spec,
                run_cluster_loadgen,
            )

            try:
                cluster_cfg = ClusterLoadgenConfig(**cluster)
            except ValueError as exc:
                args.error(str(exc))
            spec = _load_cluster_spec(args.cluster)
            if spec is None:
                return 2
            if cluster_cfg.kill not in ("", "auto", *spec.addresses()):
                args.error(
                    f"--kill {cluster_cfg.kill}: no such node in {args.cluster}"
                )
            where = "the cluster"
            run = run_cluster_loadgen(
                cfg,
                cluster_cfg,
                spec.addresses(),
                lambda name: kill_via_spec(spec, name),
            )
        else:
            where = f"{cfg.host}:{cfg.port}"
            run = run_loadgen(cfg)
        summary = asyncio.run(run)
    except ValueError as exc:
        print(f"invalid load run: {exc}", file=sys.stderr)
        return 2
    except (OSError, ReproError) as exc:
        print(f"cannot reach {where}: {exc}", file=sys.stderr)
        return 1
    print(
        f"{summary['total_ops']} ops over {cfg.connections} connections "
        f"in {summary['elapsed_s']:.2f}s "
        f"({summary['throughput_ops_per_s']:,.0f} ops/s, "
        f"{summary['busy_retries']} busy retries, "
        f"{summary['errors']} errors)"
    )
    for op, stats in summary["latency_us"].items():
        if op != "all" and stats["count"]:
            counters = summary["op_counters"][op]
            print(
                f"  {op:6s}: n={stats['count']} p50={stats['p50_us']:.0f}us "
                f"p95={stats['p95_us']:.0f}us p99={stats['p99_us']:.0f}us "
                f"busy_retries={counters['busy_retries']} "
                f"errors={counters['errors']}"
            )
    if "tracing" in summary:
        tracing = summary["tracing"]
        print(
            f"  traces: {tracing['sampled']} sampled, "
            f"{tracing['slow_upgrades']} slow upgrades, "
            f"{tracing['complete_traces']} combined trees collected"
        )
    failed = summary["errors"]
    if "lost_acked" in summary:
        # A kill legitimately surfaces routed-request errors while the
        # failover converges; losing *acked* data is the failure.
        failed = summary["lost_acked"]
        killed = summary["killed"]
        print(
            "  cluster: "
            + (f"killed {killed}, " if killed else "")
            + f"{summary['failovers']} failovers, "
            f"epoch {summary['final_epoch']}\n"
            f"  verified {summary['acked_writes']} acked writes: "
            f"{failed} lost"
            + (f" (keys {summary['lost_keys']})" if failed else "")
        )
        wanted = summary["config"]["kill"]
        if wanted and not killed:
            # The kill raised: the run never saw the failover it was
            # asked to survive, so it cannot pass the gate.
            print(f"  cluster: --kill {wanted} never fired", file=sys.stderr)
            failed = True
    # The traces ride detached, kept out of the summary artifact so that
    # stays diffable.
    traces = summary.pop("_traces", None)
    artifacts = [(summary, args.out or f"BENCH_{summary['bench']}.json")]
    if traces_out and traces is not None:
        artifacts.append((traces, traces_out))
    for payload, path in artifacts:
        if not _save(path, payload):
            return 1
    return 1 if failed else 0


def _load_cluster_spec(path: str):
    """The cluster spec at ``path``, or None once stderr says why it
    cannot be loaded (the caller exits 2)."""
    from repro.cluster.launcher import read_spec

    try:
        return read_spec(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"cannot load cluster spec {path}: {exc}", file=sys.stderr)
        return None


def cmd_cluster(args) -> int:
    from repro.cluster.launcher import ClusterLauncher, run_worker
    from repro.cluster.node import ClusterError

    if args.worker:
        if not args.name:
            print("--worker requires --name", file=sys.stderr)
            return 2
        spec = _load_cluster_spec(args.spec)
        if spec is None:
            return 2
        try:
            return asyncio.run(run_worker(args.name, spec))
        except KeyboardInterrupt:  # pragma: no cover — signal race
            return 0
    try:
        launcher = ClusterLauncher(
            nodes=args.nodes,
            num_shards=args.shards,
            replication=args.replication,
            host=args.host,
            port_base=args.port_base,
            spec_path=args.spec,
            commit_batch=args.commit_batch,
        )
    except ClusterError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    launcher.spawn()
    try:
        asyncio.run(launcher.wait_ready())
    except ClusterError as exc:
        print(f"cluster failed to start: {exc}", file=sys.stderr)
        launcher.shutdown()
        return 1
    print(
        f"repro cluster: {len(launcher.names)} nodes up "
        f"({args.shards} shards, replication {args.replication}) — "
        f"spec written to {args.spec}; Ctrl-C to stop",
        flush=True,
    )
    try:
        while any(p.poll() is None for p in launcher.procs.values()):
            time.sleep(0.5)
    except KeyboardInterrupt:
        pass  # children get the same SIGINT and drain on their own
    codes = launcher.shutdown()
    print(
        "repro cluster: stopped ("
        + ", ".join(f"{n}={c}" for n, c in sorted(codes.items()))
        + ")"
    )
    return 0


def cmd_rebalance(args) -> int:
    from repro.cluster import ClusterCoordinator
    from repro.cluster.node import ClusterError

    spec = _load_cluster_spec(args.cluster)
    if spec is None:
        return 2

    async def _run() -> int:
        coordinator = ClusterCoordinator(spec.addresses())
        try:
            await coordinator.refresh_map()
            before = coordinator.map
            source = before.leader_of(args.shard)
            new_map = await coordinator.rebalance(args.shard, args.target)
            print(
                f"shard {args.shard}: {source} -> "
                f"{new_map.leader_of(args.shard)} "
                f"(epoch {before.epoch} -> {new_map.epoch})"
            )
            return 0
        finally:
            await coordinator.close()

    try:
        return asyncio.run(_run())
    except (ClusterError, OSError, ConnectionError) as exc:
        print(f"rebalance failed: {exc}", file=sys.stderr)
        return 1


def cmd_dash(args) -> int:
    from repro.obs.dash import run_dash

    try:
        run_dash(
            args.host,
            args.port,
            interval=args.interval,
            iterations=args.iterations,
            once=args.once,
        )
    except BrokenPipeError:
        raise  # stdout pipe closed, not a server problem — main() absorbs it
    except (ConnectionRefusedError, OSError) as exc:
        print(f"cannot reach {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_benchdiff(args) -> int:
    from repro.workloads.benchdiff import (
        diff_cluster,
        diff_core,
        diff_serve,
        format_report,
        load_artifact,
    )

    pairs = []
    if args.core:
        pairs.append(("core", args.core, args.core_baseline, diff_core))
    if args.serve:
        pairs.append(("serve", args.serve, args.serve_baseline, diff_serve))
    if args.cluster:
        pairs.append(
            ("cluster", args.cluster, args.cluster_baseline, diff_cluster)
        )
    if not pairs:
        print("nothing to diff: pass --core, --serve and/or --cluster",
              file=sys.stderr)
        return 2
    ok = True
    for name, current_path, baseline_path, differ in pairs:
        try:
            baseline = load_artifact(baseline_path)
            current = load_artifact(current_path)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot load {name} artifacts: {exc}", file=sys.stderr)
            return 2
        result = differ(baseline, current)
        print(format_report(result))
        ok = ok and result["ok"]
    return 0 if ok else 1


_FAULTCHECK_ENGINE_FLAGS = (
    "shards", "preset", "policy", "ops", "schedules_per_seed",
    "transient_rate", "no_group_commit", "no_migration",
)


def cmd_faultcheck(args) -> int:
    from repro.cluster.faultcheck import (
        ClusterFaultcheckConfig,
        run_cluster_faultcheck,
    )
    from repro.faults.harness import FaultcheckConfig, run_faultcheck

    Config, run = (
        (ClusterFaultcheckConfig, run_cluster_faultcheck)
        if args.cluster
        else (FaultcheckConfig, run_faultcheck)
    )
    engine = _mode_flags(
        args, _FAULTCHECK_ENGINE_FLAGS, "with --cluster" if args.cluster else ""
    )
    for name in ("group_commit", "migration"):
        if engine.pop(f"no_{name}", False):
            engine[name] = False
    try:
        cfg = Config(seeds=args.seeds, **engine)
    except ValueError as exc:
        args.error(str(exc))
    print(cfg.banner(), flush=True)
    report = run(cfg)
    print(report.summary())
    for violation in report.violations:
        print(f"  VIOLATION: {violation}", file=sys.stderr)
    # The report keeps its unsorted keys and repr() of what JSON cannot say.
    if args.report and not _save(
        args.report,
        json.dumps(report.as_dict(), indent=2, default=repr) + "\n",
        "schedule report",
    ):
        return 1
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Chucky (SIGMOD 2021) reproduction — inspection CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="geometry and entropy overview")
    _add_geometry(p_info)
    p_info.set_defaults(func=cmd_info)

    p_fpr = sub.add_parser("fpr", help="FPR model comparison")
    _add_geometry(p_fpr)
    p_fpr.set_defaults(func=cmd_fpr)

    p_cb = sub.add_parser("codebook", help="show the Chucky coding plan")
    _add_geometry(p_cb)
    p_cb.set_defaults(func=cmd_codebook)

    def _add_workload_args(p: argparse.ArgumentParser) -> None:
        _add_geometry(p)
        p.add_argument("--policy", choices=available_policies(),
                       default="chucky")
        p.add_argument("--ops", type=int, default=5000)
        p.add_argument("--reads", type=int, default=2000)
        p.add_argument("--buffer", type=int, default=64)
        p.add_argument("--cache-blocks", type=int, default=256)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--shards", type=int, default=1,
                       help="hash-shard the store N ways (default 1: one "
                            "monolithic store)")

    p_wl = sub.add_parser("workload", help="run a workload end to end")
    _add_workload_args(p_wl)
    p_wl.add_argument("--metrics-out", metavar="FILE", default=None,
                      help="write the observability registry as a JSON "
                           "artifact (enables instrumentation)")
    p_wl.set_defaults(func=cmd_workload)

    p_stats = sub.add_parser(
        "stats", help="run a workload, render metrics (Prometheus/JSON)"
    )
    _add_workload_args(p_stats)
    p_stats.add_argument("--format", choices=("prom", "json"), default="prom")
    p_stats.set_defaults(func=cmd_stats)

    p_trace = sub.add_parser(
        "trace", help="run a workload, dump the last N operation spans"
    )
    _add_workload_args(p_trace)
    p_trace.add_argument("--last", type=int, default=10,
                         help="number of most recent spans to dump")
    p_trace.add_argument("--request", metavar="TRACE_ID", default=None,
                         help="render one sampled request's span tree "
                              "(hex 0x... or decimal trace id) instead of "
                              "running a workload")
    p_trace.add_argument("--list", action="store_true",
                         help="list the trace ids a running server holds")
    p_trace.add_argument("--host", default="127.0.0.1",
                         help="server to fetch spans from (with --request/"
                              "--list)")
    p_trace.add_argument("--port", type=int, default=7411)
    p_trace.add_argument("--traces", metavar="FILE", default=None,
                         help="read spans from a loadgen --traces-out "
                              "artifact instead of a live server")
    p_trace.set_defaults(func=cmd_trace)

    p_serve = sub.add_parser(
        "serve", help="serve a (sharded) durable store over TCP"
    )
    _add_geometry(p_serve)
    p_serve.add_argument("--policy", choices=available_policies(),
                         default="chucky")
    p_serve.add_argument("--buffer", type=int, default=256)
    p_serve.add_argument("--cache-blocks", type=int, default=256)
    p_serve.add_argument("--shards", type=int, default=1,
                         help="hash-shard the store N ways")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7411,
                         help="TCP port (0 = OS-assigned)")
    p_serve.add_argument("--max-inflight", type=int, default=256,
                         help="server-wide in-flight request cap; excess "
                              "arrivals are shed with BUSY")
    p_serve.add_argument("--queue-depth", type=int, default=32,
                         help="per-connection pipelined-request cap")
    p_serve.add_argument("--commit-batch", type=int, default=512,
                         help="max writes coalesced into one group commit")
    p_serve.add_argument("--adapt", action="store_true",
                         help="run the adaptive-tuning controller, polled "
                              "between requests")
    p_serve.add_argument("--adapt-window", type=int, default=512,
                         help="tuning sensor window, in operations")
    p_serve.add_argument("--adapt-interval", type=float, default=0.25,
                         help="seconds between tuning polls")
    p_serve.set_defaults(func=cmd_serve)

    p_bench = sub.add_parser(
        "bench", help="run the canonical suite, write BENCH_core.json"
    )
    p_bench.add_argument("--ops", type=int, default=2000,
                         help="operations per benchmark case")
    p_bench.add_argument("--preload", type=int, default=500,
                         help="keys preloaded before measuring")
    p_bench.add_argument("--policy", choices=available_policies(),
                         default="chucky")
    p_bench.add_argument("--bits", "-m", type=float, default=10.0,
                         help="filter memory budget in bits per entry")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--repeat", type=int, default=1,
                         help="runs per case; wall metrics become medians "
                              "(counted metrics are deterministic)")
    p_bench.add_argument("--out", metavar="FILE", default="BENCH_core.json",
                         help="benchmark artifact path")
    p_bench.set_defaults(func=cmd_bench)

    p_micro = sub.add_parser(
        "microbench", help="time the hot-path operations (ns/op)"
    )
    p_micro.add_argument("--inner", type=int, default=256,
                         help="calls per timing round")
    p_micro.add_argument("--rounds", type=int, default=5,
                         help="timing rounds (best round wins)")
    p_micro.add_argument("--out", metavar="FILE", default=None,
                         help="optional JSON artifact path")
    p_micro.set_defaults(func=cmd_microbench)

    p_tune = sub.add_parser(
        "tune", help="replay a drift scenario with adaptive tuning"
    )
    p_tune.add_argument("--scenario",
                        choices=("grow-n", "phase-shift", "skew-shift",
                                 "delete-churn"),
                        default="grow-n")
    p_tune.add_argument("--preset", choices=tuple(PRESETS),
                        default="leveled",
                        help="initial merge-policy preset")
    p_tune.add_argument("--policy", choices=available_policies(),
                        default="bloom-standard",
                        help="initial filter policy (the planner may "
                             "migrate away from it)")
    p_tune.add_argument("--size-ratio", "-t", type=int, default=3)
    p_tune.add_argument("--bits", "-m", type=float, default=10.0)
    p_tune.add_argument("--buffer", type=int, default=32)
    p_tune.add_argument("--cache-blocks", type=int, default=0)
    p_tune.add_argument("--shards", type=int, default=1)
    p_tune.add_argument("--window-ops", type=int, default=512,
                        help="tuning sensor window, in operations")
    p_tune.add_argument("--hysteresis", type=float, default=0.10,
                        help="minimum modelled win to act on")
    p_tune.add_argument("--seed", type=int, default=0)
    p_tune.add_argument("--static", action="store_true",
                        help="replay the same ops without polling the "
                             "controller (baseline for comparison)")
    p_tune.add_argument("--json", metavar="FILE", default=None,
                        help="write phases + decision log as JSON")
    p_tune.set_defaults(func=cmd_tune)

    p_lg = sub.add_parser(
        "loadgen", help="drive a running server and write BENCH_serve.json"
    )
    # Flags of one mode default to SUPPRESS: the config dataclasses own
    # the defaults, and cmd_loadgen rejects a flag its mode ignores.
    only = argparse.SUPPRESS
    p_lg.add_argument("--host", default=only,
                      help="server to drive (default 127.0.0.1)")
    p_lg.add_argument("--port", type=int, default=only,
                      help="server port (default 7411)")
    p_lg.add_argument("--connections", type=int, default=8)
    p_lg.add_argument("--ops", type=int, default=5000)
    p_lg.add_argument("--workload", choices=WORKLOAD_KINDS,
                      default="ycsb-b")
    p_lg.add_argument("--key-space", type=int, default=2000)
    p_lg.add_argument("--read-fraction", type=float, default=0.95)
    p_lg.add_argument("--theta", type=float, default=0.99)
    p_lg.add_argument("--value-size", type=int, default=16)
    p_lg.add_argument("--seed", type=int, default=0)
    p_lg.add_argument("--no-preload", action="store_true",
                      help="skip seeding the key population first")
    p_lg.add_argument("--out", metavar="FILE", default=None,
                      help="latency/throughput artifact path (default "
                           "BENCH_serve.json, BENCH_cluster.json with "
                           "--cluster)")
    p_lg.add_argument("--trace-every", type=int, default=only,
                      help="head-sample 1 in N requests into the wire "
                           "trace header (default 0 = tracing off)")
    p_lg.add_argument("--trace-slow-us", type=float, default=only,
                      help="also record any request slower than this "
                           "(client-side spans only)")
    p_lg.add_argument("--traces-out", metavar="FILE", default=only,
                      help="write combined client+server span trees here")
    p_lg.add_argument("--cluster", metavar="SPEC", default=None,
                      help="drive a replicated cluster (spec JSON from "
                           "`repro cluster`) with acked-write "
                           "verification; writes BENCH_cluster.json")
    p_lg.add_argument("--kill", metavar="NODE", default=only,
                      help="cluster mode: SIGKILL this node mid-run "
                           "('auto' = leader of shard 0)")
    p_lg.add_argument("--kill-after", type=float, default=only,
                      help="cluster mode: fire the kill after this "
                           "fraction of ops, in [0, 1) (default 0.5)")
    p_lg.set_defaults(func=cmd_loadgen)

    p_cluster = sub.add_parser(
        "cluster",
        help="spawn a replicated multi-node cluster (worker subprocesses)",
    )
    p_cluster.add_argument("--nodes", type=int, default=3)
    p_cluster.add_argument("--shards", type=int, default=6,
                           help="global shard count (immutable for the "
                                "cluster's lifetime)")
    p_cluster.add_argument("--replication", type=int, default=2,
                           help="replicas per shard (leader + followers)")
    p_cluster.add_argument("--host", default="127.0.0.1")
    p_cluster.add_argument("--port-base", type=int, default=7651,
                           help="node i listens on port-base + i")
    p_cluster.add_argument("--spec", metavar="FILE", default="cluster.json",
                           help="cluster spec file (the rendezvous point "
                                "for workers, loadgen and rebalance)")
    p_cluster.add_argument("--commit-batch", type=int, default=64,
                           help="group-commit batch size per node")
    p_cluster.add_argument("--worker", action="store_true",
                           help="run one node in-process (spawned by the "
                                "launcher; needs --name)")
    p_cluster.add_argument("--name", default="",
                           help="worker mode: this node's name in the spec")
    p_cluster.set_defaults(func=cmd_cluster)

    p_rb = sub.add_parser(
        "rebalance",
        help="live-handoff a shard to another node via its leader",
    )
    p_rb.add_argument("--cluster", metavar="SPEC", default="cluster.json",
                      help="cluster spec file")
    p_rb.add_argument("--shard", type=int, required=True)
    p_rb.add_argument("--target", required=True,
                      help="node name that should lead the shard")
    p_rb.set_defaults(func=cmd_rebalance)

    p_dash = sub.add_parser(
        "dash", help="live terminal dashboard over a running server"
    )
    p_dash.add_argument("--host", default="127.0.0.1")
    p_dash.add_argument("--port", type=int, default=7411)
    p_dash.add_argument("--interval", type=float, default=1.0,
                        help="seconds between STATS polls")
    p_dash.add_argument("--iterations", type=int, default=0,
                        help="stop after N frames (0 = until Ctrl-C)")
    p_dash.add_argument("--once", action="store_true",
                        help="print a single frame without clearing the "
                             "screen (CI smoke mode)")
    p_dash.set_defaults(func=cmd_dash)

    p_bd = sub.add_parser(
        "benchdiff",
        help="diff fresh BENCH artifacts against pinned baselines",
    )
    p_bd.add_argument("--core", metavar="FILE", default=None,
                      help="fresh BENCH_core.json to check")
    p_bd.add_argument("--core-baseline", metavar="FILE",
                      default="benchmarks/baselines/BENCH_core.json")
    p_bd.add_argument("--serve", metavar="FILE", default=None,
                      help="fresh BENCH_serve.json to check")
    p_bd.add_argument("--serve-baseline", metavar="FILE",
                      default="benchmarks/baselines/BENCH_serve.json")
    p_bd.add_argument("--cluster", metavar="FILE", default=None,
                      help="fresh BENCH_cluster.json to check")
    p_bd.add_argument("--cluster-baseline", metavar="FILE",
                      default="benchmarks/baselines/BENCH_cluster.json")
    p_bd.set_defaults(func=cmd_benchdiff)

    p_fc = sub.add_parser(
        "faultcheck",
        help="explore crash schedules and check recovery invariants",
    )
    p_fc.add_argument("--seeds", type=int, default=20,
                      help="independent workload seeds to explore")
    # Single-node knobs default to SUPPRESS: FaultcheckConfig owns the
    # defaults, and cmd_faultcheck rejects them with --cluster.
    p_fc.add_argument("--shards", type=int, default=only,
                      help="hash-shard the store N ways (default 1)")
    p_fc.add_argument("--preset", choices=tuple(PRESETS),
                      default=only,
                      help="merge-policy preset of the store under test "
                           "(default leveled)")
    p_fc.add_argument("--policy", choices=available_policies(),
                      default=only, help="filter policy (default chucky)")
    p_fc.add_argument("--ops", type=int, default=only,
                      help="operations per seeded workload (default 40)")
    p_fc.add_argument("--schedules-per-seed", type=int, default=only,
                      help="crash schedules explored per seed, on top of "
                           "the no-crash trace run (default 3)")
    p_fc.add_argument("--transient-rate", type=float, default=only,
                      help="per-I/O probability of an injected transient "
                           "error, absorbed by retry-with-backoff "
                           "(default 0.05)")
    p_fc.add_argument("--no-group-commit", action="store_true",
                      default=only,
                      help="skip the per-seed asyncio group-commit schedule")
    p_fc.add_argument("--no-migration", action="store_true", default=only,
                      help="skip the per-seed crashed-filter-migration "
                           "schedule")
    p_fc.add_argument("--report", metavar="FILE", default=None,
                      help="write the full schedule report as JSON")
    p_fc.add_argument("--cluster", action="store_true",
                      help="run the replicated-cluster kill campaign "
                           "instead (node kills mid-replication / "
                           "mid-handoff / mid-promotion)")
    p_fc.set_defaults(func=cmd_faultcheck)
    for command in sub.choices.values():
        # A bad flag value is a usage error of the command's own parser.
        command.set_defaults(error=command.error)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe mid-listing; not an
        # error.  Detach stdout so the interpreter does not raise again
        # while flushing at exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
