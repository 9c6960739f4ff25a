#!/usr/bin/env python3
"""The repo's end-to-end benchmark: one workload, one seed, one run.

    python3 benchmarks/e2e/run.py --workload lookup-miss --seed 1 \\
        --seconds 8 --trace 0

prints every metric by name with its unit, and as the last line of
standard output one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. ``--trace 0`` measures the end-to-end metrics with no
instrumentation; ``--trace 1`` is a separate run that wraps the layers'
public methods with spans and reports the per-layer metrics. Which
metrics exist, their units, directions and bounds are declared in
``BENCHMARK.json``; see ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

import harness

harness.require_repo()

import replays  # noqa: E402
import serve  # noqa: E402
from harness import OUT, median, percentile  # noqa: E402
from inproc import InProcessRun  # noqa: E402
from spans import LAYERS, SpanRecorder  # noqa: E402


TIME_UNITS = ("ns", "us", "ms", "s")


def parse_args(argv=None):
    manifest = harness.load_manifest()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=[w["name"] for w in manifest["workloads"]],
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(manifest["run_seconds"]),
        help="measured time of the timed phase",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink preloads and slice sizes (smoke runs only)",
    )
    parser.add_argument(
        "--inject-fault", action="store_true",
        help="corrupt one model entry: the run must then fail (used by "
             "the smoke test to prove answers are checked)",
    )
    return parser.parse_args(argv), manifest


# ----------------------------------------------------------------------
# Per-layer metrics from a traced run
# ----------------------------------------------------------------------


def ratio(numerator: float, denominator: float) -> float:
    """0.0 when the denominator's boundary was never crossed (a smoke run
    too small to miss the block cache, say)."""
    return numerator / denominator if denominator else 0.0


def span_metrics(rec: SpanRecorder) -> dict[str, float]:
    """Metrics read straight off the recorded spans. Each is taken from
    the phases ``rec.scope`` picks: the timed phase when it crossed the
    boundary in question, every phase otherwise."""
    reads_in = rec.scope("lsm.memtable.get")
    writes_in = rec.scope("lsm.memtable.put")
    batches_in = rec.scope("chucky.filter.query_many")
    reads = rec.count("lsm.memtable.get", reads_in)
    writes = rec.count("lsm.memtable.put", writes_in)
    probes = rec.count("lsm.run.get", reads_in)
    cache_gets = rec.count("lsm.block_cache.get", reads_in)
    many_keys = rec.count("chucky.filter.query_many.keys", batches_in)
    put_names = ("engine.kvstore.put", "engine.kvstore.delete",
                 "engine.kvstore.put_batch")
    put_durations = sorted(d for n in put_names for d in rec.durations[n])

    def mean_us(name: str) -> float:
        return rec.mean_us(name, rec.scope(name))

    def per_write(value: float) -> float:
        return ratio(value, writes)

    return {
        "chucky.filter.query_us": mean_us("chucky.filter.query"),
        "chucky.filter.query_many_us_per_key":
            ratio(rec.total_ns("chucky.filter.query_many", batches_in), many_keys)
            / 1e3,
        "chucky.filter.maintain_us_per_write": per_write(
            rec.total_ns("chucky.policy.handle_event", writes_in)
            + rec.total_ns("chucky.policy.after_write", writes_in)
        ) / 1e3,
        "chucky.filter.insert_calls_per_write":
            per_write(rec.count("chucky.filter.insert", writes_in)),
        "chucky.filter.update_lid_calls_per_write":
            per_write(rec.count("chucky.filter.update_lid", writes_in)),
        "chucky.filter.remove_calls_per_write":
            per_write(rec.count("chucky.filter.remove", writes_in)),
        "chucky.filter.rebuilds": rec.count("chucky.policy.rebuild_from_tree"),
        "lsm.memtable.get_us": mean_us("lsm.memtable.get"),
        "lsm.memtable.put_us": mean_us("lsm.memtable.put"),
        "lsm.tree.occupied_runs_us": mean_us("lsm.tree.occupied_runs"),
        "lsm.run.get_us": mean_us("lsm.run.get"),
        "lsm.run.probes_per_read": ratio(probes, reads),
        "lsm.run.useful_probe_ratio":
            ratio(rec.count("lsm.run.get.found", reads_in), probes),
        "lsm.block_cache.hit_ratio": ratio(
            cache_gets - rec.count("lsm.storage.read_block", reads_in), cache_gets
        ),
        "lsm.storage.read_block_us": mean_us("lsm.storage.read_block"),
        "lsm.tree.flush_self_us_per_write":
            per_write(rec.self_ns("lsm.tree.flush", writes_in)) / 1e3,
        "lsm.tree.merges_per_kwrite":
            1e3 * per_write(rec.count("lsm.tree.merges", writes_in)),
        "lsm.tree.entries_rewritten_per_write":
            per_write(rec.count("lsm.tree.entries_rewritten", writes_in)),
        "lsm.storage.write_run_us_per_write":
            per_write(rec.total_ns("lsm.storage.write_run", writes_in)) / 1e3,
        "lsm.wal.append_us": mean_us("lsm.wal.append"),
        "engine.kvstore.get_self_us": rec.self_mean_us(
            "engine.kvstore.get", rec.scope("engine.kvstore.get")
        ),
        "engine.kvstore.put_self_us":
            ratio(
                sum(rec.self_ns(n, writes_in) for n in put_names),
                sum(rec.count(n, writes_in) for n in put_names),
            ) / 1e3,
        # Durations are kept per boundary, not per phase: every call the
        # process made, whichever phase it was in.
        "engine.kvstore.get_p99_us":
            percentile(sorted(rec.durations["engine.kvstore.get"]), 0.99) / 1e3,
        "engine.kvstore.put_p99_us": percentile(put_durations, 0.99) / 1e3,
        # The flush + merge stall a foreground write meets.
        "engine.kvstore.put_p999_us": percentile(put_durations, 0.999) / 1e3,
    }


def filter_state(store) -> dict[str, float]:
    """Occupancy and waste of the live filter(s) at the end of the run."""
    shards = getattr(store, "shards", [store])
    filters = [shard.policy.filter for shard in shards]
    return {
        "chucky.filter.load_factor": median(f.load_factor for f in filters),
        "chucky.filter.overflow_buckets": sum(len(f.overflow) for f in filters),
        "chucky.filter.aht_entries":
            sum(len(v) for f in filters for v in f.aht.values()),
        "chucky.filter.maintenance_misses":
            sum(f.maintenance_misses for f in filters),
    }


def counted_io(read_io, write_io) -> dict[str, float]:
    """Counted I/Os per op from one pure-read and one pure-write window,
    each a (before, after) pair of ``IOSnapshot``."""
    def memory(pair):
        return sum(pair[1].memory.values()) - sum(pair[0].memory.values())

    reads = read_io[1].queries - read_io[0].queries
    writes = write_io[1].updates - write_io[0].updates
    return {
        "engine.memory_ios_per_read": memory(read_io) / reads,
        "engine.storage_reads_per_read":
            (read_io[1].storage_reads - read_io[0].storage_reads) / reads,
        "engine.false_positives_per_read":
            (read_io[1].false_positives - read_io[0].false_positives) / reads,
        "engine.memory_ios_per_write": memory(write_io) / writes,
    }


def wall_budget(rec: SpanRecorder, phase, server_share: float) -> dict[str, float]:
    """Where the traced timed phase's wall time went: each layer's self
    time, the driver's own remainder (loop, key checks, the wrappers'
    bookkeeping), and — for the served workload — everything outside the
    engine. The shares sum to 1."""
    layer_ns = rec.layer_self_ns("timed")
    in_spans = sum(layer_ns.values())
    engine_side = 1.0 - server_share
    if server_share:
        # The replica's replay loop is not part of the served system:
        # split the engine's share of the wire latency by self time only.
        wall = in_spans
    else:
        wall = phase.traced.wall_ns
    out = {
        f"share.{layer}": engine_side * layer_ns[layer] / wall for layer in LAYERS
    }
    out["share.server"] = server_share
    out["share.driver"] = engine_side * (wall - in_spans) / wall
    out["trace.accounted_ratio"] = in_spans / phase.traced.wall_ns
    out["trace.overhead_ratio"] = phase.ops_per_s / phase.traced_ops_per_s
    return out


def at_reference_speed(values, slowdown: float, units) -> dict[str, float]:
    """Bring the time-unit metrics among ``values`` to reference speed."""
    return {
        name: value / slowdown if units[name] in TIME_UNITS else value
        for name, value in values.items()
    }


def layer_metrics(args, calibrator, rec, units, *, store, phase, read_io,
                  write_io, server_share, read_keys, recover_s, server_numbers):
    """Every per-layer metric of a traced run. Spans were timed as they
    ran, all through the process, so one factor brings them to reference
    speed; each replay is a few milliseconds and gets the slowdown
    measured around it."""
    rec.set_tracing(False)
    run_slowdown = calibrator.run_slowdown()
    out = at_reference_speed(
        {
            **span_metrics(rec),
            **wall_budget(rec, phase, server_share),
            "engine.recover_ms": recover_s * 1e3,
        },
        run_slowdown, units,
    )
    out["trace.host_slowdown"] = run_slowdown
    out.update(filter_state(store))
    out.update(counted_io(read_io, write_io))
    filt = replays.filter_of(store)
    for replay in (
        lambda: replays.hashing_and_codec(filt, read_keys),
        lambda: replays.protocol(read_keys, read_keys),
        lambda: {"engine.sharded.route_us": replays.route_us(store, read_keys)},
        lambda: {"obs.enabled_overhead_ratio": replays.obs_overhead_ratio(args.seed)},
        server_numbers,
    ):
        values, slowdown = calibrator.around(replay)
        out.update(at_reference_speed(values, slowdown, units))
    return out


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


def run_in_process(args, calibrator, recorder, units):
    run = InProcessRun(args.workload, args, calibrator, recorder)
    outcome = run.run()
    layer = None
    if recorder is not None:
        # One pure-read and one pure-write window per workload: lookups
        # write only while setting up, ingest reads only when re-reading.
        window = (run.setup_io, run.counted_io)
        if args.workload == "ingest":
            read_io, write_io = run.check_io, window
        else:
            read_io, write_io = window, (run.birth_io, run.setup_io)
        layer = layer_metrics(
            args, calibrator, recorder, units,
            store=run.store, phase=outcome["phase"],
            read_io=read_io, write_io=write_io, server_share=0.0,
            read_keys=list(run.model)[: replays.SAMPLE],
            recover_s=outcome["recover_s"],
            server_numbers=lambda: serve.standalone_probe(args.seed, args.scale),
        )
    return run, outcome, layer


def run_served(args, calibrator, recorder, units):
    run = serve.ServeRun(args, calibrator, recorder is not None)
    outcome = run.run()
    if run.server_exit != 0:
        run.failed += 1  # the server did not drain cleanly
    layer = None
    if recorder is not None:
        replica = run.replay(recorder)
        wire_us = median(
            [harness.p50_us(run.get_lat), harness.p50_us(run.put_lat)]
        )
        engine_us = 1e6 / replica["phase"].ops_per_s
        layer = layer_metrics(
            args, calibrator, recorder, units,
            store=replica["store"], phase=replica["phase"],
            read_io=replica["read_io"], write_io=replica["write_io"],
            server_share=1.0 - engine_us / wire_us,
            read_keys=run.preload_keys[: replays.SAMPLE],
            recover_s=replica["recover_s"],
            server_numbers=lambda: {},  # measured on the live server, below
        )
        layer.update(at_reference_speed(run.layer, run.layer_slowdown, units))
    return run, outcome, layer


def main(argv=None) -> int:
    args, manifest = parse_args(argv)
    # A terminated benchmark must still reap its server subprocess.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    served = args.workload == "serve-mixed"
    calibrator = harness.Calibrator(serve.split_cpus() if served else ())
    recorder = SpanRecorder() if args.trace else None
    runner = run_served if served else run_in_process
    units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    run, outcome, layer = runner(args, calibrator, recorder, units)

    declared = manifest["per_layer" if args.trace else "end_to_end"]
    values = layer if args.trace else run.end_to_end(outcome)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"benchmark bug: undeclared or missing metrics {missing}")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    }
    correct = run.failed == 0
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }

    phase = outcome["phase"]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    harness.write_json(OUT / f"result-{tag}.json", {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "host": harness.fingerprint(),
        "git_commit": harness.git_commit(),
        "store_shape": harness.STORE_SHAPE,
        "serve_flags": serve.SERVE_FLAGS,
        "op_counts": {
            "preload": run.preload,
            "timed_ops": phase.ops,
            "attempted": run.attempted,
        },
        # Of the inputs up to the counted point: the part every run of
        # this seed generates, however far its time budget takes it.
        "input_digest": run.counted_digest,
        "host_slowdown": calibrator.run_slowdown(),
        "raw_ops_per_s": phase.raw_ops_per_s,
        "failed_ops_ratio": run.failed / run.attempted,
    })
    if recorder is not None:
        harness.write_json(OUT / f"trace-{args.workload}.json", {
            "workload": args.workload,
            "seed": args.seed,
            "host": harness.fingerprint(),
            "git_commit": harness.git_commit(),
            **recorder.as_dict(),
        })

    for name, metric in metrics.items():
        print(f"{name:<44} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
