"""The four in-process workloads: one store, one driving thread, closed
loop. Every answer is compared with a model dict while the run goes, and
every run ends with crash -> recover -> re-read of every model key (plus
a batched cross-check and the filter-exactness invariant), so a wrong
answer anywhere makes the run incorrect.
"""

from __future__ import annotations

import gc
import random

from harness import (
    TimedPhase,
    ZipfKeys,
    median,
    new_latencies,
    now,
    end_to_end_metrics,
    peak_rss_mb,
    store_config,
    stream_digest,
    value_for,
)

#: Untraced runs set up this many times and report the median.
SETUP_REPEATS = 3
BATCH = 64
#: Slices generated per ``prepare`` call.
GROUP = 8
#: Slices of the timed phase whose counted I/Os are reported.
COUNTED_SLICES = 6 * GROUP
#: Ops between two calibrations while preloading or re-reading.
CHUNK = 2_048
#: Keys re-read after recovery: every key of the model up to this many, a
#: seeded sample of this size beyond (ingest's model outgrows the time a
#: run may take; the filter-exactness check still covers every entry).
REREAD_CAP = 50_000

#: name -> (preloaded keys, ops per slice). Sized on a 2-core CPython host
#: so a slice is 60-80 ms: the host's speed changes on that time scale.
SIZES = {
    "lookup-miss": (40_000, 4_000),
    "lookup-hit": (40_000, 2_560),
    "lookup-batch": (40_000, 120 * BATCH),
    "ingest": (24_000, 1_200),
}
HOT_RANGE = 8_192
#: Ingest only inserts new keys. Updates and deletes make merges remove
#: filter entries, and a removal next to an entry that spilled into the
#: filter's additional hash table makes ``ChuckyFilter.query`` miss a live
#: key (README, "Findings") — a failed operation, which a benchmark
#: workload may not have. With nothing ever removed, a bucket that was
#: full when an entry spilled stays full, and the bug cannot fire.


def fresh_key(index: int) -> int:
    """The ``index``-th key ingest creates: a bijection that scatters
    consecutive indexes over the key space."""
    return (index * 0x9E3779B1) & 0x7FFFFFFF


def aggregate(snapshot):
    """A store's ``IOSnapshot`` (a sharded store's is the sum of its shards')."""
    return getattr(snapshot, "aggregate", snapshot)


def verify_after_crash(store, config, model, rng, calibrator) -> dict:
    """Crash, recover, then re-read every key the model knows (scalar
    path), a sample through the batched path, and compare the filter
    with the tree."""
    from repro.engine.config import recover_store
    from repro.faults.invariants import InvariantChecker

    state = store.crash()
    t0 = now()
    store = recover_store(state, config)
    recover_s = (now() - t0) / 1e9  # as measured: only a per-layer metric
    before = aggregate(store.snapshot())
    get, lat = store.get, new_latencies()
    items = list(model.items())
    if len(items) > REREAD_CAP:
        items = rng.sample(items, REREAD_CAP)
    bad = 0

    def reread(chunk) -> None:
        nonlocal bad
        for key, want in chunk:
            t = now()
            value = get(key)
            lat.append(now() - t)
            if value != want:
                bad += 1

    for start in range(0, len(items), CHUNK):
        chunk = items[start : start + CHUNK]
        calibrator.bracket(lambda: reread(chunk), [lat])
    after = aggregate(store.snapshot())
    sample = rng.sample(list(model), min(len(model), 32 * BATCH))
    # Every other probe moves to a neighbouring key, almost always absent.
    sample = [key + 1 if i % 2 else key for i, key in enumerate(sample)]
    for start in range(0, len(sample), BATCH):
        keys = sample[start : start + BATCH]
        for key, value in zip(keys, store.get_batch(keys)):
            if value != model.get(key):
                bad += 1
    violations = InvariantChecker().check_filter_exactness(store)
    return {
        "store": store,
        "recover_s": recover_s,
        "latencies": lat,
        "read_io": (before, after),
        "attempted": len(items) + len(sample) + 1,
        "failed": bad + len(violations),
    }


class InProcessRun:
    def __init__(self, name, args, calibrator, recorder):
        from repro.engine.config import build_store

        self._build_store = build_store
        self.name = name
        self.seconds = args.seconds
        self.calibrator = calibrator
        self.recorder = recorder
        self.inject_fault = args.inject_fault
        self.rng = random.Random(args.seed)
        preload, slice_ops = SIZES[name]
        self.preload = max(BATCH, int(preload * args.scale))
        self.slice_ops = max(BATCH, int(slice_ops * args.scale))
        self.config = store_config()
        self.model: dict[int, str] = {}
        self.read_lat = new_latencies()
        self.write_lat = new_latencies()
        self.check_lat = new_latencies()
        self.attempted = 0
        self.failed = 0
        self.input_digest = 0
        self.counted: dict[str, float] = {}
        self.store = None

    # -- set-up ----------------------------------------------------------

    def _preload_keys(self) -> list[int]:
        if self.name == "ingest":
            keys = [fresh_key(i) for i in range(self.preload)]
        else:
            keys = [2 * k for k in range(self.preload)]
        self.rng.shuffle(keys)
        return keys

    def set_up(self) -> float:
        """Build + preload + flush; returns seconds at reference speed.
        The model is rebuilt with the store, so the last set-up is the
        one the run uses."""
        keys = self._preload_keys()
        self.input_digest = stream_digest(self.input_digest, keys)
        model: dict[int, str] = {}
        lat = self.write_lat
        store = self._build_store(self.config)
        self.birth_io = store.snapshot()
        put = store.put

        def load(chunk, last: bool) -> None:
            for key in chunk:
                value = value_for(key)
                t = now()
                put(key, value)
                lat.append(now() - t)
                model[key] = value
            if last:
                store.flush()

        total_ns = 0.0
        for start in range(0, len(keys), CHUNK):
            chunk = keys[start : start + CHUNK]
            last = start + CHUNK >= len(keys)
            total_ns += self.calibrator.bracket(lambda: load(chunk, last), [lat])
        self.store, self.model = store, model
        return total_ns / 1e9

    def run(self) -> dict:
        recorder = self.recorder
        repeats = SETUP_REPEATS if recorder is None else 1
        if recorder is not None:
            recorder.begin_phase("setup")
            recorder.set_tracing(True)
        setups = []
        for _ in range(repeats):
            self.store = None
            gc.collect()  # peak RSS is one store's, not three
            setups.append(self.set_up())
        self.setup_io = self.store.snapshot()
        self.next_fresh = self.preload
        if self.name == "lookup-batch":
            width = min(HOT_RANGE, self.preload)
            base = self.rng.randrange(self.preload - width + 1)
            self.zipf = ZipfKeys([2 * (base + i) for i in range(width)], self.rng)
        if self.inject_fault:
            self.model[next(iter(self.model))] = "not-what-was-written"

        if recorder is not None:
            recorder.begin_phase("timed")
        phase = TimedPhase(
            self.seconds, COUNTED_SLICES, self.calibrator, recorder,
            steady=self.name != "ingest",
        )
        prepare, execute = {
            "lookup-miss": (self._prepare_lookup, self._execute_gets),
            "lookup-hit": (self._prepare_lookup, self._execute_gets),
            "lookup-batch": (self._prepare_batches, self._execute_batches),
            "ingest": (self._prepare_writes, self._execute_writes),
        }[self.name]
        phase.run(
            lambda _index: [prepare() for _ in range(GROUP)],
            execute,
            self._at_counted_point,
            [self.read_lat, self.write_lat],
        )
        self.attempted += phase.ops

        if recorder is not None:
            recorder.begin_phase("check")
        check = verify_after_crash(
            self.store, self.config, self.model, self.rng, self.calibrator
        )
        self.store = check["store"]
        self.check_lat = check["latencies"]
        self.check_io = check["read_io"]
        self.attempted += check["attempted"]
        self.failed += check["failed"]
        return {
            "phase": phase,
            "setup_s": median(setups),
            "recover_s": check["recover_s"],
        }

    # -- lookups ---------------------------------------------------------

    def _prepare_lookup(self) -> list[int]:
        odd = 1 if self.name == "lookup-miss" else 0
        randrange, top = self.rng.randrange, self.preload
        keys = [2 * randrange(top) + odd for _ in range(self.slice_ops)]
        self.input_digest = stream_digest(self.input_digest, keys)
        return keys

    def _execute_gets(self, keys) -> int:
        get, expect, lat = self.store.get, self.model.get, self.read_lat
        bad = 0
        for key in keys:
            t = now()
            value = get(key)
            lat.append(now() - t)
            if value != expect(key):
                bad += 1
        self.failed += bad
        return len(keys)

    def _prepare_batches(self) -> list[list[int]]:
        keys = self.zipf.draw(self.slice_ops)
        rand = self.rng.random
        keys = [key + 1 if rand() < 0.5 else key for key in keys]
        self.input_digest = stream_digest(self.input_digest, keys)
        return [keys[i : i + BATCH] for i in range(0, len(keys), BATCH)]

    def _execute_batches(self, batches) -> int:
        get_batch, expect, lat = self.store.get_batch, self.model.get, self.read_lat
        bad = 0
        for keys in batches:
            t = now()
            values = get_batch(keys)
            lat.append((now() - t) // len(keys))
            for key, value in zip(keys, values):
                if value != expect(key):
                    bad += 1
        self.failed += bad
        return sum(len(keys) for keys in batches)

    # -- ingest ----------------------------------------------------------

    def _prepare_writes(self) -> list[tuple[int, str]]:
        """Inserts of keys never seen before. The loop is closed and
        single-threaded, so the model can be advanced here, ahead of the
        timed execution."""
        first = self.next_fresh
        self.next_fresh += self.slice_ops
        ops = [(key, value_for(key)) for key in map(fresh_key, range(first, self.next_fresh))]
        self.model.update(ops)
        self.input_digest = stream_digest(self.input_digest, [k for k, _ in ops])
        return ops

    def _execute_writes(self, ops) -> int:
        put, lat = self.store.put, self.write_lat
        for key, value in ops:
            t = now()
            put(key, value)
            lat.append(now() - t)
        return len(ops)

    # -- metrics ----------------------------------------------------------

    def _at_counted_point(self) -> None:
        """Counted metrics after a fixed number of ops: exact per seed."""
        store = self.store
        self.counted_io = store.snapshot()
        self.counted_digest = self.input_digest
        self.counted = {
            "storage_writes_per_write":
                self.counted_io.storage_writes / self.counted_io.updates,
            "filter_bits_per_entry": store.policy.size_bits / store.num_entries,
            # The high-water mark after a fixed amount of work, not after
            # however much the host got through in the time it had.
            "peak_rss_mb": peak_rss_mb(),
        }

    def end_to_end(self, outcome) -> dict[str, float]:
        # Ingest's only reads are its post-recovery re-read.
        reads = self.check_lat if self.name == "ingest" else self.read_lat
        return end_to_end_metrics(
            outcome["setup_s"], outcome["phase"], reads, self.write_lat, self.counted
        )
