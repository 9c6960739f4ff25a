"""The ``serve-mixed`` workload and the server probe.

A fresh ``python -m repro serve`` subprocess per set-up (a reused server
drifts), preloaded over the wire, then driven closed-loop by two
``AsyncClient`` connections — one per core of the sizing host — from
this process. Each connection owns a disjoint half of the key space, so
its model is exact without coordination. The subprocess is reaped on
every path out of here.
"""

from __future__ import annotations

import asyncio
import os
import random
import select
import signal
import subprocess
import sys
import time

from inproc import aggregate, verify_after_crash
from harness import (
    ROOT,
    SRC,
    TimedPhase,
    ZipfKeys,
    median,
    new_latencies,
    now,
    end_to_end_metrics,
    p50_us,
    stream_digest,
    value_for,
)

CLIENTS = 2
PRELOAD = 12_000
PROBE_PRELOAD = 2_000
MIN_KEYS = 256  # floor of a scaled-down preload (smoke runs)
#: The probe's PUTs write new keys too, far above any the run uses.
PROBE_NEW_KEYS = 1 << 40
SLICE_OPS = 150  # per connection: 60-80 ms, like the in-process slices
GROUP = 4  # slices generated per ``prepare`` call
#: Where the counted metrics are read. Each shard's last-level merge lifts
#: the served write amplification by a tenth in one step, around slices
#: 15-18 of the timed phase; read there, the metric flips with the seed.
#: Slice 24 is six slices past those steps and a dozen before the next.
COUNTED_SLICES = 6 * GROUP
BUSY_RETRIES = 50
#: Well under the 256-entry buffer: ``put_batch`` flushes before a batch
#: that does not fit, so 256-key batches (some 128 per shard) flush
#: memtables anywhere from half full to full, and the tree's shape — its
#: write amplification with it — then moves 12 % with the seed.
PRELOAD_BATCH = 32
#: The served set-up (process spawn + a preload done by another process)
#: spreads several times wider than the in-process one, so it gets more
#: repeats than their three.
SETUP_REPEATS = 5
PIPELINE = 16  # in-flight GETs per connection during the final sweep
PROBE_CALLS = 1_000
STARTUP_TIMEOUT_S = 60.0

#: The shared store shape as ``repro serve`` spells it (its block size is
#: fixed at 16 entries; its cache defaults to the shared 256 blocks).
SERVE_FLAGS = [
    "--shards", "2", "--size-ratio", "4", "--runs-per-level", "3",
    "--runs-at-last", "1", "--buffer", "256", "--policy", "chucky",
    "--bits", "10", "--port", "0",
]
SERVE_BLOCK_ENTRIES = 16
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def split_cpus() -> tuple[int, ...]:
    """Pin this process to the first CPU it may use and return (that one,
    the last one — for the server), or () on a single CPU. Left to itself
    the scheduler sometimes stacks client and server on one vCPU for a
    whole run, and that run is 40 % slower than its neighbours."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return ()
    os.sched_setaffinity(0, {cpus[0]})
    return (cpus[0], cpus[-1])


class ServerProcess:
    """One ``repro serve`` subprocess; use as a context manager."""

    def __init__(self, cpus: tuple[int, ...] = ()) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *SERVE_FLAGS],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            cwd=str(ROOT),
        )
        try:
            if cpus:
                os.sched_setaffinity(self.proc.pid, {cpus[-1]})
            self.port = self._await_listening()
        except BaseException:
            self.stop()
            raise

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _await_listening(self) -> int:
        """Parse the port out of the 'listening on host:port' line."""
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        fd = self.proc.stdout.fileno()
        seen = b""
        while b"\n" not in seen:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RuntimeError(f"repro serve did not start: {seen!r}")
            if select.select([fd], [], [], min(remaining, 0.5))[0]:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError(f"repro serve exited: {seen!r}")
                seen += chunk
        line = seen.split(b"\n", 1)[0].decode()
        if "listening on" not in line:
            raise RuntimeError(f"unexpected first line from repro serve: {line!r}")
        return int(line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1])

    def stop(self) -> int:
        """Drain with SIGINT, kill after a grace period, always reap.
        Returns the exit code."""
        proc = self.proc
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        return proc.returncode

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as fh:
            # comm may hold spaces; the numeric fields follow the last ')'.
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")


async def _preload(port: int, keys: list[int]):
    """Connect and load ``keys`` by ``put_batch``; returns the client."""
    from repro.server.client import AsyncClient

    client = await AsyncClient.connect("127.0.0.1", port)
    for start in range(0, len(keys), PRELOAD_BATCH):
        chunk = keys[start : start + PRELOAD_BATCH]
        await client.put_batch([(key, value_for(key)) for key in chunk])
    return client


async def probe(client, keys: list[int]) -> dict[str, float]:
    """One connection, one request at a time: PING is the floor (client +
    asyncio + framing + loopback), GET adds the read, PUT adds group
    commit and the WAL."""
    timings = {"ping": new_latencies(), "get": new_latencies(), "put": new_latencies()}
    for key in keys[:PROBE_CALLS]:
        t = now()
        await client.ping()
        timings["ping"].append(now() - t)
        t = now()
        await client.get(key)
        timings["get"].append(now() - t)
        t = now()
        await client.put(PROBE_NEW_KEYS + key, value_for(key))  # see ServeRun
        timings["put"].append(now() - t)
    ping, get, put = (p50_us(timings[name]) for name in ("ping", "get", "put"))
    return {
        "server.ping_rtt_p50_us": ping,
        "server.get_over_ping_us": get - ping,
        "server.put_over_get_us": put - get,
    }


def server_counters(before: dict, after: dict) -> dict[str, float]:
    """Server-side counts between two STATS payloads."""
    delta = {
        name: after["server"][name] - before["server"][name]
        for name in ("commit_items", "commit_batches", "shed", "errors")
    }
    return {
        "server.group_commit.batch_size_mean":
            delta["commit_items"] / delta["commit_batches"],
        "server.shed_total": delta["shed"],
        "server.errors_total": delta["errors"],
    }


def standalone_probe(seed: int, scale: float) -> dict[str, float]:
    """The server-stack numbers for a run that has no server of its own:
    a fresh server, a small preload, the probe."""
    rng = random.Random(seed)
    keys = [2 * k for k in range(max(MIN_KEYS, int(PROBE_PRELOAD * scale)))]
    rng.shuffle(keys)

    async def drive(server: ServerProcess) -> dict[str, float]:
        client = await _preload(server.port, keys)
        try:
            before = await client.stats()
            cpu0, own0 = server.cpu_seconds(), time.process_time()
            out = await probe(client, keys)
            kops = 3 * min(PROBE_CALLS, len(keys)) / 1e3
            out["server.cpu_s_per_kop"] = (server.cpu_seconds() - cpu0) / kops
            out["client.cpu_s_per_kop"] = (time.process_time() - own0) / kops
            out.update(server_counters(before, await client.stats()))
            out["server.client.busy_retries"] = 0
            return out
        finally:
            await client.close()

    with ServerProcess(split_cpus()) as server:
        return asyncio.run(drive(server))


class ServeRun:
    def __init__(self, args, calibrator, traced):
        self.seconds = args.seconds
        self.calibrator = calibrator
        self.traced = traced
        self.inject_fault = args.inject_fault
        self.rng = random.Random(args.seed)
        self.preload = max(2 * MIN_KEYS, int(PRELOAD * args.scale))
        self.slice_ops = max(16, int(SLICE_OPS * args.scale))
        self.get_lat = new_latencies()
        self.put_lat = new_latencies()
        self.attempted = 0
        self.failed = 0
        self.busy_retries = 0
        self.input_digest = 0
        self.counted: dict[str, float] = {}
        #: Every slice the wire run executed, for the traced replica.
        self.slices: list[list[list[tuple[int, bytes | None]]]] = []
        self.layer: dict[str, float] = {}
        self.server: ServerProcess | None = None
        self.clients: list = []
        self.server_exit: int | None = None
        self._loop = asyncio.new_event_loop()

    def _await(self, coroutine):
        return self._loop.run_until_complete(coroutine)

    # -- set-up and tear-down ----------------------------------------------

    def _set_up(self) -> None:
        """A fresh server, preloaded over the wire."""
        keys = list(range(self.preload))
        self.rng.shuffle(keys)
        self.input_digest = stream_digest(self.input_digest, keys)
        self.preload_keys = keys
        self.server = ServerProcess(self.calibrator.cpus)
        self.clients = [self._await(_preload(self.server.port, keys))]

    def _tear_down(self) -> None:
        """Close the connections, drain the server, reap it."""
        try:
            for client in self.clients:
                self._await(client.close())
        finally:
            self.clients = []
            if self.server is not None:
                self.server_exit = self.server.stop()
                self.server = None

    def run(self) -> dict:
        try:
            setups = []
            for _ in range(1 if self.traced else SETUP_REPEATS):
                self._tear_down()
                setups.append(self.calibrator.bracket(self._set_up) / 1e9)
            outcome = self._drive()
            outcome["setup_s"] = median(setups)
            return outcome
        finally:
            try:
                self._tear_down()
            finally:
                self._loop.close()

    # -- the timed phase ----------------------------------------------------

    def _drive(self) -> dict:
        from repro.server.client import AsyncClient

        server = self.server
        while len(self.clients) < CLIENTS:
            self.clients.append(
                self._await(AsyncClient.connect("127.0.0.1", server.port))
            )
        # Connection c owns the keys congruent to c, preloaded or new.
        owned = [
            [k for k in range(self.preload) if k % CLIENTS == c]
            for c in range(CLIENTS)
        ]
        self.next_fresh = [self.preload + c for c in range(CLIENTS)]
        self.models = [
            {key: value_for(key).encode() for key in keys} for keys in owned
        ]
        self.zipfs = [ZipfKeys(keys, self.rng) for keys in owned]
        if self.inject_fault:
            self.models[0][owned[0][0]] = b"not-what-was-written"

        before = self._await(self.clients[0].stats())
        mark = len(self.calibrator.samples)
        cpu0, own0 = server.cpu_seconds(), time.process_time()
        phase = TimedPhase(self.seconds, COUNTED_SLICES, self.calibrator)
        phase.run(
            lambda _index: [self._prepare_slice() for _ in range(GROUP)],
            lambda work: self._await(self._execute_slice(work)),
            lambda: self._at_counted_point(self._await(self.clients[0].stats())),
            [self.get_lat, self.put_lat],
        )
        kops = phase.ops / 1e3
        self.layer["server.cpu_s_per_kop"] = (server.cpu_seconds() - cpu0) / kops
        self.layer["client.cpu_s_per_kop"] = (time.process_time() - own0) / kops
        self.attempted += phase.ops

        stats = self._await(self.clients[0].stats())
        self.layer.update(server_counters(before, stats))
        self.layer["server.client.busy_retries"] = self.busy_retries
        if stats["server"]["errors"] or stats["server"]["commit_failed_items"]:
            self.failed += 1
        self._await(self._sweep())
        if self.traced:
            self.layer.update(self._await(probe(self.clients[0], self.preload_keys)))
            self.calibrator.measure()
            #: The slowdown while ``layer`` was being measured.
            self.layer_slowdown = self.calibrator.slowdown_since(mark)
        return {"phase": phase}

    def _prepare_slice(self):
        """50 % GET / 50 % PUT per connection. GETs are Zipf(0.99) over the
        connection's preloaded half; PUTs insert keys nobody wrote before.
        Overwrites would make merges remove filter entries, and a removal
        next to an entry that spilled into the filter's additional hash
        table makes ``ChuckyFilter.query`` miss a live key (README,
        "Findings") — a failed operation, which a benchmark workload may
        not have."""
        work = []
        for conn in range(CLIENTS):
            rng = self.rng
            ops: list[tuple[int, bytes | None]] = []
            for key in self.zipfs[conn].draw(self.slice_ops):
                if rng.random() < 0.5:
                    ops.append((key, None))
                else:
                    key = self.next_fresh[conn]
                    self.next_fresh[conn] += CLIENTS
                    ops.append((key, value_for(key).encode()))
            self.input_digest = stream_digest(self.input_digest, [k for k, _ in ops])
            work.append(ops)
        if self.traced:
            self.slices.append(work)
        return work

    async def _execute_slice(self, work) -> int:
        await asyncio.gather(
            *(self._client_loop(conn, ops) for conn, ops in enumerate(work))
        )
        return sum(len(ops) for ops in work)

    async def _client_loop(self, conn, ops) -> None:
        from repro.server.client import ServerBusy

        client, model = self.clients[conn], self.models[conn]
        for key, value in ops:
            lat = self.get_lat if value is None else self.put_lat
            for _attempt in range(BUSY_RETRIES + 1):
                t = now()
                try:
                    if value is None:
                        got = await client.get(key)
                    else:
                        await client.put(key, value)
                except ServerBusy:
                    self.busy_retries += 1
                    continue
                lat.append(now() - t)
                break
            else:
                self.failed += 1  # BUSY-exhausted
                continue
            if value is None:
                if got != model[key]:
                    self.failed += 1
            else:
                model[key] = value

    def _at_counted_point(self, stats: dict) -> None:
        store = stats["store"]
        bits = store["filter_bits_per_entry"] * store["stored_entries"]
        self.counted = {
            "storage_writes_per_write": (
                store["write_amplification"] / SERVE_BLOCK_ENTRIES
            ),
            "filter_bits_per_entry": bits / store["num_entries"],
            "peak_rss_mb": self.server.peak_rss_mb(),
        }
        self.counted_digest = self.input_digest

    async def _sweep(self) -> None:
        """Re-read every key each connection owns, pipelined, so a PUT
        that was acked but lost shows even if no later GET hit it."""

        async def sweep_one(conn: int) -> int:
            client, model = self.clients[conn], self.models[conn]
            keys, bad = list(model), 0
            for start in range(0, len(keys), PIPELINE):
                chunk = keys[start : start + PIPELINE]
                values = await asyncio.gather(*(client.get(k) for k in chunk))
                bad += sum(v != model[k] for k, v in zip(chunk, values))
            return bad

        bad = await asyncio.gather(*(sweep_one(c) for c in range(CLIENTS)))
        self.attempted += sum(len(model) for model in self.models)
        self.failed += sum(bad)

    # -- the traced replica ------------------------------------------------

    def replay(self, recorder) -> dict:
        """The run's own ops on an in-process copy of the served store,
        with spans: the engine's part of a served request, layer by
        layer. PUTs go through ``put_batch`` as group commit applies them."""
        from repro.engine.config import EngineConfig, build_store

        config = EngineConfig(
            size_ratio=4, runs_per_level=3, runs_at_last_level=1,
            buffer_entries=256, block_entries=SERVE_BLOCK_ENTRIES,
            policy="chucky", bits_per_entry=10.0, cache_blocks=256,
            durable=True, shards=2,
        )
        recorder.begin_phase("setup")
        recorder.set_tracing(True)
        store = build_store(config)
        birth = aggregate(store.snapshot())
        keys = self.preload_keys
        for start in range(0, len(keys), PRELOAD_BATCH):
            chunk = keys[start : start + PRELOAD_BATCH]
            store.put_batch([(key, value_for(key).encode()) for key in chunk])
        loaded = aggregate(store.snapshot())

        def execute(work) -> int:
            get, put_batch = store.get, store.put_batch
            for ops in zip(*work):  # the connections' ops, interleaved
                for key, value in ops:
                    if value is None:
                        get(key)
                    else:
                        put_batch([(key, value)])
            return sum(len(ops) for ops in work)

        recorder.begin_phase("timed")
        phase = TimedPhase(0.0, len(self.slices), self.calibrator, recorder)
        phase.run(
            lambda index: self.slices[index : index + GROUP], execute, lambda: None
        )
        recorder.begin_phase("check")
        model = {k: v for model in self.models for k, v in model.items()}
        check = verify_after_crash(store, config, model, self.rng, self.calibrator)
        self.attempted += check["attempted"]
        self.failed += check["failed"]
        return {
            "store": check["store"],
            "phase": phase,
            "read_io": check["read_io"],
            "write_io": (birth, loaded),
            "recover_s": check["recover_s"],
        }

    # -- metrics ----------------------------------------------------------

    def end_to_end(self, outcome) -> dict[str, float]:
        return end_to_end_metrics(
            outcome["setup_s"], outcome["phase"], self.get_lat, self.put_lat,
            self.counted,
        )
