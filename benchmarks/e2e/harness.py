"""Shared pieces of the end-to-end benchmark: where the repo is, the one
store shape every workload uses, seeded key streams, exact percentiles,
the fixed-size-slice timed phase, and the host fingerprint.

Nothing here imports the program at module level — :func:`require_repo`
must run first so that a checkout without ``src/`` fails fast instead of
picking up some other installed ``repro``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import zlib
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
MANIFEST = ROOT / "BENCHMARK.json"

now = time.perf_counter_ns

#: The shared store shape (paper default, lazy leveling). ``durable`` is
#: on everywhere so every process exercises the WAL and can crash/recover.
STORE_SHAPE = dict(
    size_ratio=4,
    buffer_entries=256,
    block_entries=32,
    cache_blocks=256,
    policy="chucky",
    bits_per_entry=10.0,
    durable=True,
)

#: In a traced run a quarter of the slices run with the wrappers removed;
#: the ratio of the two rates is the tracing overhead. Which quarter is
#: decided by a golden-ratio sequence: evenly spread but never periodic,
#: because "every fourth slice" falls in step with the merges of ingest
#: (whose period in slices is a power of two) and gets all of them or none.
UNTRACED_SHARE = 0.25
_GOLDEN = 0.6180339887498949


def runs_untraced(index: int) -> bool:
    return (index * _GOLDEN) % 1.0 < UNTRACED_SHARE


def require_repo() -> None:
    """Put this checkout's ``src/`` first on the path, or exit non-zero
    without a result when the program is not there."""
    if not (SRC / "repro" / "__init__.py").is_file() or not MANIFEST.is_file():
        print(
            f"benchmarks/e2e: no program under {SRC} (or no BENCHMARK.json); "
            "run from a full checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def store_config(**overrides):
    from repro.engine.config import EngineConfig

    shape = {**STORE_SHAPE, **overrides}
    return EngineConfig.lazy_leveled(shape.pop("size_ratio"), **shape)


def load_manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def value_for(key: int, version: int = 0) -> str:
    """The 17-byte value of ``key`` at ``version``."""
    return f"{version:07d}-{key:09d}"


def zipf_cum_weights(n: int, s: float = 0.99) -> list[float]:
    return list(itertools.accumulate(1.0 / (rank + 1) ** s for rank in range(n)))


class ZipfKeys:
    """Zipf(s) over ``keys``, hottest ranks scattered by ``rng``."""

    def __init__(self, keys: list[int], rng: random.Random, s: float = 0.99):
        self._keys = list(keys)
        rng.shuffle(self._keys)
        self._cum = zipf_cum_weights(len(self._keys), s)
        self._rng = rng

    def draw(self, count: int) -> list[int]:
        return self._rng.choices(self._keys, cum_weights=self._cum, k=count)


def stream_digest(digest: int, keys) -> int:
    """Fold a slice of generated keys into a running CRC, so a result
    file shows whether two runs saw the same inputs."""
    return zlib.crc32(array("q", keys).tobytes(), digest)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def p50_us(samples_ns) -> float:
    return percentile(sorted(samples_ns), 0.50) / 1e3


median = statistics.median


def batch_median_ns(fn, inputs, batch: int = 256) -> float:
    """Median over batches of ``fn``'s time per call, in ns — the way the
    isolated replays time a function too small to time call by call."""
    per_call = []
    for start in range(0, len(inputs) - batch + 1, batch):
        chunk = inputs[start : start + batch]
        t0 = now()
        for item in chunk:
            fn(item)
        per_call.append((now() - t0) / batch)
    if not per_call:
        raise ValueError(f"need at least {batch} inputs, got {len(inputs)}")
    return median(per_call)


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------


class Calibrator:
    """A fixed pure-Python loop, timed again and again during a run.

    On a shared host the same code runs 20-40 % slower for seconds or
    minutes at a time (a neighbour on the sibling hyperthread, a lower
    clock). The loop's time moves with it, so every wall-clock quantity
    is reported *at reference speed*: divided by ``slowdown``, the loop's
    time over ``REF_NS``. Measured on the sizing host over fifteen
    8-second stretches of ``lookup-miss``: the raw rate's interquartile
    range was 9.4 % of its median (range 20 %), the normalised rate's
    2.2 % (range 5 %). The loop is interpreter work on small data —
    big-int arithmetic, dict traffic, tuple allocation — like the program
    itself; a variant that also read a buffer larger than the caches
    tracked the program *worse* (8 %), so it stays cache-resident. It
    calls nothing of the program's: no change to the program can move it.
    """

    ITERS = 8_000
    #: The loop's time on the sizing host when nothing else ran.
    REF_NS = 3_400_000

    def __init__(self, cpus: tuple[int, ...] = ()) -> None:
        """``cpus`` is for a workload spread over several CPUs (the served
        one): a calibration is then the mean over them of the faster of
        two loops on each — the second loop because a CPU whose process
        was just waiting on its peer runs the first one at a fraction of
        its speed, which says nothing about the peer that was working.
        The process stays on the first of them in between."""
        self.cpus = cpus
        self.samples: list[int] = []

    def measure(self) -> int:
        if not self.cpus:
            spent = self._loop()
        else:
            spent = 0
            for cpu in (*self.cpus[1:], self.cpus[0]):
                os.sched_setaffinity(0, {cpu})
                spent += min(self._loop(), self._loop())
            spent //= len(self.cpus)
        self.samples.append(spent)
        return spent

    def _loop(self) -> int:
        table: dict[int, tuple[int, int]] = {}
        out: list[int] = []
        acc = 0x9E3779B97F4A7C15
        t0 = now()
        for i in range(self.ITERS):
            acc = ((acc ^ (acc >> 30)) * 0xBF58476D1CE4E5B9 + i) & 0xFFFFFFFFFFFFFFFF
            table[acc & 1023] = (i, acc)
            hit = table.get((acc >> 10) & 1023)
            if hit is not None:
                out.append(hit[0])
        return now() - t0

    def slowdown(self, *samples: int) -> float:
        """How much slower than reference the host ran, from the
        calibrations that bracket a piece of work."""
        return sum(samples) / len(samples) / self.REF_NS

    def run_slowdown(self) -> float:
        """One number for the whole process (the span times use it)."""
        return self.slowdown_since(0)

    def slowdown_since(self, mark: int) -> float:
        """The same over the calibrations from ``len(samples) == mark`` on."""
        return median(self.samples[mark:]) / self.REF_NS

    def around(self, body):
        """``body()`` between two calibrations: (its result, the slowdown)."""
        before = self.measure()
        result = body()
        return result, self.slowdown(before, self.measure())

    def bracket(self, body, latencies=()):
        """Run ``body()`` between two calibrations. Returns its wall time
        in ns at reference speed; latencies (ns) it appended to the given
        arrays are brought to reference speed too."""
        marks = [len(arr) for arr in latencies]

        def timed() -> int:
            t0 = now()
            body()
            return now() - t0

        wall, slow = self.around(timed)
        scale_tails(latencies, marks, slow)
        return wall / slow


def scale_tails(arrays, marks, slow: float) -> None:
    """Divide what was appended to each array since its mark by ``slow``."""
    for arr, mark in zip(arrays, marks):
        for i in range(mark, len(arr)):
            arr[i] = int(arr[i] / slow)


# ----------------------------------------------------------------------
# The timed phase
# ----------------------------------------------------------------------


class SliceTally:
    """What a set of slices added up to."""

    def __init__(self) -> None:
        self.ops = 0
        self.wall_ns = 0  # as measured
        self.ref_wall_ns = 0.0  # at reference speed
        self.rates: list[float] = []  # per slice, ops/s at reference speed

    def add(self, ops: int, wall_ns: int, slowdown: float) -> None:
        self.ops += ops
        self.wall_ns += wall_ns
        self.ref_wall_ns += wall_ns / slowdown
        self.rates.append(ops / (wall_ns / slowdown / 1e9))

    def ops_per_s(self, steady: bool) -> float:
        if steady:
            return median(self.rates)
        return self.ops / (self.ref_wall_ns / 1e9)


class TimedPhase:
    """Fixed-size slices, repeated until ``seconds`` of measured time.

    A slice is a few tens of milliseconds of work between two
    calibrations; its inputs are generated outside its timing, several
    slices at a time. Because slices have a fixed op count, the first
    ``counted_slices`` of them are the same work for a given seed on any
    host: counted metrics are read at that point and repeat exactly,
    while wall metrics use every slice.
    """

    def __init__(self, seconds, counted_slices, calibrator, recorder=None,
                 steady=True):
        """``steady`` says the slices are exchangeable (a lookup slice is
        like any other), so the rate is the median slice's: that shrugs
        off the odd stalled slice, which on the served workload otherwise
        triples the spread between runs. Ingest's slices are not — a few
        carry the big merges — so its rate is total ops over total time."""
        self.steady = steady
        self.budget_ns = int(seconds * 1e9)
        self.counted_slices = counted_slices
        self.calibrator = calibrator
        self.recorder = recorder
        self.untraced = SliceTally()
        self.traced = SliceTally()  # stays empty in an untraced run

    @property
    def ops(self) -> int:
        return self.untraced.ops + self.traced.ops

    def run(self, prepare, execute, at_counted_point, latencies=()) -> None:
        """``prepare(i)`` builds the next few slices starting at slice
        ``i`` (untimed), ``execute(slice)`` runs one and returns its op
        count, ``at_counted_point()`` fires once, right after slice
        ``counted_slices - 1``. ``latencies`` are the arrays ``execute``
        appends per-op times to."""
        recorder, cal = self.recorder, self.calibrator
        index = measured_ns = 0
        while measured_ns < self.budget_ns or index < self.counted_slices:
            slices = prepare(index)
            before = cal.measure()
            for work in slices:
                traced = recorder is not None and not runs_untraced(index)
                if recorder is not None:
                    recorder.set_tracing(traced)
                marks = [len(arr) for arr in latencies]
                t0 = now()
                ops = execute(work)
                wall = now() - t0
                after = cal.measure()
                slow = cal.slowdown(before, after)
                before = after
                scale_tails(latencies, marks, slow)
                (self.traced if traced else self.untraced).add(ops, wall, slow)
                measured_ns += wall
                index += 1
                if index == self.counted_slices:
                    at_counted_point()
        if recorder is not None:
            recorder.set_tracing(True)

    @property
    def ops_per_s(self) -> float:
        """Ops per second of wall time at reference speed, tracing off (in
        a traced run: over the slices that ran with the wrappers removed)."""
        return self.untraced.ops_per_s(self.steady)

    @property
    def traced_ops_per_s(self) -> float:
        return self.traced.ops_per_s(self.steady)

    @property
    def raw_ops_per_s(self) -> float:
        return self.untraced.ops / (self.untraced.wall_ns / 1e9)


def end_to_end_metrics(setup_s, phase, reads_ns, writes_ns, counted) -> dict:
    """The end-to-end metrics every workload reports, from its set-up
    time, timed phase, read and write latencies (ns, at reference speed)
    and what it read at the counted point."""
    return {
        "setup_s": setup_s,
        "ops_per_s": phase.ops_per_s,
        "read_p50_us": p50_us(reads_ns),
        "write_p50_us": p50_us(writes_ns),
        # A mean, not a high percentile: a served run has some twenty
        # samples past p99.9 and the value there steps from 10 to 35 ms.
        "write_mean_us": statistics.fmean(writes_ns) / 1e3,
        **counted,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Result files
# ----------------------------------------------------------------------


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def new_latencies() -> array:
    return array("q")
