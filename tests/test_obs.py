"""The observability layer: metrics, spans, exporters, CLI, zero-cost."""

import json
import random

import pytest

from repro.chucky.policy import ChuckyPolicy
from repro.cli import main
from repro.common.counters import StorageIOCounter
from repro.engine.kvstore import KVStore
from repro.lsm.config import LSMConfig
from repro.obs import (
    NULL_OBS,
    Observability,
    parse_prometheus,
    registry_to_dict,
    render_prometheus,
)
from repro.obs.metrics import (
    NULL_REGISTRY,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import Tracer


class TestHistogram:
    def test_value_below_first_bound_lands_in_first_bucket(self):
        h = Histogram("h", (10, 20, 30))
        h.observe(-5)
        h.observe(0)
        assert h.counts == [2, 0, 0, 0]

    def test_value_above_last_bound_lands_in_overflow(self):
        h = Histogram("h", (10, 20, 30))
        h.observe(31)
        h.observe(1e9)
        assert h.counts == [0, 0, 0, 2]
        assert h.count == 2

    def test_exact_bound_is_inclusive_le_semantics(self):
        h = Histogram("h", (10, 20, 30))
        for v in (10, 20, 30):
            h.observe(v)
        assert h.counts == [1, 1, 1, 0]

    def test_sum_count_mean(self):
        h = Histogram("h", (10, 100))
        h.observe(5)
        h.observe(50)
        assert h.count == 2 and h.sum == 55 and h.mean == 27.5

    def test_empty_histogram_quantile_zero(self):
        assert Histogram("h", (1,)).quantile_nearest(0.5) == 0.0

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", (10, 5))
        with pytest.raises(ValueError):
            Histogram("h", (10, 10))

    def test_nearest_rank_picks_bucket_upper_bound(self):
        h = Histogram("h", (10, 20, 30))
        for _ in range(50):
            h.observe(5)  # bucket <=10
        for _ in range(49):
            h.observe(15)  # bucket <=20
        h.observe(25)  # bucket <=30
        assert h.quantile_nearest(0.5) == 10  # rank 50 is the last <=10
        assert h.quantile_nearest(0.51) == 20
        assert h.quantile_nearest(0.99) == 20
        assert h.quantile_nearest(1.0) == 30

    def test_nearest_rank_overflow_clamps_to_last_finite_bound(self):
        h = Histogram("h", (10, 20))
        h.observe(5)
        h.observe(1e9)
        assert h.quantile_nearest(1.0) == 20

    def test_nearest_rank_accessors_and_edges(self):
        h = Histogram("h", (1, 2, 4, 8))
        assert h.p50 == 0.0  # empty
        for v in (1, 1, 2, 3, 7):
            h.observe(v)
        assert h.p50 == 2
        assert h.p95 == 8 and h.p99 == 8
        assert h.quantile_nearest(0.0) == 1  # rank clamps to 1
        with pytest.raises(ValueError):
            h.quantile_nearest(1.5)

    def test_nearest_rank_single_observation(self):
        h = Histogram("h", (10, 20))
        h.observe(12)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile_nearest(q) == 20


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("c") is reg.counter("c")
        assert reg.histogram("h", (1, 2)) is reg.histogram("h", (1, 2))

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")
        with pytest.raises(ValueError):
            reg.histogram("x", (1,))

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_collector_runs_on_collect(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("g")
        reg.add_collector(lambda: gauge.set(42))
        reg.collect()
        assert gauge.value == 42

    def test_released_child_leaves_the_family(self):
        """A released child view takes back its instruments and
        collectors; its tracer's drops stay in the family total."""
        obs = Observability(trace_ring=1)
        child, sibling = obs.child("a_"), obs.child("b_")
        child.registry.counter("c").inc()
        child.registry.add_collector(lambda: None)
        sibling.registry.counter("c")
        for name in ("one", "two", "three"):  # a ring of one drops two
            with child.tracer.span(name):
                pass
        collectors = len(obs.registry._collectors)
        assert obs.dropped_spans_total() == 2
        child.release()
        names = [inst.name for inst in obs.registry.instruments()]
        assert "a_c" not in names and "b_c" in names
        assert len(obs.registry._collectors) == collectors - 1
        assert child.tracer not in obs._tracers
        assert obs.dropped_spans_total() == 2
        obs.release()  # the root is not a child: nothing happens
        assert obs.registry.get("b_c") is not None

    def test_null_registry_records_nothing(self):
        c = NULL_REGISTRY.counter("c")
        c.inc(100)
        assert c.value == 0
        h = NULL_REGISTRY.histogram("h", (1, 2))
        h.observe(5)
        assert h.count == 0
        g = NULL_REGISTRY.gauge("g")
        g.set(3.0)
        assert g.value == 0.0
        assert NULL_REGISTRY.instruments() == []


class TestTracer:
    def test_span_nesting(self):
        tracer = Tracer(ring=8)
        with tracer.span("outer", a=1):
            with tracer.span("inner"):
                pass
        (root,) = tracer.recent()
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner"]
        assert tracer.depth == 0

    def test_exception_safety_records_error_and_unwinds(self):
        tracer = Tracer(ring=8)
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        (root,) = tracer.recent()
        assert root.error == "RuntimeError"
        assert tracer.depth == 0
        # The tracer still works after the exception.
        with tracer.span("after"):
            pass
        assert [s.name for s in tracer.recent()] == ["boom", "after"]

    def test_nested_exception_attributes_to_inner_span(self):
        tracer = Tracer(ring=8)
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError
        (root,) = tracer.recent()
        assert root.error == "ValueError"  # propagated through
        assert root.children[0].error == "ValueError"

    def test_ring_buffer_caps_history(self):
        tracer = Tracer(ring=3)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        assert [s.name for s in tracer.recent()] == ["s7", "s8", "s9"]
        assert [s.name for s in tracer.recent(2)] == ["s8", "s9"]

    def test_modelled_clock_durations(self):
        now = {"t": 0.0}
        tracer = Tracer(ring=4, clock=lambda: now["t"])
        with tracer.span("op"):
            now["t"] += 250.0
        (root,) = tracer.recent()
        assert root.duration_ns == 250.0

    def test_null_tracer_is_inert(self):
        with NULL_OBS.tracer.span("x", key=1) as span:
            span.set(found=True)
        assert NULL_OBS.tracer.recent() == []


class TestPrometheusExport:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("requests_total", "help text").inc(7)
        reg.gauge("ratio").set(0.25)
        h = reg.histogram("lat_ns", (100, 1000), "latency")
        for v in (50, 500, 5000):
            h.observe(v)
        return reg

    def test_round_trip(self):
        reg = self._registry()
        samples = parse_prometheus(render_prometheus(reg))
        assert samples["requests_total"] == 7
        assert samples["ratio"] == 0.25
        assert samples['lat_ns_bucket{le="100"}'] == 1
        assert samples['lat_ns_bucket{le="1000"}'] == 2  # cumulative
        assert samples['lat_ns_bucket{le="+Inf"}'] == 3
        assert samples["lat_ns_sum"] == 5550
        assert samples["lat_ns_count"] == 3

    def test_type_and_help_lines(self):
        text = render_prometheus(self._registry())
        assert "# TYPE requests_total counter" in text
        assert "# TYPE ratio gauge" in text
        assert "# TYPE lat_ns histogram" in text
        assert "# HELP requests_total help text" in text

    def test_json_export_quantiles(self):
        d = registry_to_dict(self._registry())
        hist = d["histograms"]["lat_ns"]
        assert set(hist) >= {"p50", "p95", "p99", "sum", "count", "buckets"}
        assert d["counters"]["requests_total"] == 7

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus("justonetoken")


def _run_store(observability, reads=120, writes=400):
    config = LSMConfig(size_ratio=3, buffer_entries=16, block_entries=16)
    kv = KVStore(
        config,
        filter_policy=ChuckyPolicy(bits_per_entry=10),
        cache_blocks=32,
        observability=observability,
        durable=True,
    )
    rng = random.Random(7)
    for i in range(writes):
        kv.put(rng.randrange(200), f"v{i}")
    for _ in range(reads):
        kv.get(rng.randrange(300))
    return kv


class TestStoreIntegration:
    def test_disabled_observability_is_io_bit_identical(self):
        plain = _run_store(None)
        instrumented = _run_store(Observability())
        assert (
            plain.counters.memory.snapshot()
            == instrumented.counters.memory.snapshot()
        )
        assert plain.counters.storage.reads == instrumented.counters.storage.reads
        assert plain.counters.storage.writes == instrumented.counters.storage.writes
        assert plain.false_positives == instrumented.false_positives

    def test_registry_contents_after_workload(self):
        obs = Observability()
        kv = _run_store(obs, reads=120, writes=400)
        d = registry_to_dict(obs.registry)
        assert d["counters"]["kv_reads_total"] == 120
        assert d["counters"]["kv_writes_total"] == 400
        assert d["counters"]["kv_read_false_positives_total"] == kv.false_positives
        assert d["histograms"]["kv_read_latency_ns"]["count"] == 120
        assert d["histograms"]["kv_read_latency_ns"]["p95"] > 0
        assert d["histograms"]["chucky_eviction_walk_length"]["count"] > 0
        assert d["gauges"]["store_entries"] == kv.num_entries
        cache = kv.tree.cache
        assert d["gauges"]["cache_hits"] == cache.hits
        assert d["gauges"]["cache_hit_ratio"] == pytest.approx(cache.hit_ratio)
        assert d["gauges"]["wal_appended_records"] == 400
        assert d["counters"]["lsm_flushes_total"] > 0
        assert d["gauges"]["chucky_codebook_expected_fpr"] > 0

    def test_spans_recorded_for_reads_and_writes(self):
        obs = Observability(trace_ring=1000)
        _run_store(obs, reads=10, writes=50)
        names = {s.name for s in obs.tracer.recent()}
        assert {"read", "write"} <= names
        flushes = [
            c
            for s in obs.tracer.recent()
            for c in s.children
            if c.name == "flush"
        ]
        assert flushes, "writes that trigger a flush nest a flush span"

    def test_snapshot_carries_cache_hits(self):
        kv = _run_store(None)
        snap = kv.snapshot()
        assert snap.cache_hits == kv.tree.cache.hits
        assert snap.cache_misses == kv.tree.cache.misses
        assert 0.0 <= snap.cache_hit_ratio <= 1.0

    def test_snapshot_without_cache_defaults_to_zero(self):
        config = LSMConfig(size_ratio=3, buffer_entries=16, block_entries=16)
        kv = KVStore(config)
        snap = kv.snapshot()
        assert (snap.cache_hits, snap.cache_misses) == (0, 0)
        assert snap.cache_hit_ratio == 0.0


class TestStorageCounterValidation:
    def test_negative_blocks_rejected(self):
        c = StorageIOCounter()
        with pytest.raises(ValueError):
            c.read(-1)
        with pytest.raises(ValueError):
            c.write(-3)
        c.read(2)
        c.write(0)
        assert (c.reads, c.writes) == (2, 0)


class TestCli:
    _ARGS = ["--ops", "300", "--reads", "80", "--buffer", "16", "-t", "3"]

    def test_workload_metrics_out(self, tmp_path, capsys):
        out_file = tmp_path / "m.json"
        assert main(["workload", *self._ARGS, "--metrics-out", str(out_file)]) == 0
        artifact = json.loads(out_file.read_text())
        hist = artifact["histograms"]["kv_read_latency_ns"]
        assert {"p50", "p95", "p99"} <= set(hist)
        assert "kv_read_false_positives_total" in artifact["counters"]
        assert "cache_hit_ratio" in artifact["gauges"]
        assert "chucky_eviction_walk_length" in artifact["histograms"]

    def test_stats_prometheus(self, capsys):
        assert main(["stats", *self._ARGS]) == 0
        out = capsys.readouterr().out
        samples = parse_prometheus(out)
        assert samples["kv_reads_total"] == 80
        assert "# TYPE kv_read_latency_ns histogram" in out

    def test_stats_json(self, capsys):
        assert main(["stats", *self._ARGS, "--format", "json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["counters"]["kv_writes_total"] == 300

    def test_trace(self, capsys):
        assert main(["trace", *self._ARGS, "--last", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        span = json.loads(lines[-1])
        assert span["name"] in {"read", "write"}
        assert "duration_ns" in span


def _scripted_store(shards: int) -> "tuple[object, Observability, list[int]]":
    """A store with ``repro serve``'s observability bundle driven through
    one fixed mix — puts, deletes, TTL puts already past expiry, flushes
    — and the keys to read back: hits, misses, tombstones and expired
    keys, in a fixed order."""
    from repro.engine import EngineConfig, build_store

    obs = Observability(trace_ring=0)
    config = EngineConfig(
        size_ratio=3, buffer_entries=16, block_entries=4, cache_blocks=8,
        shards=shards, durable=True,
    )
    store = build_store(config, obs)
    rng = random.Random(11)
    for i in range(600):
        key = rng.randrange(300)
        roll = rng.random()
        if roll < 0.15:
            store.delete(key)
        elif roll < 0.25:
            store.put(key, f"t{i}", ttl=0)
        else:
            store.put(key, f"v{i}")
        if i % 97 == 0:
            store.flush()
    reads = [rng.randrange(400) for _ in range(400)]
    return store, obs, reads


def _read_instruments(obs) -> dict:
    """Every ``kv_read_*`` instrument, shard prefixes folded together:
    counters as values, histograms as (counts, sum, count)."""
    exported = registry_to_dict(obs.registry)
    out: dict = {}
    for name, value in exported["counters"].items():
        if "kv_read" in name:
            base = name[name.index("kv_read"):]
            out[base] = out.get(base, 0) + value
    for name, hist in exported["histograms"].items():
        if "kv_read" in name:
            base = name[name.index("kv_read"):]
            counts, total, count = out.get(base, ([0] * len(hist["counts"]), 0, 0))
            out[base] = (
                [a + b for a, b in zip(counts, hist["counts"])],
                total + hist["sum"],
                count + hist["count"],
            )
    return out


class TestOneObservedRead:
    """``get``, ``get_with_stats`` and ``get_batch`` run one observed
    read body: on a served store's bundle they return the same values,
    count the same I/Os and record the same ``kv_read_*`` instruments,
    and those instruments are the per-read counted windows priced by
    the cost model."""

    @pytest.mark.parametrize("shards", [1, 2])
    def test_three_read_paths_record_the_same_read(self, shards):
        from repro.obs.metrics import LATENCY_NS_BUCKETS, SUBLEVELS_BUCKETS

        plain, plain_obs, reads = _scripted_store(shards)
        stats, stats_obs, _ = _scripted_store(shards)
        batch, batch_obs, _ = _scripted_store(shards)
        assert _read_instruments(plain_obs) == _read_instruments(stats_obs)

        latency = Histogram("latency", LATENCY_NS_BUCKETS)
        probed = Histogram("probed", SUBLEVELS_BUCKETS)
        queries = false_positives = 0
        values = []
        for key in reads:
            before = plain.snapshot()
            values.append(plain.get(key))
            window = plain.snapshot().since(before)
            latency.observe(window.price(plain.cost_model).total_ns)
            queries += window.queries
            false_positives += window.false_positives
        results = [stats.get_with_stats(key) for key in reads]
        for result in results:
            probed.observe(result.sublevels_probed)

        assert [r.value for r in results] == values == batch.get_batch(reads)
        assert any(v is None for v in values) and any(values)
        assert plain.snapshot() == stats.snapshot() == batch.snapshot()
        recorded = _read_instruments(plain_obs)
        assert recorded == _read_instruments(stats_obs)
        assert recorded == _read_instruments(batch_obs)
        assert recorded["kv_reads_total"] == queries == len(reads)
        assert recorded["kv_read_false_positives_total"] == false_positives
        assert recorded["kv_read_latency_ns"] == (
            latency.counts, latency.sum, latency.count
        )
        assert recorded["kv_read_sublevels_probed"] == (
            probed.counts, probed.sum, probed.count
        )

    @pytest.mark.parametrize("shards", [1, 2])
    def test_read_under_an_active_carrier_emits_its_spans(self, shards):
        from repro.obs.context import new_span_id, new_trace_id

        store, obs, reads = _scripted_store(shards)
        trace_id = new_trace_id()
        saved = obs.carrier.activate(trace_id, new_span_id())
        try:
            for key in reads[:40]:
                store.get(key)
        finally:
            obs.carrier.restore(saved)
        names = set()
        pending = list(obs.trace_sink.get(trace_id))
        while pending:
            span = pending.pop()
            names.add(span.name)
            pending += span.children
        assert {"read", "memtable_probe", "filter_probe", "run_probe"} <= names
