"""The telemetry time-series store: sampling, ring bounds, windowed
queries (rate, delta, quantiles, fraction-above), and the JSON payload
the server embeds in STATS.

All tests drive synthetic time through ``sample(now=...)`` so nothing
here depends on wall clocks.
"""

import math

import pytest

from repro.common.quantile import nearest_rank
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import SERIES_QUANTILES, TimeSeriesStore


def make_registry():
    registry = MetricsRegistry()
    requests = registry.counter("requests_total", "requests")
    depth = registry.gauge("queue_depth", "queue depth")
    latency = registry.histogram(
        "latency_us", (100.0, 200.0, 400.0, 800.0), "latency"
    )
    return registry, requests, depth, latency


class TestNearestRank:
    def test_exact_multiples_do_not_round_up(self):
        # p50 of 4 values is the 2nd, not the 3rd.
        assert nearest_rank([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0

    def test_p99_of_small_sets_is_max(self):
        assert nearest_rank([5.0, 1.0, 3.0], 0.99) == 5.0

    def test_empty_is_none_and_bad_q_raises(self):
        assert nearest_rank([], 0.5) is None
        with pytest.raises(ValueError):
            nearest_rank([1.0], 1.5)


class TestSampling:
    def test_counters_gauges_and_histogram_expansion(self):
        registry, requests, depth, latency = make_registry()
        ts = TimeSeriesStore(registry)
        requests.inc(10)
        depth.set(3)
        for v in (50, 150, 300, 10_000):
            latency.observe(v)
        ts.sample(now=1.0)
        assert ts.latest("requests_total") == 10
        assert ts.latest("queue_depth") == 3
        assert ts.latest("latency_us.count") == 4
        assert ts.latest("latency_us.sum") == 10_500
        for q in SERIES_QUANTILES:
            assert f"latency_us.p{int(q * 100)}" in ts.names()
        bounds, cumulative = ts.series("latency_us.buckets").latest()
        assert bounds == (100.0, 200.0, 400.0, 800.0)
        # 50 -> first bucket; 150 -> second; 300 -> third; 10k lands in
        # the trailing overflow slot (one more count than bounds).
        assert cumulative == (1, 2, 3, 3, 4)
        assert ts.samples_taken == 1

    def test_ring_capacity_bounds_history(self):
        registry, requests, _, _ = make_registry()
        ts = TimeSeriesStore(registry, capacity=4)
        for i in range(10):
            requests.inc()
            ts.sample(now=float(i))
        pts = ts.series("requests_total").points()
        assert len(pts) == 4
        assert pts[0][0] == 6.0  # oldest surviving sample

    def test_capacity_validation(self):
        registry, _, _, _ = make_registry()
        with pytest.raises(ValueError):
            TimeSeriesStore(registry, capacity=1)


class TestWindowQueries:
    def sampled_store(self):
        registry, requests, depth, latency = make_registry()
        ts = TimeSeriesStore(registry)
        # t=0: nothing yet; t=10: 100 reqs; t=20: 400 reqs.
        ts.sample(now=0.0)
        requests.inc(100)
        depth.set(5)
        ts.sample(now=10.0)
        requests.inc(300)
        depth.set(9)
        ts.sample(now=20.0)
        return ts, requests, latency

    def test_delta_and_rate_over_windows(self):
        ts, _, _ = self.sampled_store()
        assert ts.delta("requests_total", window=20.0, now=20.0) == 400
        assert ts.delta("requests_total", window=10.0, now=20.0) == 300
        assert ts.rate("requests_total", window=20.0, now=20.0) == 20.0
        assert ts.rate("requests_total", window=10.0, now=20.0) == 30.0
        # A window holding fewer than two samples has no derivative.
        assert ts.rate("requests_total", window=5.0, now=20.0) == 0.0
        assert ts.delta("no_such_series", window=10.0) == 0.0

    def test_window_quantile_over_sampled_values(self):
        ts, _, _ = self.sampled_store()
        assert ts.window_quantile("queue_depth", 0.5, 20.0, now=20.0) == 5.0
        assert ts.window_quantile("queue_depth", 0.99, 20.0, now=20.0) == 9.0
        assert ts.window_quantile("missing", 0.5, 20.0) is None

    def test_window_hist_quantile_uses_bucket_deltas(self):
        registry, _, _, latency = make_registry()
        ts = TimeSeriesStore(registry)
        for _ in range(100):
            latency.observe(50)  # old traffic: all fast
        ts.sample(now=0.0)
        for _ in range(90):
            latency.observe(50)
        for _ in range(10):
            latency.observe(700)  # new traffic: 10% slow
        ts.sample(now=30.0)
        # Whole-history quantile would be diluted; the window sees only
        # the delta: p95 lands in the 800-bound bucket.
        assert ts.window_hist_quantile("latency_us", 0.95, 30.0, now=30.0) == 800.0
        assert ts.window_hist_quantile("latency_us", 0.5, 30.0, now=30.0) == 100.0

    def test_window_hist_quantile_overflow_is_inf(self):
        registry, _, _, latency = make_registry()
        ts = TimeSeriesStore(registry)
        ts.sample(now=0.0)
        for _ in range(10):
            latency.observe(100_000)
        ts.sample(now=10.0)
        assert math.isinf(
            ts.window_hist_quantile("latency_us", 0.99, 10.0, now=10.0)
        )

    def test_window_hist_fraction_above(self):
        registry, _, _, latency = make_registry()
        ts = TimeSeriesStore(registry)
        ts.sample(now=0.0)
        for _ in range(80):
            latency.observe(50)
        for _ in range(20):
            latency.observe(300)
        ts.sample(now=10.0)
        frac = ts.window_hist_fraction_above("latency_us", 200.0, 10.0, now=10.0)
        assert frac == pytest.approx(0.2)
        assert (
            ts.window_hist_fraction_above("latency_us", 800.0, 10.0, now=10.0)
            == 0.0
        )
        # Empty window -> None, not 0: "no data" must not read as "healthy".
        assert (
            ts.window_hist_fraction_above("latency_us", 200.0, 1.0, now=100.0)
            is None
        )


class TestPayload:
    def test_tail_and_to_payload_exclude_buckets(self):
        registry, requests, _, latency = make_registry()
        ts = TimeSeriesStore(registry)
        for i in range(3):
            requests.inc()
            latency.observe(100)
            ts.sample(now=float(i))
        payload = ts.to_payload(n=2)
        assert payload["samples_taken"] == 3
        assert payload["capacity"] == 512
        assert payload["series"]["requests_total"] == [[1.0, 2], [2.0, 3]]
        assert "latency_us.p99" in payload["series"]
        assert not any(name.endswith(".buckets") for name in payload["series"])
        assert ts.tail("latency_us.buckets") == []

    def test_payload_with_explicit_names_skips_missing(self):
        registry, requests, _, _ = make_registry()
        ts = TimeSeriesStore(registry)
        requests.inc()
        ts.sample(now=0.0)
        payload = ts.to_payload(names=["requests_total", "nope"])
        assert list(payload["series"]) == ["requests_total"]
