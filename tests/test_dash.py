"""The terminal dashboard: sparkline scaling, the pure renderer over
synthetic polls of a STATS payload, and polls against a live server
(the ``--once`` and two-frame CI smoke paths).
"""

import asyncio
import queue
import threading

import pytest

from repro.obs.dash import render_dashboard, run_dash, sparkline


def synthetic_stats(requests: int = 1234, p99: float = 200.0):
    """One STATS payload as an observability-enabled server sends it."""
    return {
        "server": {
            "requests": requests, "errors": 2, "shed": 10, "inflight": 3,
            "connections": 4, "commit_batches": 50, "commit_items": 400,
            "commit_queue_depth": 1,
        },
        "tracing": {
            "traces": 12, "capacity": 128,
            "dropped_traces": 0, "spans_dropped_total": 5,
        },
        "metrics": {
            "counters": {
                "server_requests_total": requests,
                "server_errors_total": 2,
            },
            "gauges": {"cache_hit_ratio": 0.9, "server_inflight": 3.0},
            "histograms": {
                "server_get_latency_us": {
                    "p50": 100.0, "p95": 200.0, "p99": p99, "mean": 120.0,
                    "count": 1000, "sum": 120_000.0,
                    "buckets": [100.0, 200.0], "counts": [500, 500, 0],
                },
            },
        },
    }


def two_polls():
    """Two polls 0.5 s apart; ``server.requests`` up by 100 between them."""
    return [
        (10.0, synthetic_stats(requests=1134, p99=100.0)),
        (10.5, synthetic_stats(requests=1234, p99=200.0)),
    ]


def row(text: str, label: str) -> str:
    """The sparkline row ``label`` (the last line it starts; the counter
    header above the rows starts with ``requests`` too)."""
    return [line for line in text.splitlines()
            if line.startswith(f"  {label} ")][-1]


class TestSparkline:
    def test_fixed_width_and_scaling(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7], width=8)
        assert len(line) == 8
        assert line[0] == "▁" and line[-1] == "█"

    def test_flat_series_is_low_bar(self):
        assert sparkline([5.0, 5.0, 5.0], width=3) == "▁▁▁"

    def test_empty_series_is_blank(self):
        assert sparkline([], width=6) == " " * 6

    def test_long_series_keeps_the_tail(self):
        line = sparkline(list(range(100)), width=10)
        assert len(line) == 10
        assert line[-1] == "█"

    def test_short_series_right_aligned(self):
        line = sparkline([1.0, 2.0], width=8)
        assert len(line) == 8 and line.startswith(" ")

    def test_width_validation(self):
        with pytest.raises(ValueError):
            sparkline([1.0], width=0)


class TestRenderDashboard:
    def test_renders_all_sections(self):
        text = render_dashboard(two_polls())
        assert "requests" in text and "1.23k" in text
        assert "traces held" in text
        assert "history (2 polls over 0.5s)" in text
        assert "get p99 us" in text
        assert "cache hit" in text

    def test_counter_series_rendered_as_rate(self):
        # +100 requests over 0.5 s of the dashboard's own clock is
        # 200/s — not the per-sample delta of 100.
        text = render_dashboard(two_polls())
        assert "200/s" in row(text, "requests")
        assert "0/s" in row(text, "errors")

    def test_histogram_stat_reads_the_newest_poll(self):
        line = row(render_dashboard(two_polls()), "get p99 us")
        assert "200" in line and "/s" not in line

    def test_one_poll_has_no_rate_rows(self):
        text = render_dashboard(two_polls()[1:])
        assert "/s" not in text
        assert "history (1 polls over 0.0s)" in text
        assert "cache hit" in text

    def test_counter_reset_reads_as_zero_rate(self):
        polls = two_polls()[::-1]
        polls[1] = (11.0, polls[1][1])
        assert "0/s" in row(render_dashboard(polls), "requests")

    def test_minimal_stats_render_without_optional_blocks(self):
        text = render_dashboard([(0.0, {"server": {"requests": 1}})])
        assert "requests" in text
        assert "history" not in text
        assert "traces held" not in text

    def test_no_ansi_in_pure_render(self):
        assert "\x1b" not in render_dashboard(two_polls())


@pytest.fixture
def live_port():
    """An observability-enabled server on a background loop; shut down
    over the wire afterwards."""
    from repro.engine import EngineConfig, build_store
    from repro.obs import Observability
    from repro.server import AsyncClient, ReproServer

    ports: queue.Queue = queue.Queue()

    def serve():
        async def main():
            store = build_store(
                EngineConfig(size_ratio=3, buffer_entries=16,
                             block_entries=4, durable=True),
                Observability(),
            )
            server = ReproServer(store, observability=store.obs)
            ports.put(await server.start())
            await server.serve_until_drained()

        asyncio.run(main())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    port = ports.get(timeout=10)
    yield port

    async def shutdown():
        client = await AsyncClient.connect("127.0.0.1", port)
        await client.shutdown()
        await client.close()

    asyncio.run(shutdown())
    thread.join(timeout=10)


class TestLiveOnce:
    def test_single_frame_against_live_server(self, live_port):
        frames = []
        run_dash("127.0.0.1", live_port, once=True, out=frames.append)
        assert len(frames) == 1
        assert "repro dash" in frames[0]
        assert "\x1b" not in frames[0]  # --once never clears the screen
        assert "history (1 polls" in frames[0]  # gauges from one poll

    def test_second_poll_shows_rates(self, live_port):
        frames = []
        run_dash("127.0.0.1", live_port, interval=0.05, iterations=2,
                 out=frames.append)
        assert len(frames) == 2
        assert "/s" not in frames[0]
        # Each poll is a STATS request, so the rate is never zero.
        rate = row(frames[1], "requests").split()[1]
        assert rate.endswith("/s") and rate != "0/s"
