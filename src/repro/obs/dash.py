"""Live terminal dashboard over a running server's STATS payload.

``repro dash`` polls the STATS op once per interval and redraws a
compact single-screen panel: the server's request/error/shed counters,
group-commit health, and Unicode sparklines over ``PANEL_ROWS``.

The dashboard keeps the metrics history itself: the server exports only
its registry as it is *now* (the STATS ``metrics`` block), and
:func:`run_dash` keeps its last :data:`HISTORY` polls, each stamped with
its own monotonic clock. A counter row is the per-second rate between
consecutive polls; any other row is the value at each poll.

Rendering is deliberately split from polling: :func:`render_dashboard`
is a pure function of the kept polls, so tests (and ``--once`` CI smoke
runs) exercise the full layout without a TTY, timers, or ANSI escapes.
Only :func:`run_dash` touches the network and the screen.

The dashboard is a *read-only* client of the serving layer — it costs
the server exactly one STATS request per frame and touches no counted
I/O anywhere.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Any, Callable, Sequence

#: Eight vertical-bar glyphs, lowest to highest.
SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: Polls the dashboard keeps (the sparkline shows the newest that fit).
HISTORY = 64

#: Series drawn as sparkline rows, in panel order, with short labels.
#: A name is an instrument in the STATS ``metrics`` block; ``name.stat``
#: reads one field (``p50``, ``p99``, ``mean``) of histogram ``name``.
#: Names a server does not export (single-shard vs sharded cache gauges,
#: observability off) drop out silently.
PANEL_ROWS: tuple[tuple[str, str], ...] = (
    ("server_requests_total", "requests"),
    ("server_errors_total", "errors"),
    ("server_shed_total", "shed"),
    ("server_inflight", "inflight"),
    ("server_commit_queue_depth", "commit queue"),
    ("server_commit_batch_size.mean", "batch size"),
    ("server_get_latency_us.p50", "get p50 us"),
    ("server_get_latency_us.p99", "get p99 us"),
    ("server_put_latency_us.p99", "put p99 us"),
    ("cache_hit_ratio", "cache hit"),
    ("agg_cache_hit_ratio", "cache hit"),
    ("store_entries", "entries"),
    ("agg_store_entries", "entries"),
    ("trace_spans_dropped", "spans dropped"),
)

#: One poll: (monotonic seconds when it was taken, the STATS payload).
Poll = tuple[float, dict[str, Any]]


def sparkline(values: list[float], width: int = 24) -> str:
    """Render a numeric series as a fixed-width Unicode sparkline.

    The most recent ``width`` points are scaled against the window's
    own min/max; a flat series renders as a low bar, an empty one as
    spaces.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    tail = [float(v) for v in values[-width:]]
    if not tail:
        return " " * width
    lo, hi = min(tail), max(tail)
    if hi <= lo:
        bars = SPARK_CHARS[0] * len(tail)
    else:
        span = hi - lo
        top = len(SPARK_CHARS) - 1
        bars = "".join(
            SPARK_CHARS[min(top, int((v - lo) / span * top + 0.5))]
            for v in tail
        )
    return bars.rjust(width)


def _fmt(value: float) -> str:
    """Compact human number: 1234567 -> 1.23M, 0.9312 -> 0.931."""
    magnitude = abs(value)
    for cut, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if magnitude >= cut:
            return f"{value / cut:.2f}{suffix}"
    if value != int(value):
        return f"{value:.3g}"
    return str(int(value))


def _read(metrics: dict[str, Any], name: str) -> tuple[float, bool] | None:
    """Series ``name`` in one ``metrics`` block: (value, is a counter),
    or None when the block does not carry it."""
    if name in metrics.get("counters", {}):
        return float(metrics["counters"][name]), True
    if name in metrics.get("gauges", {}):
        return float(metrics["gauges"][name]), False
    base, _, stat = name.rpartition(".")
    entry = metrics.get("histograms", {}).get(base)
    if entry is None or stat not in entry:
        return None
    return float(entry[stat]), False


def _history(polls: Sequence[Poll], name: str) -> tuple[list[float], str]:
    """The row for series ``name``: its values across the polls and a
    unit suffix. A counter becomes its per-second rate between
    consecutive polls (a reset — a restarted server — reads as 0)."""
    points: list[tuple[float, float]] = []
    counter = False
    for ts, stats in polls:
        read = _read(stats.get("metrics", {}), name)
        if read is not None:
            points.append((ts, read[0]))
            counter = read[1]
    if not counter:
        return [value for _, value in points], ""
    rates = [
        max(0.0, (b - a) / (tb - ta))
        for (ta, a), (tb, b) in zip(points, points[1:])
        if tb > ta
    ]
    return rates, "/s"


def render_dashboard(polls: Sequence[Poll], width: int = 78) -> str:
    """Render the kept polls, oldest first, as one dashboard frame (no
    ANSI). The counter header is the newest poll's."""
    lines: list[str] = []
    bar = "─" * width
    stats = polls[-1][1]
    server = stats.get("server", {})
    lines.append("repro dash".ljust(width - 19) + time.strftime("%H:%M:%S"))
    lines.append(bar)
    lines.append(
        "  requests {:>10}   errors {:>8}   shed {:>8}   inflight {:>5}".format(
            _fmt(server.get("requests", 0)),
            _fmt(server.get("errors", 0)),
            _fmt(server.get("shed", 0)),
            _fmt(server.get("inflight", 0)),
        )
    )
    lines.append(
        "  connections {:>7}   commit batches {:>8}   items {:>8}"
        "   queue {:>4}".format(
            _fmt(server.get("connections", 0)),
            _fmt(server.get("commit_batches", 0)),
            _fmt(server.get("commit_items", 0)),
            _fmt(server.get("commit_queue_depth", 0)),
        )
    )
    tracing = stats.get("tracing")
    if tracing:
        lines.append(
            "  traces held {:>7}   dropped traces {:>8}   dropped spans"
            " {:>6}".format(
                _fmt(tracing.get("traces", 0)),
                _fmt(tracing.get("dropped_traces", 0)),
                _fmt(tracing.get("spans_dropped_total", 0)),
            )
        )

    spark_width = max(8, width - 34)
    rows = []
    for name, label in PANEL_ROWS:
        values, unit = _history(polls, name)
        if values:
            rows.append(
                "  {:<14}{:>8}{} {}".format(
                    label[:14],
                    _fmt(values[-1]),
                    unit.ljust(2),
                    sparkline(values, spark_width),
                )
            )
    if rows:
        lines.append(bar)
        lines.append(
            f"history ({len(polls)} polls over "
            f"{polls[-1][0] - polls[0][0]:.1f}s)"
        )
        lines.extend(rows)
    lines.append(bar)
    return "\n".join(lines)


def run_dash(
    host: str,
    port: int,
    interval: float = 1.0,
    iterations: int = 0,
    once: bool = False,
    out: Callable[[str], None] = print,
) -> None:
    """Poll STATS and redraw the dashboard until interrupted.

    ``iterations=0`` runs until Ctrl-C; ``once`` prints a single frame
    with no screen clearing (the CI smoke mode; a counter row needs two
    polls, so it shows gauges and latencies only). A poll is one
    connection and one STATS call, each :func:`bounded`. Import of the
    client is deferred so the pure renderer stays dependency-free.
    """
    from repro.server.client import AsyncClient, bounded

    async def poll() -> Poll:
        client = await bounded(AsyncClient.connect(host, port))
        try:
            return time.monotonic(), await bounded(client.stats())
        finally:
            await client.close()

    if once:
        iterations = 1
    polls: deque[Poll] = deque(maxlen=HISTORY)
    frame = 0
    try:
        while True:
            polls.append(asyncio.run(poll()))
            text = render_dashboard(polls)
            if once:
                out(text)
            else:
                # Home + clear-to-end keeps redraws flicker-free.
                out("\x1b[H\x1b[J" + text)
            frame += 1
            if iterations and frame >= iterations:
                return
            time.sleep(interval)
    except KeyboardInterrupt:
        return
