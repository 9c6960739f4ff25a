"""The one exact quantile definition over raw samples (the load
generator's and the bench suite's per-op latencies)."""

from __future__ import annotations

import math


def nearest_rank(values: list[float], q: float) -> float | None:
    """Nearest-rank ``q``-quantile: the ``ceil(q * n)``-th smallest of
    the ``n`` values (``None`` when there are none)."""
    if not values:
        return None
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    ordered = sorted(values)
    # ceil(q * n), guarded against float drift on exact multiples.
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]
