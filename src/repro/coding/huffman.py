"""Classic Huffman coding over arbitrary symbol alphabets.

Chucky feeds this encoder (a) individual level IDs with the probabilities
of Eq 8 (Figure 4), (b) permutations or combinations of level IDs
(Figures 7 and 8), and (c) — under Fluid Alignment Coding — combinations
with the synthetic probabilities ``2^-(B - c_FP)`` of section 4.3.

The implementation produces *canonical* codes: only the code lengths come
from the Huffman tree; the actual bit patterns are assigned in canonical
order by :class:`repro.coding.kraft.CanonicalCode`. Canonical codes are
prefix-free, optimal (same lengths as the tree), decode with a compact
table, and are deterministic — which keeps persistence and tests stable.
"""

from __future__ import annotations

import heapq
from collections.abc import Hashable, Mapping
from typing import TypeVar

Symbol = TypeVar("Symbol", bound=Hashable)


def huffman_code_lengths(weights: Mapping[Symbol, float]) -> dict[Symbol, int]:
    """Optimal prefix-code lengths for the given positive symbol weights.

    Implements the standard two-queue-equivalent heap algorithm. Returns
    a mapping symbol -> code length (in bits). A single-symbol alphabet
    gets length 1 (the degenerate Huffman case: a code still needs one
    bit to be a code at all, matching the paper's observation that the
    ACL cannot drop below one bit per symbol).
    """
    if not weights:
        raise ValueError("cannot build a Huffman code over an empty alphabet")
    for sym, w in weights.items():
        if w < 0:
            raise ValueError(f"negative weight {w} for symbol {sym!r}")

    symbols = list(weights)
    if len(symbols) == 1:
        return {symbols[0]: 1}

    # Heap items: (weight, tiebreak, node). Leaves are symbol indices;
    # internal nodes are [left, right] pairs. The tiebreak makes the tree
    # (and thus the lengths) deterministic for equal weights.
    heap: list[tuple[float, int, object]] = [
        (weights[sym], i, i) for i, sym in enumerate(symbols)
    ]
    heapq.heapify(heap)
    counter = len(symbols)
    while len(heap) > 1:
        w1, _, n1 = heapq.heappop(heap)
        w2, _, n2 = heapq.heappop(heap)
        heapq.heappush(heap, (w1 + w2, counter, [n1, n2]))
        counter += 1

    lengths: dict[Symbol, int] = {}
    stack: list[tuple[object, int]] = [(heap[0][2], 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, list):
            stack.append((node[0], depth + 1))
            stack.append((node[1], depth + 1))
        else:
            lengths[symbols[node]] = depth
    return lengths

