"""In-memory fence pointers (paper section 2).

For each run, the fence pointers hold the minimum key of every block so
a point query can binary-search its way to the one block that may hold a
key, then fetch that block with a single storage I/O. The binary search
costs ~log2(#blocks) memory I/Os, which we count — this is the component
the paper identifies as "the next memory I/O bottleneck once Chucky is
applied" (section 6, Learned Fence Pointers) and the growing cost in
Figure 14 H.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.common.counters import MemoryIOCounter


class FencePointers:
    """Block index of one run: min key per block plus the global max."""

    def __init__(self, block_min_keys: list[int], max_key: int) -> None:
        if not block_min_keys:
            raise ValueError("a run must have at least one block")
        if sorted(block_min_keys) != block_min_keys:
            raise ValueError("block min keys must be sorted")
        self._mins = block_min_keys
        self._max_key = max_key

    @property
    def num_blocks(self) -> int:
        return len(self._mins)

    @property
    def block_min_keys(self) -> tuple[int, ...]:
        """Per-block minimum keys (persisted in run manifests)."""
        return tuple(self._mins)

    @property
    def max_key(self) -> int:
        return self._max_key

    def may_contain(self, key: int) -> bool:
        """Key-range check; free (min/max sit with the run's metadata)."""
        return self._mins[0] <= key <= self._max_key

    def locate(self, key: int, memory_ios: MemoryIOCounter) -> int | None:
        """Index of the single block that may contain ``key``.

        Charges ceil(log2(#blocks + 1)) memory I/Os in category
        ``fence`` for the binary search, mirroring the paper's ~log(N)
        fence-pointer search cost.
        """
        if not self.may_contain(key):
            return None
        memory_ios.add("fence", max(1, (len(self._mins)).bit_length()))
        return bisect_right(self._mins, key) - 1

    def block_range(self, lo: int, hi: int) -> range:
        """Indices of blocks overlapping [lo, hi] (for range reads)."""
        if hi < self._mins[0] or lo > self._max_key:
            return range(0)
        first = max(0, bisect_right(self._mins, lo) - 1)
        last = bisect_right(self._mins, hi) - 1
        return range(first, last + 1)
