"""Decoding/recoding structures (paper section 4.4).

Three auxiliary structures surround the codebook at run time:

* **Cached Huffman tree** — decodes the frequent combinations'
  (``C_freq``) codes. Its size converges with data size (Figure 12), so
  the paper assumes it is CPU-cache resident: decoding a frequent code
  costs no memory I/O beyond the bucket read itself.
* **Decoding Table (DT)** — a flat array for the rare combinations.
  Because every rare code has the same length (B) and rare codewords are
  contiguous in the canonical code, the codeword minus the first rare
  codeword indexes the table directly: decoding costs exactly one
  memory I/O (Figure 13 counts these).
* **Recoding Table (RT)** — combination -> code for the write path, a
  static hash table whose hot (frequent) rows are cache resident.

This module wraps those roles around a :class:`ChuckyCodebook`, charges
the memory I/Os, and reports the structure sizes for Figure 12.
"""

from __future__ import annotations

from repro.coding.distributions import Combination
from repro.common.counters import MemoryIOCounter
from repro.chucky.codebook import ChuckyCodebook

#: Bytes per Decoding-Table entry (paper: "each DT entry is eight bytes").
DT_ENTRY_BYTES = 8
#: Bytes per Recoding-Table row (combination hash + code, same scaling
#: as the DT per the paper).
RT_ENTRY_BYTES = 8
#: Bytes per cached-Huffman-tree node (two children pointers / a packed
#: child pair).
TREE_NODE_BYTES = 8


class CodecTables:
    """Run-time decode/recode front-end with I/O accounting."""

    def __init__(
        self, codebook: ChuckyCodebook, memory_ios: MemoryIOCounter | None = None
    ) -> None:
        self.codebook = codebook
        self._memory_ios = (
            memory_ios if memory_ios is not None else MemoryIOCounter()
        )
        self.dt_accesses = 0

    # -- decoding --------------------------------------------------------

    def decode_prefix(self, packed: int, bit_length: int) -> tuple[Combination, int]:
        """Decode the combination code at the front of a packed bucket.

        Frequent codes resolve through the cached Huffman tree (no
        memory I/O); rare codes cost one Decoding-Table access
        (category ``filter_dt``). The byte-at-a-time table in
        :mod:`repro.chucky.decode` plays the cached tree's role.
        """
        used, combo, plan = self.codebook.fast.decode_table.decode_entry(
            packed, bit_length
        )
        # Only rare combinations lack an unpack plan, so ``plan is
        # None`` is exactly ``not is_frequent(combo)``.
        if plan is None:
            self.charge_rare_decode()
        return combo, used

    def charge_rare_decode(self) -> None:
        """Account one Decoding-Table access (also used by the codec's
        fused decode, which learns rarity from the table entry itself)."""
        self.dt_accesses += 1
        self._memory_ios.add("filter_dt", 1)

    # -- recoding --------------------------------------------------------

    def encode(self, combo: Combination) -> tuple[int, int]:
        """(codeword, length) for a combination.

        Frequent rows of the Recoding Table are cache resident (free);
        rare rows cost one memory I/O (category ``filter_rt``).
        """
        if not self.codebook.is_frequent(combo):
            self._memory_ios.add("filter_rt", 1)
        return self.codebook.code.encode(combo)

    # -- sizes (Figure 12) -------------------------------------------------

    @property
    def huffman_tree_bytes(self) -> int:
        """Cached Huffman tree over ``C_freq``: ~2|C_freq| - 1 nodes."""
        return (2 * len(self.codebook.frequent) - 1) * TREE_NODE_BYTES

    @property
    def decoding_table_bytes(self) -> int:
        return len(self.codebook.rare) * DT_ENTRY_BYTES

    @property
    def recoding_table_bytes(self) -> int:
        return len(self.codebook.probabilities) * RT_ENTRY_BYTES
