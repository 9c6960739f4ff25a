"""Chucky's LSM-tree integration (paper section 4.1).

One unified filter for the whole tree, maintained *opportunistically*
from the tree's flush/merge events:

* flush — insert a mapping for every buffered entry (tombstones too;
  no read-before-write, unlike SlimDB);
* merge — update the LID of every entry that moved levels, skip entries
  that stayed at their sub-level, and remove obsolete versions;
* tree growth — rebuild a larger filter with the new geometry's
  codebook, piggybacking on the major compaction that caused it
  (section 4.5: the rebuild's data pass rides the compaction, so its
  storage reads are not charged; its memory I/Os are).
"""

from __future__ import annotations

from itertools import chain, compress, islice, repeat
from operator import ne
from typing import Iterator

from repro.common.counters import IOCounters
from repro.common.errors import FilterError
from repro.chucky.filter import ChuckyFilter, UncompressedLidFilter
from repro.chucky.partitioned import PartitionedChuckyFilter
from repro.filters.policy import FilterPolicy
from repro.lsm.tree import BUFFER_ORIGIN, FlushEvent, LSMTree, MergeEvent, TreeEvent

#: Edits per ``maintain_many`` call: a flush, a merge or a rebuild
#: holds one chunk of edit triples at a time, whatever its size.
EDIT_CHUNK = 4096

#: ``get(origin, origin)``: the old LID of a survivor's edit, ``None``
#: for one that came from the write buffer.
_LID_OF_ORIGIN = {BUFFER_ORIGIN: None}


def _maintain(filt, edits: Iterator[tuple]) -> None:
    """Feed ``edits`` to ``filt.maintain_many`` in order, a bounded
    chunk per call (the chunks' bucket loads sum to the one-call charge)."""
    while chunk := list(islice(edits, EDIT_CHUNK)):
        filt.maintain_many(chunk)


class ChuckyPolicy(FilterPolicy):
    """Unified Cuckoo filter with (compressed) level IDs.

    ``compressed=False`` selects fixed-width integer LIDs — the paper's
    SlimDB stand-in ("Chucky uncomp." in Figure 14). A non-None
    ``partition_capacity`` deploys the Vacuum-style partitioned filter
    (section 4.5 future work) instead of one monolithic filter.
    """

    def __init__(
        self,
        bits_per_entry: float = 10.0,
        slots: int = 4,
        nov: float = 0.9999,
        over_provision: float = 0.05,
        compressed: bool = True,
        partition_capacity: int | None = None,
        counters: IOCounters | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(counters)
        if partition_capacity is not None and not compressed:
            raise ValueError("partitioning applies to the compressed filter")
        self.bits_per_entry = bits_per_entry
        self.slots = slots
        self.nov = nov
        self.over_provision = over_provision
        self.compressed = compressed
        self.partition_capacity = partition_capacity
        self.seed = seed
        self.name = "Chucky" if compressed else "Chucky uncompressed"
        if partition_capacity is not None:
            self.name = "Chucky (partitioned)"
        self.filter: (
            ChuckyFilter | UncompressedLidFilter | PartitionedChuckyFilter | None
        ) = None
        self._pending_rebuild = False
        self.rebuilds = 0

    # ------------------------------------------------------------------
    # Construction / resizing
    # ------------------------------------------------------------------

    def attach(self, tree: LSMTree, *, subscribe: bool = True) -> None:
        super().attach(tree, subscribe=subscribe)
        self._build_filter()

    def _tree_capacity(self) -> int:
        tree = self.tree
        return sum(
            tree.config.level_capacity(level)
            for level in range(1, tree.num_levels + 1)
        )

    def _build_filter(self, blob: bytes | None = None) -> None:
        """(Re)place the filter for the tree's current geometry: empty,
        or (compressed monolithic variant) restored from ``blob``. The
        filter being replaced is still alive while its successor is
        built, so one of the same geometry gets its codebook back."""
        capacity = self._tree_capacity()
        shared = dict(
            dist=self._distribution(),
            bits_per_entry=self.bits_per_entry,
            slots=self.slots,
            over_provision=self.over_provision,
            memory_ios=self.counters.memory,
            seed=self.seed,
            metrics=self.obs.registry,
        )
        if not self.compressed:
            self.filter = UncompressedLidFilter(capacity, **shared)
        elif self.partition_capacity is not None:
            self.filter = PartitionedChuckyFilter(
                capacity, partition_capacity=self.partition_capacity,
                nov=self.nov, **shared,
            )
        elif blob is None:
            self.filter = ChuckyFilter(capacity, nov=self.nov, **shared)
        else:
            self.filter = ChuckyFilter.recover(blob, nov=self.nov, **shared)
        self._publish_codebook_stats()

    def _publish_codebook_stats(self) -> None:
        """Publish the active coding plan as gauges (compressed only)."""
        if not self.obs.enabled:
            return
        codebook = getattr(self.filter, "codebook", None)
        if codebook is None:
            return
        registry = self.obs.registry
        for name, value in codebook.plan_stats().items():
            registry.gauge(
                f"chucky_codebook_{name}", "active Chucky coding plan"
            ).set(value)

    # ------------------------------------------------------------------
    # Opportunistic maintenance
    # ------------------------------------------------------------------

    def handle_event(self, event: TreeEvent) -> None:
        """Apply a flush or a merge to the filter: its drops that left a
        run become removals, then its survivors in order — an insert for
        a fresh buffer entry, an LID update for one that moved.

        The edits are built from the event's columns and handed to
        ``maintain_many`` :data:`EDIT_CHUNK` at a time, so no per-entry
        object lives for a whole run. The event's LIDs are range-checked
        before its first edit lands: a bad one refuses the whole event.
        """
        if self._pending_rebuild:
            # The geometry changed mid-cascade; everything is recaptured
            # by the wholesale rebuild in after_write().
            return
        filt = self.filter
        assert filt is not None
        if isinstance(event, FlushEvent):
            lid = event.sublevel
            filt.check_lids((lid,))
            _maintain(filt, zip(event.keys, repeat(None), repeat(lid)))
            return
        assert isinstance(event, MergeEvent)
        out = event.output_sublevel
        drop_origins = event.drop_origins
        origins = event.survivor_origins
        # An entry that stayed at its sub-level needs no edit — the
        # advantage over rebuild-from-scratch Bloom filters.
        moved_from = set(origins)
        moved_from.discard(out)
        lids = set(drop_origins) | moved_from
        if moved_from:
            lids.add(out)
        lids.discard(BUFFER_ORIGIN)
        filt.check_lids(lids)
        # A drop from the buffer never reached the filter (origin 0 is
        # falsy); a survivor from the buffer is an insert (old LID None).
        removals = compress(
            zip(event.drops, drop_origins, repeat(None)), drop_origins
        )
        moves = compress(
            zip(event.survivors, map(_LID_OF_ORIGIN.get, origins, origins),
                repeat(out)),
            map(ne, origins, repeat(out)),
        )
        _maintain(filt, chain(removals, moves))

    def handle_grow(self, new_num_levels: int) -> None:
        self._pending_rebuild = True

    def after_write(self) -> None:
        if not self._pending_rebuild:
            return
        self._pending_rebuild = False
        self.rebuilds += 1
        self.obs.registry.counter(
            "chucky_rebuilds_total",
            "codebook/filter rebuilds piggybacked on major compactions",
        ).inc()
        self.rebuild_from_tree(count_storage=False)

    def rebuild_from_tree(self, count_storage: bool = True) -> None:
        """A fresh filter for the tree's geometry, then the default
        scan (uncounted when it piggybacks on the major compaction that
        grew the tree — section 4.5)."""
        with self.obs.tracer.span(
            "codebook_rebuild",
            levels=self.tree.num_levels,
            counted_storage=count_storage,
        ):
            self._build_filter()
            super().rebuild_from_tree(count_storage)

    def persist(self) -> bytes | None:
        """The compressed monolithic filter's fingerprints (section
        4.5); the other variants recover by scan."""
        if isinstance(self.filter, ChuckyFilter):
            return self.filter.persist()
        return None

    def recover(self, blob: bytes | None) -> None:
        """Restore from persisted fingerprints when this variant
        persists and there are any (section 4.5: recovery 'reads only
        the fingerprints from storage and thus avoids a full scan over
        the data'); otherwise — or when the blob fails its checks —
        rebuild from the runs."""
        if blob is not None and isinstance(self.filter, ChuckyFilter):
            try:
                self._build_filter(blob)
                return
            except FilterError:
                self.obs.registry.counter(
                    "filter_recover_fallbacks_total",
                    "persisted filters that failed their checks, so "
                    "recovery rebuilt the filter from the runs",
                ).inc()
        self.rebuild_from_tree()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def candidates(self, key: int) -> list[int]:
        """One two-bucket lookup answers every candidate."""
        assert self.filter is not None
        return self.filter.query(key)

    def candidates_many(self, keys: list[int]) -> list[list[int]]:
        assert self.filter is not None
        return self.filter.query_many(keys)

    @property
    def size_bits(self) -> int:
        assert self.filter is not None
        return self.filter.size_bits

    @property
    def auxiliary_bytes(self) -> dict[str, int]:
        """Sizes of the decode/recode structures (Figure 12); empty for
        the uncompressed variant, which needs none."""
        if isinstance(self.filter, ChuckyFilter):
            tables = self.filter.tables
            return {
                "huffman_tree": tables.huffman_tree_bytes,
                "decoding_table": tables.decoding_table_bytes,
                "recoding_table": tables.recoding_table_bytes,
            }
        return {}
