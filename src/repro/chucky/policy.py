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

from repro.common.counters import IOCounters
from repro.chucky.filter import ChuckyFilter, UncompressedLidFilter
from repro.chucky.partitioned import PartitionedChuckyFilter
from repro.filters.policy import FilterPolicy
from repro.lsm.entry import KEY
from repro.lsm.tree import BUFFER_ORIGIN, FlushEvent, LSMTree, MergeEvent, TreeEvent


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
        or (compressed monolithic variant) restored from ``blob``. A
        codebook is a pure function of the LID distribution and this
        policy's S / B / NOV, so the filter being replaced lends its own
        unless the tree grew (attach, then recovery or a rebuild)."""
        dist = self._distribution()
        capacity = self._tree_capacity()
        shared = dict(
            dist=dist,
            bits_per_entry=self.bits_per_entry,
            slots=self.slots,
            over_provision=self.over_provision,
            memory_ios=self.counters.memory,
            seed=self.seed,
            metrics=self.obs.registry,
        )
        if self.partition_capacity is not None:
            self.filter = PartitionedChuckyFilter(
                capacity, partition_capacity=self.partition_capacity,
                nov=self.nov, **shared,
            )
        elif self.compressed:
            old = self.filter
            reuse = old is not None and old.dist == dist
            shared.update(nov=self.nov, codebook=old.codebook if reuse else None)
            if blob is None:
                self.filter = ChuckyFilter(capacity, **shared)
            else:
                self.filter = ChuckyFilter.recover(blob, **shared)
        else:
            self.filter = UncompressedLidFilter(capacity, **shared)
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
        """Apply a flush or a merge to the filter as one
        ``maintain_many`` call: its drops that left a run become
        removals, then its survivors in order — an insert for a fresh
        buffer entry, an LID update for one that moved."""
        if self._pending_rebuild:
            # The geometry changed mid-cascade; everything is recaptured
            # by the wholesale rebuild in after_write().
            return
        assert self.filter is not None
        if isinstance(event, FlushEvent):
            lid = event.sublevel
            self.filter.maintain_many(
                [(entry[KEY], None, lid) for entry in event.entries]
            )
            return
        assert isinstance(event, MergeEvent)
        out = event.output_sublevel
        edits = [
            (entry[KEY], old, None)
            for entry, old in event.drops
            if old != BUFFER_ORIGIN
        ]
        # An entry that stayed at its sub-level needs no edit — the
        # advantage over rebuild-from-scratch Bloom filters.
        edits += [
            (entry[KEY], None if old == BUFFER_ORIGIN else old, out)
            for entry, old in event.survivors
            if old != out
        ]
        self.filter.maintain_many(edits)

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
        the data'); otherwise rebuild from the runs."""
        if blob is not None and isinstance(self.filter, ChuckyFilter):
            self._build_filter(blob)
        else:
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
