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

from repro.coding.distributions import LidDistribution
from repro.common.counters import IOCounters
from repro.chucky.filter import ChuckyFilter, UncompressedLidFilter
from repro.chucky.partitioned import PartitionedChuckyFilter
from repro.filters.policy import FilterPolicy
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

    def _distribution(self) -> LidDistribution:
        tree = self.tree
        return LidDistribution(
            size_ratio=tree.config.size_ratio,
            num_levels=tree.num_levels,
            runs_per_level=tree.config.runs_per_level,
            runs_at_last_level=tree.config.runs_at_last_level,
        )

    def _tree_capacity(self) -> int:
        tree = self.tree
        return sum(
            tree.config.level_capacity(level)
            for level in range(1, tree.num_levels + 1)
        )

    def _build_filter(self) -> None:
        dist = self._distribution()
        capacity = self._tree_capacity()
        metrics = self.obs.registry
        if self.partition_capacity is not None:
            self.filter = PartitionedChuckyFilter(
                capacity=capacity,
                dist=dist,
                bits_per_entry=self.bits_per_entry,
                partition_capacity=self.partition_capacity,
                slots=self.slots,
                nov=self.nov,
                over_provision=self.over_provision,
                memory_ios=self.counters.memory,
                seed=self.seed,
                metrics=metrics,
            )
        elif self.compressed:
            self.filter = ChuckyFilter(
                capacity=capacity,
                dist=dist,
                bits_per_entry=self.bits_per_entry,
                slots=self.slots,
                nov=self.nov,
                over_provision=self.over_provision,
                memory_ios=self.counters.memory,
                seed=self.seed,
                metrics=metrics,
            )
        else:
            self.filter = UncompressedLidFilter(
                capacity=capacity,
                dist=dist,
                bits_per_entry=self.bits_per_entry,
                slots=self.slots,
                over_provision=self.over_provision,
                memory_ios=self.counters.memory,
                seed=self.seed,
                metrics=metrics,
            )
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
        if self._pending_rebuild:
            # The geometry changed mid-cascade; everything is recaptured
            # by the wholesale rebuild in after_write().
            return
        assert self.filter is not None
        if isinstance(event, FlushEvent):
            for entry in event.entries:
                self.filter.insert(entry.key, event.sublevel)
            return
        assert isinstance(event, MergeEvent)
        for entry, old_sublevel in event.drops:
            if old_sublevel != BUFFER_ORIGIN:
                self.filter.remove(entry.key, old_sublevel)
        out = event.output_sublevel
        for entry, old_sublevel in event.survivors:
            if old_sublevel == BUFFER_ORIGIN:
                self.filter.insert(entry.key, out)
            elif old_sublevel != out:
                self.filter.update_lid(entry.key, old_sublevel, out)
            # else: the entry stayed at its sub-level — no work, the
            # advantage over rebuild-from-scratch Bloom filters.

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
        """Rebuild the filter by scanning the tree's runs.

        ``count_storage=False`` models the resize that piggybacks on a
        major compaction (the compaction already reads the data —
        section 4.5); recovery-style rebuilds leave counting on.
        """
        with self.obs.tracer.span(
            "codebook_rebuild",
            levels=self.tree.num_levels,
            counted_storage=count_storage,
        ):
            self._build_filter()
            assert self.filter is not None
            tree = self.tree
            if count_storage:
                for entry, sublevel in tree.iter_entries_with_sublevels():
                    self.filter.insert(entry.key, sublevel)
                return
            with tree.storage.counting_suspended():
                for entry, sublevel in tree.iter_entries_with_sublevels():
                    self.filter.insert(entry.key, sublevel)

    def recover_filter(self, blob: bytes) -> None:
        """Restore the filter from persisted fingerprints (section 4.5:
        recovery 'reads only the fingerprints from storage and thus
        avoids a full scan over the data'). Only the compressed variant
        persists; the uncompressed variant falls back to a scan."""
        if not self.compressed or self.partition_capacity is not None:
            self.rebuild_from_tree()
            return
        self.filter = ChuckyFilter.recover(
            blob,
            self._distribution(),
            bits_per_entry=self.bits_per_entry,
            slots=self.slots,
            nov=self.nov,
            over_provision=self.over_provision,
            memory_ios=self.counters.memory,
            seed=self.seed,
            metrics=self.obs.registry,
        )
        self._publish_codebook_stats()

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
