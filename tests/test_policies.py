"""Filter policies bound to a live LSM-tree: Bloom per-run policies and
Chucky's unified policy, kept consistent through merge events."""

import random
from array import array

import pytest

from repro.chucky.policy import EDIT_CHUNK, ChuckyPolicy
from repro.engine.kvstore import KVStore
from repro.filters.policy import BloomFilterPolicy, NoFilterPolicy
from repro.lsm.config import lazy_leveling, leveling, tiering
from repro.lsm.entry import KEY
from repro.lsm.tree import BUFFER_ORIGIN, ORIGIN_TYPECODE, MergeEvent


def written_store(policy, cfg=None, n=600, universe=300, seed=0):
    cfg = cfg or lazy_leveling(3, buffer_entries=8, block_entries=4)
    kv = KVStore(cfg, filter_policy=policy)
    rng = random.Random(seed)
    ref = {}
    for i in range(n):
        k = rng.randrange(universe)
        kv.put(k, f"v{i}")
        ref[k] = f"v{i}"
    return kv, ref


def filter_consistency(kv):
    """Invariant: for every live entry, the policy proposes its
    sub-level (no false negatives through the whole write history)."""
    for entry, sublevel in kv.tree.iter_entries_with_sublevels():
        candidates = list(kv.policy.candidates(entry[KEY]))
        assert sublevel in candidates, (
            f"key {entry[KEY]} at sub-level {sublevel} missed by "
            f"{kv.policy.name}: {candidates}"
        )


class TestBloomPolicy:
    @pytest.mark.parametrize("variant", ["standard", "blocked"])
    @pytest.mark.parametrize("allocation", ["uniform", "optimal"])
    def test_consistency_through_merges(self, variant, allocation):
        kv, _ = written_store(
            BloomFilterPolicy(10, variant=variant, allocation=allocation)
        )
        filter_consistency(kv)

    def test_reads_correct(self):
        kv, ref = written_store(BloomFilterPolicy(10))
        for k, v in list(ref.items())[:150]:
            assert kv.get(k) == v

    def test_one_filter_per_run(self):
        kv, _ = written_store(BloomFilterPolicy(10))
        live = {s for s, _ in kv.tree.occupied_runs()}
        assert set(kv.policy._filters) == live

    def test_size_bits_positive(self):
        kv, _ = written_store(BloomFilterPolicy(10))
        assert kv.policy.size_bits > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            BloomFilterPolicy(10, variant="nope")
        with pytest.raises(ValueError):
            BloomFilterPolicy(10, allocation="nope")

    def test_cannot_attach_twice(self):
        kv, _ = written_store(BloomFilterPolicy(10))
        with pytest.raises(RuntimeError):
            kv.policy.attach(kv.tree)

    def test_construction_charges_memory_ios(self):
        policy = BloomFilterPolicy(10, variant="blocked")
        kv, _ = written_store(policy)
        assert kv.counters.memory.get("filter") > 0


class TestChuckyPolicy:
    @pytest.mark.parametrize(
        "cfg_factory", [leveling, tiering, lazy_leveling], ids=["lvl", "tier", "lazy"]
    )
    def test_consistency_through_merges(self, cfg_factory):
        cfg = cfg_factory(3, buffer_entries=8, block_entries=4)
        kv, _ = written_store(ChuckyPolicy(bits_per_entry=10), cfg)
        filter_consistency(kv)
        assert kv.policy.filter.maintenance_misses == 0

    def test_uncompressed_consistency(self):
        kv, _ = written_store(ChuckyPolicy(bits_per_entry=10, compressed=False))
        filter_consistency(kv)

    def test_reads_correct(self):
        kv, ref = written_store(ChuckyPolicy(bits_per_entry=10))
        for k, v in list(ref.items())[:150]:
            assert kv.get(k) == v

    def test_rebuild_on_growth(self):
        cfg = lazy_leveling(3, buffer_entries=4, block_entries=2, initial_levels=1)
        kv, _ = written_store(ChuckyPolicy(bits_per_entry=10), cfg, n=400, universe=10**6)
        assert kv.tree.num_levels > 1
        assert kv.policy.rebuilds >= 1
        filter_consistency(kv)

    def test_filter_entries_match_tree_entries(self):
        kv, _ = written_store(ChuckyPolicy(bits_per_entry=10))
        kv.flush()
        tree_count = kv.tree.num_entries
        assert kv.policy.filter.num_entries == tree_count

    def test_tombstones_tracked(self):
        """Chucky adds a CF entry for each flushed key *including
        tombstones* (section 4.1)."""
        cfg = lazy_leveling(3, buffer_entries=8, block_entries=4)
        kv = KVStore(cfg, filter_policy=ChuckyPolicy(bits_per_entry=10))
        for k in range(30):
            kv.put(k, "x")
        for k in range(10):
            kv.delete(k)
        kv.flush()
        filter_consistency(kv)
        for k in range(10):
            assert kv.get(k) is None

    @staticmethod
    def merge_event(store, moved, fresh, bad_lid=None):
        """A merge into the store's largest sub-level: ``moved`` keys
        from sub-level 1, then ``fresh`` buffer keys (a ``bad_lid``
        origin on the very last survivor)."""
        out = store.tree.num_sublevels
        origins = array(ORIGIN_TYPECODE, [1] * moved + [BUFFER_ORIGIN] * fresh)
        if bad_lid is not None:
            origins[-1] = bad_lid
        return MergeEvent(
            (1,), out, array("Q", range(10**6, 10**6 + moved + fresh)),
            origins, array("Q"), array(ORIGIN_TYPECODE),
        )

    def test_a_bad_lid_refuses_a_whole_chunked_event(self):
        """An event longer than one ``maintain_many`` chunk has its LIDs
        checked before its first chunk lands."""
        from repro.common.errors import FilterError

        cfg = lazy_leveling(3, buffer_entries=8, block_entries=4).with_levels(3)
        kv = KVStore(cfg, filter_policy=ChuckyPolicy(bits_per_entry=10))
        filt = kv.policy.filter
        before = (filt.persist(), filt.num_entries, kv.counters.memory.total)
        event = self.merge_event(kv, 0, EDIT_CHUNK + 10, bad_lid=99)
        with pytest.raises(FilterError, match="LID 99 out of range"):
            kv.policy.handle_event(event)
        assert (filt.persist(), filt.num_entries, kv.counters.memory.total) == before

    def test_chunks_land_as_one_call(self, monkeypatch):
        """An event's edits go to ``maintain_many`` at most
        ``EDIT_CHUNK`` at a time, and the chunks leave the filter and
        the counters exactly as one call with every edit would."""
        cfg = lazy_leveling(3, buffer_entries=8, block_entries=4).with_levels(3)
        fresh = EDIT_CHUNK * 2 + 5
        inserts = self.merge_event(KVStore(cfg), 0, fresh)
        stores = [
            KVStore(cfg, filter_policy=ChuckyPolicy(bits_per_entry=10))
            for _ in range(2)
        ]
        chunked, whole = stores
        calls = []
        original = type(chunked.policy.filter).maintain_many
        monkeypatch.setattr(
            chunked.policy.filter, "maintain_many",
            lambda edits: calls.append(len(edits)) or original(
                chunked.policy.filter, edits
            ),
        )
        chunked.policy.handle_event(inserts)
        out = inserts.output_sublevel
        whole.policy.filter.maintain_many(
            [(key, None, out) for key in inserts.survivors]
        )
        assert calls == [EDIT_CHUNK, EDIT_CHUNK, 5]
        assert chunked.policy.filter.persist() == whole.policy.filter.persist()
        assert chunked.counters.memory.snapshot() == whole.counters.memory.snapshot()

    def test_auxiliary_sizes_reported(self):
        kv, _ = written_store(ChuckyPolicy(bits_per_entry=10))
        aux = kv.policy.auxiliary_bytes
        assert set(aux) == {"huffman_tree", "decoding_table", "recoding_table"}
        assert all(v >= 0 for v in aux.values())

    def test_uncompressed_has_no_auxiliaries(self):
        kv, _ = written_store(ChuckyPolicy(bits_per_entry=10, compressed=False))
        assert kv.policy.auxiliary_bytes == {}

    def test_query_io_constant_vs_bloom_growing(self):
        """Tables 1-2: Chucky's filter cost per negative read is ~2
        memory I/Os; blocked Bloom pays one per sub-level."""
        results = {}
        for name, policy in (
            ("chucky", ChuckyPolicy(bits_per_entry=10)),
            ("bloom", BloomFilterPolicy(10, variant="blocked")),
        ):
            kv, _ = written_store(policy, n=900, universe=10**9, seed=2)
            kv.flush()
            snap = kv.snapshot()
            n = 300
            for i in range(n):
                kv.get(10**15 + i)
            ios = kv.memory_ios_since(snap)
            results[name] = sum(
                v for k, v in ios.items() if k.startswith("filter")
            ) / n
        runs = None
        assert results["chucky"] <= 3.0
        assert results["bloom"] > results["chucky"]


class TestNoFilterPolicy:
    def test_yields_everything(self):
        kv, ref = written_store(NoFilterPolicy())
        occupied = kv.tree.occupied_runs()
        cands = list(kv.policy.candidates(123))
        assert cands == [s for s, _ in occupied]

    def test_zero_size(self):
        assert NoFilterPolicy().size_bits == 0
