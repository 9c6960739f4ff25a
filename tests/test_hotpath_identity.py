"""Runtime codec vs bit-serial reference identity for the
probe/insert/decode hot path.

The table-driven decode, packed bucket storage, and batched dispatch
are pure performance work: every counted I/O, membership answer, and
serialized filter blob must stay bit-identical to the reference
implementation they replaced. That reference no longer ships in the
runtime: :mod:`tests.reference_codec` holds it, and
:func:`~tests.reference_codec.reference_codec` installs it where
``ChuckyFilter`` looks its codec up. These tests run the same
deterministic workloads both ways and demand equality — at the codec
level (hypothesis-generated buckets), the filter level
(insert/query/update/remove/persist/recover), and the engine level
(whole stores across presets and shard counts, including the
crash/recovery faultcheck harness). ``TestOneMaintenanceLoop`` holds
the one maintenance loop to the per-entry path it replaced
(:mod:`tests.reference_maintenance`) the same way.
"""

import functools
import random
from unittest import mock
from weakref import WeakValueDictionary

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chucky import codebook as codebook_module
from repro.chucky.bucket import BucketCodec
from repro.chucky.codebook import ChuckyCodebook
from repro.chucky.filter import ChuckyFilter, UncompressedLidFilter
from repro.chucky.partitioned import PartitionedChuckyFilter
from repro.chucky.tables import CodecTables
from repro.coding.distributions import LidDistribution
from repro.common.counters import MemoryIOCounter
from repro.common.hashing import fingerprint_bits
from repro.engine.config import EngineConfig, build_store
from repro.obs.metrics import MetricsRegistry
from tests import reference_maintenance as per_entry
from tests.reference_codec import (
    ReferenceBucketCodec,
    ReferenceCodecTables,
    reference_codec,
)

DIST = LidDistribution(4, 5)


def _random_slots(cb, rng):
    slots = []
    for _ in range(cb.slots):
        if rng.random() < 0.25:
            slots.append((cb.empty_lid, 0))
        else:
            lid = rng.choice(list(DIST.lids))
            slots.append((lid, fingerprint_bits(rng.getrandbits(60), cb.fp_length(lid))))
    return slots


class TestCodecIdentity:
    """pack/unpack/is_rare agree with the reference on every bucket."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_roundtrip_matches_reference(self, seed):
        cb = ChuckyCodebook(DIST, slots=4, bucket_bits=36)
        rng = random.Random(seed)
        slots = _random_slots(cb, rng)

        fast_counter = MemoryIOCounter()
        codec = BucketCodec(cb, CodecTables(cb, memory_ios=fast_counter))
        fast_packed, fast_ovf = codec.pack(slots)
        fast_out = codec.unpack(fast_packed, fast_ovf)
        fast_rare = codec.is_rare(fast_packed)

        ref_counter = MemoryIOCounter()
        ref = ReferenceBucketCodec(
            cb, ReferenceCodecTables(cb, memory_ios=ref_counter)
        )
        ref_packed, ref_ovf = ref.pack(slots)
        assert (fast_packed, fast_ovf) == (ref_packed, ref_ovf)
        assert fast_out == ref.unpack(ref_packed, ref_ovf)
        assert fast_rare == ref.is_rare(ref_packed)
        assert fast_counter.snapshot() == ref_counter.snapshot()

    def test_pack_fns_cover_every_frequent_combination(self):
        """A compiled pack function exists for exactly the frequent
        combinations — a frequent combo missing its function would
        silently fall back to the rare/overflow path and corrupt
        accounting."""
        cb = ChuckyCodebook(DIST, slots=4, bucket_bits=36)
        assert set(cb.fast.pack_fns) == set(cb.frequent)

    def test_pack_overflow_error_matches_reference_message(self):
        """The fused single-guard overflow check must surface a
        FilterError naming the over-wide fingerprint's slot (the
        bit-serial reference refuses the same bucket, from BitWriter)."""
        from repro.common.errors import FilterError

        cb = ChuckyCodebook(DIST, slots=4, bucket_bits=36)
        codec = BucketCodec(cb, CodecTables(cb))
        combo = next(iter(cb.fast.pack_fns))
        slots = [(lid, 0) for lid in combo]
        lid0, flen0 = combo[0], cb.fp_length(combo[0])
        slots[0] = (lid0, 1 << flen0)
        with pytest.raises(FilterError, match="wider than") as exc:
            codec.pack(list(slots))
        assert f"for LID {lid0}" in str(exc.value)
        ref = ReferenceBucketCodec(cb, ReferenceCodecTables(cb))
        with pytest.raises(ValueError, match="does not fit"):
            ref.pack(list(slots))


def _filter_workload(seed: int, ops: int = 800):
    """Drive one ChuckyFilter through a mixed op stream; return every
    observable: answers, counted I/Os, and the persisted blob."""
    counter = MemoryIOCounter()
    filt = ChuckyFilter(2000, DIST, bits_per_entry=10.0, memory_ios=counter)
    rng = random.Random(seed)
    probs = [float(p) for p in DIST.probabilities()]
    lids = list(DIST.lids)
    live: list[tuple[int, int]] = []
    answers = []
    for _ in range(ops):
        roll = rng.random()
        if roll < 0.45 or not live:
            key = rng.getrandbits(48)
            lid = rng.choices(lids, weights=probs)[0]
            filt.insert(key, lid)
            live.append((key, lid))
        elif roll < 0.70:
            key, _ = live[rng.randrange(len(live))]
            answers.append((key, filt.query(key)))
        elif roll < 0.85:
            answers.append((None, filt.query(rng.getrandbits(48))))
        elif roll < 0.95:
            idx = rng.randrange(len(live))
            key, lid = live[idx]
            new_lid = rng.choice(lids)
            if filt.update_lid(key, lid, new_lid):
                live[idx] = (key, new_lid)
        else:
            idx = rng.randrange(len(live))
            key, lid = live.pop(idx)
            filt.remove(key, lid)
    return answers, counter.snapshot(), filt.persist()


class TestFilterIdentity:
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_workload_observables_match_reference(self, seed):
        fast = _filter_workload(seed)
        with reference_codec():
            ref = _filter_workload(seed)
        assert fast[0] == ref[0], "membership answers diverged"
        assert fast[1] == ref[1], "counted memory I/Os diverged"
        assert fast[2] == ref[2], "persisted filter blob diverged"

    def test_skewed_match_plan_is_caught(self):
        """Canary: the comparison above sees the probe's plan matching.
        One frequent plan whose digest shift is off by one — the field
        a probe compares and ``unpack`` ignores — must make the fast
        filter's answers leave the reference decode's."""
        from repro.chucky import decode

        class Skewed(decode.PrefixDecodeTable):
            def __init__(self, code, payloads=None):
                # The shortest code is the all-empty-LID combination;
                # its last field holds the bucket's largest fingerprint,
                # a live entry whenever the bucket holds any.
                lengths = code.codewords()
                combo = min(payloads, key=lambda c: lengths[c][1])
                *head, (lid, shift, mask, fp_shift) = payloads[combo]
                plan = (*head, (lid, shift, mask, fp_shift + 1))
                super().__init__(code, payloads={**payloads, combo: plan})

        # A fresh memo inside the patch: a live codebook of this
        # geometry (from any earlier test) would hand back its unskewed
        # tables, and the skewed one must stay out of the memo that
        # later tests share.
        with (
            mock.patch.object(decode, "PrefixDecodeTable", Skewed),
            mock.patch.object(codebook_module, "_CODEBOOKS", WeakValueDictionary()),
        ):
            armed = ChuckyFilter(2000, DIST, bits_per_entry=10.0)
            assert type(armed.codebook.fast.decode_table) is Skewed
            with pytest.raises(AssertionError, match="answers diverged"):
                self.test_workload_observables_match_reference(0)

    def test_reference_codec_runs_no_compiled_pack(self):
        """Inside ``reference_codec()`` every edit re-encodes through the
        bit-serial packer — the empty-bucket plan edit too — so no
        compiled pack function runs during insert, update or remove
        (the runtime codec, on the same edits, runs them)."""
        calls = []

        def counting(fn):
            def pack(ordered):
                calls.append(fn)
                return fn(ordered)

            return pack

        def edits(filt):
            pack_fns = filt.codebook.fast.pack_fns
            with mock.patch.dict(
                pack_fns, {combo: counting(fn) for combo, fn in pack_fns.items()}
            ):
                for key in range(300):
                    filt.insert(key, 1 + key % 5)
                for key in range(0, 300, 2):
                    assert filt.update_lid(key, 1 + key % 5, 5)
                for key in range(1, 300, 2):
                    assert filt.remove(key, 1 + key % 5)
            return len(calls)

        with reference_codec():
            assert edits(ChuckyFilter(400, DIST, bits_per_entry=10.0)) == 0
        assert edits(ChuckyFilter(400, DIST, bits_per_entry=10.0)) > 0

    def test_recover_matches_reference(self):
        _, _, blob = _filter_workload(42)
        fast = ChuckyFilter.recover(blob, DIST, bits_per_entry=10.0)
        with reference_codec():
            ref = ChuckyFilter.recover(blob, DIST, bits_per_entry=10.0)
            rng = random.Random(9)
            for _ in range(300):
                key = rng.getrandbits(48)
                assert fast.query(key) == ref.query(key)
        assert fast.persist() == ref.persist() == blob


MAINTENANCE_KINDS = ("chucky", "uncompressed", "partitioned")
#: loaded: ~60 % full; overflow: rare-combination buckets planted;
#: full: filled past its slots, so walks spill into the AHT and removals
#: repatriate; self_paired: every key's two candidates coincide.
MAINTENANCE_STATES = ("loaded", "overflow", "full", "self_paired")


def _parts(filt):
    return filt.partitions if isinstance(filt, PartitionedChuckyFilter) else [filt]


def _owner(filt, key):
    if isinstance(filt, PartitionedChuckyFilter):
        return filt._partition_of(key)
    return filt


@functools.lru_cache(maxsize=None)
def _self_paired_keys(kind: str) -> tuple[int, ...]:
    """Keys whose two candidate buckets coincide in the self_paired
    state's geometry (bucket pairs depend on the geometry alone)."""
    filt = _maintenance_state(kind, "self_paired", fill=False)[0]
    return tuple(
        k for k in range(20000) if len(set(_owner(filt, k).bucket_pair(k))) == 1
    )[:24]


def _maintenance_state(kind: str, state: str, fill: bool = True):
    """A filter of ``kind`` in ``state`` — deterministic, so two calls
    build two identical filters — with its counter, its registry, the
    ``(key, lid)`` mappings it holds and the keys new inserts draw from
    (``None``: fresh random keys)."""
    counter = MemoryIOCounter()
    registry = MetricsRegistry()
    dist = LidDistribution(3, 3) if state == "self_paired" else DIST
    capacity = {"loaded": 160, "overflow": 160, "full": 64, "self_paired": 200}[state]
    shared = dict(
        bits_per_entry=10.0, memory_ios=counter, seed=11, metrics=registry
    )
    if kind == "partitioned":
        filt = PartitionedChuckyFilter(
            max(capacity, 128), dist, partition_capacity=64, **shared
        )
    elif kind == "chucky":
        filt = ChuckyFilter(capacity, dist, **shared)
    else:
        filt = UncompressedLidFilter(capacity, dist, **shared)
    rng = random.Random(5)
    probs = [float(p) for p in dist.probabilities()]
    lids = list(dist.lids)
    live: list[tuple[int, int]] = []
    if not fill:
        return filt, counter, registry, live, None
    pool = _self_paired_keys(kind) if state == "self_paired" else None
    slots = sum(part.num_buckets * part.slots for part in _parts(filt))
    count = {"loaded": 100, "overflow": 90, "self_paired": 30}.get(
        state, slots + slots // 8
    )
    for i in range(count):
        key = pool[i % len(pool)] if pool else rng.getrandbits(48)
        lid = rng.choices(lids, weights=probs)[0]
        filt.insert(key, lid)
        live.append((key, lid))
    if state == "overflow":
        for part in _parts(filt):
            if not isinstance(part, ChuckyFilter):
                break
            rare = part.codebook.rare[0]
            for _ in range(3):
                key = rng.getrandbits(48)
                while _owner(filt, key) is not part:
                    key = rng.getrandbits(48)
                digest, b1, _ = part._address(key)
                # Replaces whatever b1 held: those mappings now miss.
                part._write_bucket(b1, [part._slot(digest, lid) for lid in rare])
                live.extend((key, lid) for lid in rare)
            assert part.overflow
    if state == "full":
        assert any(part.aht for part in _parts(filt))
    return filt, counter, registry, live, pool


def _event(filt, live, pool, lids, seed: int):
    """A flush / merge-like list of edits over ``filt``'s state:
    inserts (fresh keys or new versions), LID updates (some in place),
    removals that favour keys whose pair has homeless AHT entries (so
    they repatriate), and updates and removals of absent mappings."""
    rng = random.Random(seed)
    live = list(live)
    edits = []
    for _ in range(rng.randint(1, 48)):
        roll = rng.random()
        if roll < 0.3 or not live:
            key = rng.choice(pool) if pool else rng.getrandbits(48)
            lid = rng.choice(lids)
            edits.append((key, None, lid))
            live.append((key, lid))
        elif roll < 0.6:
            idx = rng.randrange(len(live))
            key, lid = live[idx]
            new = rng.choice(lids)
            edits.append((key, lid, new))
            live[idx] = (key, new)
        elif roll < 0.85:
            homeless = [
                i for i, (key, _) in enumerate(live)
                if _owner(filt, key)._pair_key(*_owner(filt, key).bucket_pair(key))
                in _owner(filt, key).aht
            ]
            idx = rng.choice(homeless) if homeless and rng.random() < 0.7 else (
                rng.randrange(len(live))
            )
            key, lid = live.pop(idx)
            edits.append((key, lid, None))
        else:
            key, lid = rng.getrandbits(48), rng.choice(lids)
            new = None if rng.random() < 0.5 else lid % len(lids) + 1
            edits.append((key, lid, new))
    return edits


def _maintenance_observables(filt, counter, registry):
    walks = registry.get("chucky_eviction_walk_length")
    spills = registry.get("chucky_aht_spills_total")
    return (
        sorted(counter.snapshot().items()),
        [
            part.persist() if isinstance(part, ChuckyFilter)
            else (part._buckets._lids.tolist(), part._buckets._fps.tolist())
            for part in _parts(filt)
        ],
        [(part.num_entries, part.maintenance_misses) for part in _parts(filt)],
        [sorted(part.aht.items()) for part in _parts(filt)],
        [part._rng.getstate() for part in _parts(filt)],
        (walks.counts, walks.sum, walks.count) if walks else None,
        spills.value if spills else None,
    )


def _event_both_ways(kind: str, state: str, seed: int):
    """Apply one event at once and entry by entry to two identically
    built filters; return both sides' misses and observables."""
    fast, counter, registry, live, pool = _maintenance_state(kind, state)
    lids = list(_parts(fast)[0].dist.lids)
    edits = _event(fast, live, pool, lids, seed)
    fast_misses = fast.maintain_many(edits)
    fast_obs = _maintenance_observables(fast, counter, registry)
    ref, counter, registry, _, _ = _maintenance_state(kind, state)
    ref_misses = sum(
        not per_entry.apply(_owner(ref, edit[0]), edit) for edit in edits
    )
    ref_obs = _maintenance_observables(ref, counter, registry)
    return (fast_misses, fast_obs), (ref_misses, ref_obs)


class TestOneMaintenanceLoop:
    """An event applied at once through ``maintain_many`` equals the
    same edits applied one at a time by the per-entry path the loop
    replaced, on every observable: the persisted bytes (bucket and slot
    arrays, uncompressed), every counted I/O category, entry and miss
    counts, the AHT, the eviction RNG's state, the walk histogram."""

    @pytest.mark.parametrize("codec", ["table", "reference"])
    @pytest.mark.parametrize("state", MAINTENANCE_STATES)
    @pytest.mark.parametrize("kind", MAINTENANCE_KINDS)
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_event_at_once_equals_entry_by_entry(self, kind, state, codec, seed):
        if codec == "reference":
            with reference_codec():
                fast, ref = _event_both_ways(kind, state, seed)
        else:
            fast, ref = _event_both_ways(kind, state, seed)
        assert fast == ref

    @pytest.mark.parametrize("kind", MAINTENANCE_KINDS)
    def test_removals_repatriate_and_misses_count(self, kind):
        """The full state's events really pull homeless entries back
        and really miss — the paths the identity above must cover."""
        repatriated = missed = 0
        for seed in range(40):
            (misses, obs), ref = _event_both_ways(kind, "full", seed)
            assert (misses, obs) == ref
            missed += misses
            filt, *_ = _maintenance_state(kind, "full")
            before = sum(len(v) for part in _parts(filt) for v in part.aht.values())
            after = sum(len(v) for aht in obs[3] for _, v in aht)
            repatriated += after < before
        assert missed > 0
        assert repatriated > 0

    @pytest.mark.parametrize("kind", ["chucky", "uncompressed"])
    def test_a_bad_lid_refuses_the_whole_event(self, kind):
        """Each distinct LID is checked once, before any edit of the
        call lands (a partitioned filter makes one call per partition)."""
        from repro.common.errors import FilterError

        filt, counter, registry, *_ = _maintenance_state(kind, "loaded")
        before = _maintenance_observables(filt, counter, registry)
        edits = [(12345, None, 1), (12346, None, DIST.num_sublevels + 1)]
        with pytest.raises(FilterError, match="out of range"):
            filt.maintain_many(edits)
        assert _maintenance_observables(filt, counter, registry) == before


def _store_workload(preset: str, shards: int, seed: int = 3):
    config = getattr(EngineConfig, preset)(
        size_ratio=4,
        buffer_entries=32,
        block_entries=8,
        cache_blocks=32,
        policy="chucky",
        shards=shards,
    )
    store = build_store(config)
    rng = random.Random(seed)
    for key in range(150):
        store.put(key, f"v{key}")
    store.flush()
    reads = []
    for _ in range(400):
        if rng.random() < 0.8:
            key = rng.randrange(300)  # half the probes miss
            reads.append((key, store.get(key)))
        else:
            key = rng.randrange(300)
            store.put(key, f"u{key}")
    batch = [rng.randrange(300) for _ in range(64)]
    reads.append(("batch", store.get_batch(batch)))
    store.flush()
    return reads, store.snapshot().as_dict()


class TestEngineIdentity:
    @pytest.mark.parametrize(
        "preset,shards",
        [("leveled", 1), ("tiered", 1), ("lazy_leveled", 1), ("leveled", 4)],
    )
    def test_store_observables_match_reference(self, preset, shards):
        fast = _store_workload(preset, shards)
        with reference_codec():
            ref = _store_workload(preset, shards)
        assert fast[0] == ref[0], "read results diverged"
        assert fast[1] == ref[1], "counted I/O snapshot diverged"


class TestCrashRecoveryIdentity:
    def test_faultcheck_matches_reference(self):
        """The crash/recovery campaign sees identical worlds both ways
        — same schedules explored, same violations (none)."""
        from repro.faults.harness import FaultcheckConfig, run_faultcheck

        cfg = FaultcheckConfig(
            seeds=3, ops=30, schedules_per_seed=2, transient_rate=0.0
        )
        fast = run_faultcheck(cfg)
        with reference_codec():
            ref = run_faultcheck(cfg)
        assert fast.ok and ref.ok
        assert fast.as_dict() == ref.as_dict()


class TestDecodeSpeedup:
    def test_table_decode_at_least_2x_reference(self):
        """The acceptance bar: byte-at-a-time decode must beat the
        bit-serial reference by >= 2x on the hot prefix-decode path."""
        import time

        cb = ChuckyCodebook(DIST, slots=4, bucket_bits=36)
        codec = BucketCodec(cb, CodecTables(cb))
        rng = random.Random(5)
        packed = [codec.pack(_random_slots(cb, rng))[0] for _ in range(64)]
        bits = cb.bucket_bits

        def round_ns(tables, inner=2000):
            start = time.perf_counter_ns()
            for i in range(inner):
                tables.decode_prefix(packed[i % 64], bits)
            return time.perf_counter_ns() - start

        def speedup(rounds=9):
            """Best-of-``rounds`` each, the two timed back to back in
            every round so a slow stretch of the host hits both."""
            fast_tables, ref_tables = CodecTables(cb), ReferenceCodecTables(cb)
            fast_ns = ref_ns = float("inf")
            for _ in range(rounds):
                fast_ns = min(fast_ns, round_ns(fast_tables))
                ref_ns = min(ref_ns, round_ns(ref_tables))
            return ref_ns / fast_ns

        # The bar is what the code can do, not what a shared host lets
        # one attempt show: up to three attempts, the first >= 2x passes.
        best = 0.0
        for _ in range(3):
            best = max(best, speedup())
            if best >= 2.0:
                break
        assert best >= 2.0, f"decode speedup {best:.2f}x < 2x"
