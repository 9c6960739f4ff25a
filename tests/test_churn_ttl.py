"""End-to-end delete-churn and TTL-expiry property tests.

The acceptance bar for the delete-heavy workload support: many
insert/delete/re-insert cycles across both merge presets and all three
filter shapes with never a false negative and a bounded store; batched
reads bit-identical to scalar reads in counted I/Os; crash/recovery
mid-churn keeping acked deletes dead; TTL'd values round-tripping the
WAL (including non-UTF-8 bytes) and expiring honestly; and the measured
churn-FPR story — Chucky flat, uniform Bloom degrading — that the
delete-contract and maintenance-miss fixes exist to protect.
"""

import random

import pytest

from repro.chucky.policy import ChuckyPolicy
from repro.engine.kvstore import KVStore
from repro.faults.invariants import InvariantChecker
from repro.filters.policy import available_policies, make_policy
from repro.lsm.config import leveling, tiering
from repro.lsm.entry import KEY
from repro.obs import Observability

CYCLES = 12
POPULATION = 240

PRESETS = {
    "leveled": lambda: leveling(3, buffer_entries=16, block_entries=8),
    "tiered": lambda: tiering(3, buffer_entries=16, block_entries=8),
}

POLICIES = {
    "chucky": lambda: ChuckyPolicy(bits_per_entry=10.0),
    "bloom-standard": lambda: make_policy("bloom-standard", 10.0),
    "partitioned": lambda: ChuckyPolicy(
        bits_per_entry=10.0, partition_capacity=256
    ),
}


def _make_store(preset, policy, durable=False, observability=None):
    """``policy`` is a ``POLICIES`` key or any registered policy name."""
    factory = POLICIES.get(policy)
    return KVStore(
        PRESETS[preset](),
        filter_policy=factory() if factory else make_policy(policy, 10.0),
        durable=durable,
        observability=observability,
    )


#: Where ``test_get_batch_counted_ios_identical_to_scalar``'s batches
#: start: 7, 8 and 65 keys, then the rest in one batch.
BATCH_BOUNDS = [0, 7, 15, 80]


def _churn_cycle(kv, live, rng, cycle):
    """One insert/delete/re-insert pass over the population; ``live``
    is the reference model (key -> expected value) and is kept exact."""
    for key in range(POPULATION):
        if key in live and rng.random() < 0.5:
            kv.delete(key)
            del live[key]
        else:
            value = f"c{cycle}k{key}"
            kv.put(key, value)
            live[key] = value


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize(
    "policy", sorted(set(available_policies()) | set(POLICIES))
)
def test_get_batch_counted_ios_identical_to_scalar(preset, policy):
    """``get``, ``get_batch`` and the traced ``get_with_stats`` are one
    read path: same values, same counted I/Os and false positives, for
    every registered policy — and the traced read still shows its hops.
    The batches straddle the bulk-hashing threshold (7, 8 and 65 keys)
    and hold absent keys, which a Chucky filter gives no candidates, so
    a batch read that skips their walk is shown to charge nothing."""
    obs = Observability()
    stores = [
        _make_store(preset, policy),
        _make_store(preset, policy),
        _make_store(preset, policy, observability=obs),
    ]
    for kv in stores:
        rng = random.Random(3)
        live = {}
        for cycle in range(4):
            _churn_cycle(kv, live, rng, cycle)
    probes = []
    for key in range(POPULATION):
        probes.append(key)
        if key % 3 == 0:
            probes.append(POPULATION + 5 + key)
    probes.append(1 << 30)
    before = [kv.snapshot() for kv in stores]
    scalar_kv, batch_kv, traced_kv = stores
    scalar = [scalar_kv.get(key) for key in probes]
    batched = []
    for start, stop in zip(BATCH_BOUNDS, BATCH_BOUNDS[1:] + [len(probes)]):
        batched += batch_kv.get_batch(probes[start:stop])
    traced = []
    for key in probes:
        result = traced_kv.get_with_stats(key)
        traced.append(result.value)
        read = obs.tracer.recent(1)[0]
        assert read.name == "read" and read.attrs["key"] == key
        hops = [child.name for child in read.children]
        if hops == ["memtable_probe"]:
            assert result.sublevels_probed == 0
            continue
        assert hops == ["memtable_probe", "filter_probe"]
        probe = read.children[1]
        assert probe.attrs == {
            "false_positives": result.false_positives,
            "runs_probed": result.sublevels_probed,
        }
        assert [c.name for c in probe.children] == (
            ["run_probe"] * result.sublevels_probed
        )
    assert scalar == batched == traced == [live.get(key) for key in probes]
    deltas = []
    for kv, snap in zip(stores, before):
        after = kv.snapshot()
        deltas.append((
            after.storage_reads - snap.storage_reads,
            after.false_positives - snap.false_positives,
            after.queries - snap.queries,
            dict(after.memory),
        ))
    assert deltas[0] == deltas[1] == deltas[2]
    assert deltas[0][0] > 0  # the reads really reached storage
    if isinstance(batch_kv.policy, ChuckyPolicy):
        ruled_out = [not batch_kv.policy.candidates(key) for key in probes]
        for start, stop in zip(BATCH_BOUNDS, BATCH_BOUNDS[1:]):
            assert any(ruled_out[start:stop])


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("policy", sorted(POLICIES))
class TestChurnCycles:
    def test_many_cycles_no_false_negative_bounded_entries(
        self, preset, policy
    ):
        kv = _make_store(preset, policy)
        rng = random.Random(7)
        live = {}
        checker = InvariantChecker()
        for cycle in range(CYCLES):
            _churn_cycle(kv, live, rng, cycle)
            # Every live key answers with its exact value — a false
            # negative here is the collision-strip / maintenance-miss
            # bug class this PR closes. Every dead key answers None.
            for key in range(POPULATION):
                got = kv.get(key)
                if key in live:
                    assert got == live[key], (preset, policy, cycle, key)
                else:
                    assert got is None, (preset, policy, cycle, key)
            # The live set is bounded, so the store must be too: merges
            # purge tombstones (and their fingerprints) at the oldest
            # sub-level instead of letting churn grow the tree forever.
            assert kv.num_entries <= 5 * POPULATION, (preset, policy, cycle)
            if cycle % 4 == 3:
                violations = checker.check_filter_exactness(kv)
                assert violations == [], (preset, policy, cycle, violations)
        # Sanity: the churn actually deleted things.
        assert 0 < len(live) < POPULATION

    def test_crash_recover_mid_churn_keeps_acked_deletes_dead(
        self, preset, policy
    ):
        kv = _make_store(preset, policy, durable=True)
        rng = random.Random(11)
        live = {}
        for cycle in range(5):
            _churn_cycle(kv, live, rng, cycle)
        deleted = [key for key in range(POPULATION) if key not in live]
        assert deleted
        state = kv.crash()
        recovered = KVStore.recover(
            state, PRESETS[preset](), filter_policy=POLICIES[policy]()
        )
        for key in deleted:
            assert recovered.get(key) is None, (preset, policy, key)
        for key, value in live.items():
            assert recovered.get(key) == value, (preset, policy, key)
        # Churn straight through the recovered store: still exact.
        for cycle in range(5, 7):
            _churn_cycle(recovered, live, rng, cycle)
        for key in range(POPULATION):
            expected = live.get(key)
            assert recovered.get(key) == expected, (preset, policy, key)


class TestTtlExpiry:
    def test_expired_before_read_answers_none(self):
        kv = _make_store("leveled", "chucky")
        kv.put(1, "soon-dead", ttl=0)
        kv.put(2, "alive", ttl=1 << 60)
        assert kv.get(1) is None
        assert kv.get(2) == "alive"

    def test_expiry_shadows_older_versions(self):
        # An expired entry behaves like a tombstone toward older
        # versions: the read stops at it and answers None rather than
        # resurrecting the shadowed value.
        kv = _make_store("leveled", "chucky")
        kv.put(1, "durable-old")
        kv.flush()
        kv.put(1, "ephemeral", ttl=0)
        assert kv.get(1) is None
        assert [kv] and kv.get_batch([1]) == [None]
        assert list(kv.scan(0, 10)) == []

    def test_expired_entries_reclaimed_by_merges(self):
        kv = _make_store("leveled", "chucky")
        for key in range(64):
            kv.put(key, f"v{key}", ttl=0)
        # Lazy reclamation: expired entries still occupy the tree until
        # merge work visits them at the oldest sub-level.
        churn_keys = range(1000, 1000 + 600)
        for key in churn_keys:
            kv.put(key, "filler")
        kv.flush()
        with kv.tree.storage.counting_suspended():
            stored = {
                entry[KEY]
                for _, run in kv.tree.occupied_runs()
                for entry in run.read_all()
            }
        reclaimed = 64 - sum(1 for key in range(64) if key in stored)
        assert reclaimed > 0  # merges are dropping expired entries
        assert all(kv.get(key) is None for key in range(64))
        checker = InvariantChecker()
        assert checker.check_filter_exactness(kv) == []

    def test_ttl_none_counted_ios_bit_identical(self):
        # ttl=None must be byte-for-byte the seed's put path: identical
        # counted I/Os, identical WAL bytes.
        a = _make_store("leveled", "chucky", durable=True)
        b = _make_store("leveled", "chucky", durable=True)
        rng_ops = [
            (key, f"v{key}") for key in random.Random(5).sample(range(500), 300)
        ]
        for key, value in rng_ops:
            a.put(key, value)
            b.put(key, value, ttl=None)
        probes = [key for key, _ in rng_ops[:100]] + [9999]
        assert [a.get(k) for k in probes] == [b.get(k) for k in probes]
        sa, sb = a.snapshot(), b.snapshot()
        assert sa.storage_reads == sb.storage_reads
        assert sa.storage_writes == sb.storage_writes
        assert dict(sa.memory) == dict(sb.memory)
        assert bytes(a.wal.data) == bytes(b.wal.data)

    def test_ttl_wal_round_trip_including_raw_bytes(self):
        kv = _make_store("leveled", "chucky", durable=True)
        raw = b"\xff\xfe\x00raw"
        kv.put(1, raw, ttl=1 << 60)
        kv.put(2, "text", ttl=1 << 60)
        kv.put(3, b"\x80gone", ttl=0)
        state = kv.crash()
        recovered = KVStore.recover(
            state, PRESETS["leveled"](), filter_policy=POLICIES["chucky"]()
        )
        assert recovered.get(1) == raw
        assert recovered.get(2) == "text"
        assert recovered.get(3) is None  # expired stays dead post-recovery

    def test_clock_floor_survives_crash(self):
        kv = _make_store("leveled", "chucky", durable=True)
        for key in range(100):
            kv.put(key, "x" * 20)
        kv.flush()
        crashed_at = kv.now_ns()
        assert crashed_at > 0
        state = kv.crash()
        recovered = KVStore.recover(
            state, PRESETS["leveled"](), filter_policy=POLICIES["chucky"]()
        )
        # Monotone across the crash: a TTL that had expired can never
        # un-expire because the clock jumped backwards.
        assert recovered.now_ns() >= crashed_at

    def test_sharded_put_forwards_ttl(self):
        from repro.engine.config import EngineConfig, build_store

        store = build_store(
            EngineConfig.leveled(
                3, buffer_entries=16, block_entries=8, shards=2
            )
        )
        store.put(1, "dead", ttl=0)
        store.put(2, "alive", ttl=1 << 60)
        assert store.get(1) is None
        assert store.get(2) == "alive"


class TestChurnFprStory:
    """The measured counterpart of EXPERIMENTS.md's churn-FPR note."""

    @staticmethod
    def _fpr_after_churn(policy_name, population, cycles=6):
        kv = KVStore(
            PRESETS["leveled"](), filter_policy=POLICIES[policy_name]()
        )
        rng = random.Random(3)
        live = set()
        for _ in range(cycles):
            for key in range(population):
                if key in live and rng.random() < 0.5:
                    kv.delete(key)
                    live.discard(key)
                else:
                    kv.put(key, "v")
                    live.add(key)
        kv.flush()
        snap = kv.snapshot()
        probes = 4000
        for key in range(1 << 40, (1 << 40) + probes):
            kv.get(key)
        fp = kv.snapshot().false_positives - snap.false_positives
        return fp / probes, len(kv.tree.occupied_runs())

    def test_chucky_flat_bloom_degrades_as_churny_tree_deepens(self):
        # Same delete-heavy churn at two dataset scales. The larger
        # store holds more sub-levels; uniform Bloom's FPR grows with
        # that count (Eq 2) while Chucky's one-filter FPR does not
        # (Eq 16) — *provided* deletes actually remove fingerprints,
        # which is exactly what this PR's fixes guarantee.
        chucky_small, runs_small = self._fpr_after_churn("chucky", 150)
        chucky_large, runs_large = self._fpr_after_churn("chucky", 2400)
        bloom_small, _ = self._fpr_after_churn("bloom-standard", 150)
        bloom_large, _ = self._fpr_after_churn("bloom-standard", 2400)
        assert runs_large > runs_small  # the tree really did deepen
        assert chucky_large <= chucky_small * 1.5  # flat
        assert bloom_large >= bloom_small * 1.2  # degrading
        assert bloom_large > 2 * chucky_large  # and already worse
