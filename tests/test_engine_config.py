"""EngineConfig, the policy registry, and the build_store factory."""

import random

import pytest

from repro.chucky.policy import ChuckyPolicy
from repro.engine import (
    EngineConfig,
    KVStore,
    ShardedKVStore,
    build_shard,
    build_store,
    recover_store,
)
from repro.filters.policy import (
    BloomFilterPolicy,
    NoFilterPolicy,
    XorFilterPolicy,
    available_policies,
    make_policy,
    register_policy,
)
from repro.lsm.config import LSMConfig
from repro.obs import Observability, registry_to_dict


class TestPolicyRegistry:
    def test_names_registered(self):
        assert {"chucky", "chucky-uncompressed", "bloom", "bloom-standard",
                "xor", "none"} <= set(available_policies())

    def test_make_policy_types(self):
        assert isinstance(make_policy("chucky"), ChuckyPolicy)
        assert isinstance(make_policy("none"), NoFilterPolicy)
        assert isinstance(make_policy("xor"), XorFilterPolicy)
        bloom = make_policy("bloom", 12.0)
        assert isinstance(bloom, BloomFilterPolicy)
        assert (bloom.variant, bloom.allocation) == ("blocked", "optimal")
        assert bloom.bits_per_entry == 12.0
        standard = make_policy("bloom-standard")
        assert (standard.variant, standard.allocation) == ("standard", "uniform")

    def test_chucky_uncompressed_flag(self):
        assert make_policy("chucky-uncompressed").compressed is False

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown filter policy"):
            make_policy("quotient-9000")

    def test_register_and_replace(self):
        register_policy("test-dummy", lambda m: NoFilterPolicy())
        try:
            assert isinstance(make_policy("test-dummy"), NoFilterPolicy)
            with pytest.raises(ValueError, match="already registered"):
                register_policy("test-dummy", lambda m: NoFilterPolicy())
            register_policy(
                "test-dummy", lambda m: BloomFilterPolicy(m), replace=True
            )
            assert isinstance(make_policy("test-dummy"), BloomFilterPolicy)
        finally:
            from repro.filters.policy import _POLICY_REGISTRY

            _POLICY_REGISTRY.pop("test-dummy", None)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            register_policy("", lambda m: NoFilterPolicy())


class TestEngineConfig:
    def test_defaults_build_kvstore(self):
        store = build_store(EngineConfig())
        assert isinstance(store, KVStore)
        assert isinstance(store.policy, ChuckyPolicy)

    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(shards=0)
        with pytest.raises(ValueError):
            EngineConfig(policy="nope")
        with pytest.raises(ValueError):
            EngineConfig(size_ratio=1)  # LSMConfig rejects T < 2
        with pytest.raises(ValueError):
            EngineConfig(cache_blocks=-1)
        with pytest.raises(ValueError):
            EngineConfig(bits_per_entry=-2.0)

    def test_lsm_config_mirrors_fields(self):
        cfg = EngineConfig(size_ratio=4, runs_per_level=3,
                           runs_at_last_level=2, buffer_entries=16,
                           block_entries=8, initial_levels=2)
        assert cfg.lsm_config() == LSMConfig(
            size_ratio=4, runs_per_level=3, runs_at_last_level=2,
            buffer_entries=16, block_entries=8, initial_levels=2,
        )

    def test_presets(self):
        lazy = EngineConfig.lazy_leveled(size_ratio=5)
        assert (lazy.runs_per_level, lazy.runs_at_last_level) == (4, 1)
        tier = EngineConfig.tiered(size_ratio=5)
        assert (tier.runs_per_level, tier.runs_at_last_level) == (4, 4)
        level = EngineConfig.leveled(size_ratio=5)
        assert (level.runs_per_level, level.runs_at_last_level) == (1, 1)

    def test_one_preset_table(self):
        """Every preset spelling reads repro.lsm.config.PRESETS: the lsm
        constructors, EngineConfig's, the policy_name labels and the CLI
        --preset choices."""
        from repro.cli import build_parser
        from repro.lsm.config import PRESETS, lazy_leveling, leveling, tiering

        assert tuple(PRESETS) == ("leveled", "tiered", "lazy")
        makers = {"leveled": leveling, "tiered": tiering, "lazy": lazy_leveling}
        for size_ratio in (3, 5, 8):
            for name, (label, _) in PRESETS.items():
                lsm = makers[name](size_ratio)
                assert EngineConfig.preset(name, size_ratio).lsm_config() == lsm
                assert lsm.policy_name == label
        assert EngineConfig.lazy_leveled(5) == EngineConfig.preset("lazy", 5)
        with pytest.raises(ValueError, match="unknown preset 'lazy-leveled'"):
            EngineConfig.preset("lazy-leveled")
        for command in ("tune", "faultcheck"):
            for name in PRESETS:
                args = build_parser().parse_args([command, "--preset", name])
                assert args.preset == name

    def test_build_shard_fresh_or_recovered_with_prefixed_obs(self):
        cfg = EngineConfig(size_ratio=3, buffer_entries=8, block_entries=4,
                           durable=True, shards=4)
        obs = Observability()
        shard = build_shard(cfg, obs, "shard7_")
        assert isinstance(shard, KVStore) and shard.wal is not None
        shard.put(1, "a")
        assert shard.get(1) == "a"
        back = build_shard(cfg, obs, "staging7_", state=shard.crash())
        assert back.get(1) == "a"
        counters = registry_to_dict(obs.registry)["counters"]
        assert counters["shard7_kv_reads_total"] == 1
        assert counters["staging7_kv_reads_total"] == 1
        assert not build_shard(cfg, None, "shard0_").obs.enabled
        assert not build_shard(cfg, Observability(enabled=False), "s_").obs.enabled

    def test_with_shards(self):
        cfg = EngineConfig().with_shards(4)
        assert cfg.shards == 4
        assert isinstance(build_store(cfg), ShardedKVStore)

    def test_wiring(self):
        store = build_store(EngineConfig(
            size_ratio=3, buffer_entries=8, block_entries=4,
            policy="bloom", bits_per_entry=8.0, cache_blocks=16, durable=True,
        ))
        assert isinstance(store.policy, BloomFilterPolicy)
        assert store.policy.bits_per_entry == 8.0
        assert store.tree.cache is not None
        assert store.wal is not None
        assert store.memtable.capacity == 8


def _mixed_workload(store, ops=1500, universe=400, seed=7):
    rng = random.Random(seed)
    for i in range(ops):
        key = rng.randrange(universe)
        if rng.random() < 0.1:
            store.delete(key)
        else:
            store.put(key, f"v{i}")
    reads = [store.get(rng.randrange(universe)) for _ in range(500)]
    return reads


class TestBitIdentical:
    def test_factory_matches_hand_wiring(self):
        """shards=1 must reproduce the pre-refactor engine exactly:
        same reads, same counted I/Os, same FPR numerator."""
        built = build_store(EngineConfig(
            size_ratio=3, buffer_entries=16, block_entries=4,
            policy="chucky", bits_per_entry=10.0, cache_blocks=32,
        ))
        hand = KVStore(
            LSMConfig(size_ratio=3, buffer_entries=16, block_entries=4),
            filter_policy=ChuckyPolicy(bits_per_entry=10.0),
            cache_blocks=32,
        )
        assert isinstance(built, KVStore)
        reads_a = _mixed_workload(built)
        reads_b = _mixed_workload(hand)
        assert reads_a == reads_b
        snap_a, snap_b = built.snapshot(), hand.snapshot()
        assert snap_a == snap_b  # memory dict, storage r/w, fp — all of it

    def test_recover_store_unsharded(self):
        cfg = EngineConfig(size_ratio=3, buffer_entries=8, block_entries=4,
                           durable=True)
        store = build_store(cfg)
        for i in range(100):
            store.put(i, f"v{i}")
        recovered = recover_store(store.crash(), cfg)
        assert isinstance(recovered, KVStore)
        assert all(recovered.get(i) == f"v{i}" for i in range(100))

    def test_recover_store_shape_mismatch(self):
        cfg = EngineConfig(size_ratio=3, buffer_entries=8, block_entries=4,
                           durable=True)
        store = build_store(cfg)
        store.put(1, "a")
        state = store.crash()
        with pytest.raises(ValueError, match="unsharded"):
            recover_store(state, cfg.with_shards(2))
