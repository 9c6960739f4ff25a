"""Declarative engine construction: :class:`EngineConfig` + factories.

One frozen dataclass captures everything needed to stand up a store —
tree geometry, filter policy (by registry name), buffer / cache / WAL
settings, shard count — so the CLI, the examples and the test fixtures
share a single construction path instead of hand-wired copies.
:func:`build_store` turns a config into a :class:`KVStore` (``shards ==
1``, wired exactly as the pre-factory call sites were, so counted I/Os
stay bit-identical) or a :class:`ShardedKVStore` (``shards > 1``);
:func:`recover_store` is the matching crash-recovery entry point. Both
build every shard — and the cluster builds every hosted or staged one —
through :func:`build_shard`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.common.cost import CostModel
from repro.engine.kvstore import CrashState, KVStore
from repro.engine.sharded import ShardedCrashState, ShardedKVStore
from repro.filters.policy import FilterPolicy, available_policies, make_policy
from repro.lsm.config import LSMConfig, preset_shape
from repro.obs import Observability


@dataclass(frozen=True)
class EngineConfig:
    """Everything needed to build a store, as plain data.

    Attributes:
        size_ratio: T, capacity ratio between adjacent levels.
        runs_per_level: K, sub-levels at each of Levels 1..L-1.
        runs_at_last_level: Z, sub-levels at the largest level.
        buffer_entries: P, memtable capacity in entries (per shard).
        block_entries: entries per storage block.
        initial_levels: storage levels to start with (trees still grow).
        policy: filter-policy registry name (see
            :func:`repro.filters.policy.available_policies`).
        bits_per_entry: M, the filter memory budget.
        cache_blocks: block-cache capacity in blocks (per shard; 0 = off).
        durable: keep a write-ahead log (enables crash/recover).
        shards: number of independent hash-routed shards.
        cost_model: I/O pricing used for modelled latencies.
    """

    size_ratio: int = 5
    runs_per_level: int = 1
    runs_at_last_level: int = 1
    buffer_entries: int = 128
    block_entries: int = 32
    initial_levels: int = 1
    policy: str = "chucky"
    bits_per_entry: float = 10.0
    cache_blocks: int = 0
    durable: bool = False
    shards: int = 1
    cost_model: CostModel = field(default_factory=CostModel)

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.cache_blocks < 0:
            raise ValueError(
                f"cache_blocks must be >= 0, got {self.cache_blocks}"
            )
        if self.bits_per_entry < 0:
            raise ValueError(
                f"bits_per_entry must be >= 0, got {self.bits_per_entry}"
            )
        if self.policy not in available_policies():
            raise ValueError(
                f"unknown filter policy {self.policy!r}; available: "
                f"{', '.join(available_policies())}"
            )
        # Fail fast on bad geometry (LSMConfig validates T/K/Z/P).
        self.lsm_config()

    # -- presets: the classic merge policies (repro.lsm.config.PRESETS) --

    @classmethod
    def preset(cls, name: str, size_ratio: int = 5, **kwargs) -> "EngineConfig":
        """Merge-policy preset ``name`` (``leveled`` / ``tiered`` /
        ``lazy``) at size ratio T; ``kwargs`` set the other fields."""
        shape = preset_shape(name, size_ratio)
        return cls(size_ratio=size_ratio, **shape, **kwargs)

    @classmethod
    def leveled(cls, size_ratio: int = 5, **kwargs) -> "EngineConfig":
        """Leveling: one run per level (read & space optimized)."""
        return cls.preset("leveled", size_ratio, **kwargs)

    @classmethod
    def tiered(cls, size_ratio: int = 5, **kwargs) -> "EngineConfig":
        """Tiering: up to T-1 runs everywhere (write optimized)."""
        return cls.preset("tiered", size_ratio, **kwargs)

    @classmethod
    def lazy_leveled(cls, size_ratio: int = 5, **kwargs) -> "EngineConfig":
        """Lazy leveling: tiered inner levels, leveled largest level
        (the paper's default setup)."""
        return cls.preset("lazy", size_ratio, **kwargs)

    # -- derived pieces -------------------------------------------------

    def lsm_config(self) -> LSMConfig:
        """The per-shard tree geometry."""
        return LSMConfig(
            size_ratio=self.size_ratio,
            runs_per_level=self.runs_per_level,
            runs_at_last_level=self.runs_at_last_level,
            buffer_entries=self.buffer_entries,
            block_entries=self.block_entries,
            initial_levels=self.initial_levels,
        )

    def make_policy(self) -> FilterPolicy:
        """A fresh filter policy (one per shard; policies attach to
        exactly one tree)."""
        return make_policy(self.policy, self.bits_per_entry)

    def with_shards(self, shards: int) -> "EngineConfig":
        return replace(self, shards=shards)


def build_store(
    config: EngineConfig, observability: Observability | None = None
) -> KVStore | ShardedKVStore:
    """Construct the configured store.

    ``shards == 1`` returns a plain :class:`KVStore`; ``shards > 1``
    returns a :class:`ShardedKVStore` of N independent stores, each
    with the full per-shard geometry (buffer, cache, WAL) and its own
    filter, their metrics prefixed ``shard<i>_`` in the shared
    observability registry.
    """
    if config.shards == 1:
        return build_shard(config, observability)
    return ShardedKVStore(
        [
            build_shard(config, observability, f"shard{index}_")
            for index in range(config.shards)
        ],
        observability=observability,
    )


def build_shard(
    config: EngineConfig,
    observability: Observability | None = None,
    prefix: str | None = None,
    state: CrashState | None = None,
) -> KVStore:
    """One plain store of ``config``'s per-shard geometry — fresh, or
    recovered from ``state`` — the one place a shard is built.

    With ``prefix`` its instruments go to ``observability.child(prefix)``
    (none at all when observability is off); without, straight into
    ``observability``. ``config.shards`` is not consulted.
    """
    if prefix is not None:
        enabled = observability is not None and observability.enabled
        observability = observability.child(prefix) if enabled else None
    return KVStore(
        config.lsm_config(),
        filter_policy=config.make_policy(),
        cache_blocks=config.cache_blocks,
        cost_model=config.cost_model,
        durable=config.durable,
        observability=observability,
        state=state,
    )


def recover_store(
    state: CrashState | ShardedCrashState,
    config: EngineConfig,
    observability: Observability | None = None,
) -> KVStore | ShardedKVStore:
    """Rebuild a store (sharded or not) from its crash state.

    ``config`` must describe the crashed store: same geometry, same
    policy name, and a ``shards`` count matching the state's shape.
    """
    if isinstance(state, ShardedCrashState):
        if config.shards != len(state.shards):
            raise ValueError(
                f"config has {config.shards} shards but the crash state "
                f"holds {len(state.shards)}"
            )
        return ShardedKVStore(
            [
                build_shard(config, observability, f"shard{index}_", shard)
                for index, shard in enumerate(state.shards)
            ],
            observability=observability,
        )
    if config.shards != 1:
        raise ValueError(
            f"config expects {config.shards} shards but the crash state "
            f"is unsharded"
        )
    return build_shard(config, observability, state=state)
