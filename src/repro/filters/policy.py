"""Filter policies: how filters bind to the LSM-tree.

A :class:`FilterPolicy` subscribes to the tree's flush/merge events to
maintain its filters, and answers point queries with a lazy iterator of
candidate sub-levels — lazy so that a per-run Bloom-filter policy only
pays for the filters it actually probes before the target is found,
while Chucky's unified filter (in :mod:`repro.chucky.policy`) answers
every candidate with a single two-bucket lookup.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from repro.analysis.cost_models import (
    bloom_query_ios,
    bloom_update_ios,
    chucky_query_ios,
    chucky_update_ios,
)
from repro.analysis.fpr_models import (
    fpr_bloom_optimal,
    fpr_bloom_uniform,
    fpr_chucky_model,
    fpr_cuckoo_integer_lids,
)
from repro.coding.distributions import LidDistribution
from repro.common.counters import IOCounters
from repro.filters.allocation import (
    optimal_bits_per_sublevel,
    uniform_bits_per_sublevel,
)
from repro.filters.blocked_bloom import BlockedBloomFilter
from repro.filters.bloom import BloomFilter
from repro.lsm.run import Run
from repro.lsm.tree import FlushEvent, LSMTree, MergeEvent, TreeEvent
from repro.obs import NULL_OBS, Observability


class FilterPolicy(ABC):
    """Base class binding filters to a tree's lifecycle."""

    #: Human-readable label used by benchmarks ("blocked BFs", "Chucky"...)
    name: str = "abstract"

    def __init__(self, counters: IOCounters | None = None) -> None:
        self.counters = counters if counters is not None else IOCounters()
        #: Observability bundle; the owning KVStore swaps in its own
        #: (like ``counters``) before :meth:`attach` so filters built
        #: during attachment register their instruments.
        self.obs: Observability = NULL_OBS
        self._tree: LSMTree | None = None

    @property
    def tree(self) -> LSMTree:
        if self._tree is None:
            raise RuntimeError("policy is not attached to a tree")
        return self._tree

    def _distribution(self) -> LidDistribution:
        """The attached tree's current LID distribution."""
        tree = self.tree
        return LidDistribution(
            size_ratio=tree.config.size_ratio,
            num_levels=tree.num_levels,
            runs_per_level=tree.config.runs_per_level,
            runs_at_last_level=tree.config.runs_at_last_level,
        )

    def attach(self, tree: LSMTree, *, subscribe: bool = True) -> None:
        """Bind to ``tree`` and (by default) subscribe to its maintenance
        events. ``subscribe=False`` attaches without listening — the
        live-migration path builds the incoming policy's filters against
        the tree while the outgoing policy keeps serving, and only
        :meth:`subscribe`\\ s at the atomic swap."""
        if self._tree is not None:
            raise RuntimeError("policy is already attached")
        self._tree = tree
        if subscribe:
            self.subscribe()

    def subscribe(self) -> None:
        """Add this policy's handlers to the tree's listener lists."""
        tree = self.tree
        if self.handle_event in tree.listeners:
            raise RuntimeError("policy is already subscribed")
        tree.listeners.append(self.handle_event)
        tree.grow_listeners.append(self.handle_grow)

    def detach(self) -> None:
        """Unsubscribe from the tree and drop the binding, making the
        policy inert (its filters stop being maintained and it can be
        discarded). Safe to call whether or not it ever subscribed."""
        tree = self._tree
        if tree is not None:
            if self.handle_event in tree.listeners:
                tree.listeners.remove(self.handle_event)
            if self.handle_grow in tree.grow_listeners:
                tree.grow_listeners.remove(self.handle_grow)
        self._tree = None

    @abstractmethod
    def handle_event(self, event: TreeEvent) -> None:
        """React to a flush or merge."""

    def handle_grow(self, new_num_levels: int) -> None:
        """React to the tree adding a level (filter resizing hook)."""

    def after_write(self) -> None:
        """Called once a write (and its whole merge cascade) completed;
        policies defer wholesale rebuilds to this point."""

    def absorb_run(self, sublevel: int, run: Run, count_storage: bool = True) -> None:
        """Take in the run already at ``sublevel`` as if it had just
        been flushed there (recovery, live migration, a rebuilt tree).
        ``count_storage=False`` rides data the engine reads anyway
        (section 4.5): only the filter's memory I/Os are charged."""
        if count_storage:
            keys = run.read_keys()
        else:
            with self.tree.storage.counting_suspended():
                keys = run.read_keys()
        self.handle_event(FlushEvent(sublevel=sublevel, keys=keys))

    def rebuild_from_tree(self, count_storage: bool = True) -> None:
        """Absorb every occupied run, youngest first (a policy holding
        filters overrides this to drop them first)."""
        for sublevel, run in self.tree.occupied_runs():
            self.absorb_run(sublevel, run, count_storage)

    def persist(self) -> bytes | None:
        """What a crash preserves of the filter (asked only at a
        committed tree state); ``None``: recovery rebuilds."""
        return None

    def recover(self, blob: bytes | None) -> None:
        """Bring a freshly attached policy in line with a recovered
        tree. ``blob`` is what the crashed store's policy persisted, if
        anything; the default ignores it and rebuilds with a counted
        scan (real engines keep per-run filter blocks in the SSTs; the
        scan is the conservative simulation)."""
        self.rebuild_from_tree()

    @abstractmethod
    def candidates(self, key: int) -> Iterable[int]:
        """Sub-level numbers that may contain ``key``, youngest first.

        Per-run policies walk the attached tree's run table
        (``tree.runs``) themselves and stay lazy: each filter is probed
        only as far as the caller consumes the iterable, so nothing is
        paid for filters past the first hit."""

    def candidates_many(self, keys: list[int]) -> list[Iterable[int]]:
        """:meth:`candidates` for each key of a batch of point reads —
        same answers and counted I/Os as the per-key calls."""
        return [self.candidates(key) for key in keys]

    @property
    @abstractmethod
    def size_bits(self) -> int:
        """Current total filter memory footprint in bits."""


class NoFilterPolicy(FilterPolicy):
    """The 'no filters' baseline of Figure 14 G: probe every run."""

    name = "no filters"

    def handle_event(self, event: TreeEvent) -> None:
        pass

    def candidates(self, key: int) -> list[int]:
        return [s for s, run in self.tree.runs.items() if run is not None]

    @property
    def size_bits(self) -> int:
        return 0


class BloomFilterPolicy(FilterPolicy):
    """One Bloom filter per run (the state of the art the paper replaces).

    ``variant``: 'standard' (Cassandra-style, h probes per access) or
    'blocked' (RocksDB-style, one cache line per access).
    ``allocation``: 'uniform' (same M everywhere, Eq 2) or 'optimal'
    (Monkey, Eq 3).

    Every compaction rebuilds the output run's filter from scratch —
    Bloom filters cannot delete — and that construction cost is exactly
    the write-path overhead Chucky eliminates (Figure 14 A/G).
    """

    def __init__(
        self,
        bits_per_entry: float = 10.0,
        variant: str = "blocked",
        allocation: str = "optimal",
        counters: IOCounters | None = None,
    ) -> None:
        super().__init__(counters)
        if variant not in ("standard", "blocked"):
            raise ValueError(f"variant must be standard|blocked, got {variant!r}")
        if allocation not in ("uniform", "optimal"):
            raise ValueError(
                f"allocation must be uniform|optimal, got {allocation!r}"
            )
        self.bits_per_entry = bits_per_entry
        self.variant = variant
        self.allocation = allocation
        self.name = f"{variant} BFs ({allocation})"
        self._filters: dict[int, BloomFilter | BlockedBloomFilter | None] = {}

    # -- allocation ----------------------------------------------------

    def _bits_for_sublevel(self, sublevel: int) -> float:
        dist = self._distribution()
        if self.allocation == "uniform":
            table = uniform_bits_per_sublevel(dist, self.bits_per_entry)
        else:
            table = optimal_bits_per_sublevel(dist, self.bits_per_entry)
        # During a merge cascade that is about to grow the tree, an output
        # sub-level may momentarily exceed the old geometry; give it the
        # largest level's allocation.
        return table.get(sublevel, table[dist.num_sublevels])

    def _build_filter(
        self, sublevel: int, keys: Sequence[int]
    ) -> BloomFilter | BlockedBloomFilter | None:
        bits = self._bits_for_sublevel(sublevel)
        if bits <= 0.5 or not keys:
            # Monkey can zero out the largest level's filter under tight
            # budgets; represent that as "no filter" (always a candidate).
            return None
        cls = BloomFilter if self.variant == "standard" else BlockedBloomFilter
        filt = cls(len(keys), bits, memory_ios=self.counters.memory)
        for key in keys:
            filt.add(key)
        return filt

    # -- maintenance ----------------------------------------------------

    def rebuild_from_tree(self, count_storage: bool = True) -> None:
        self._filters.clear()
        super().rebuild_from_tree(count_storage)

    def handle_event(self, event: TreeEvent) -> None:
        if isinstance(event, FlushEvent):
            self._filters[event.sublevel] = self._build_filter(
                event.sublevel, event.keys
            )
        elif isinstance(event, MergeEvent):
            for sublevel in event.input_sublevels:
                self._filters.pop(sublevel, None)
            if event.survivors:
                self._filters[event.output_sublevel] = self._build_filter(
                    event.output_sublevel, event.survivors
                )
            else:
                self._filters.pop(event.output_sublevel, None)

    def handle_grow(self, new_num_levels: int) -> None:
        # Per-run filters key by sub-level number, which growth does not
        # renumber for surviving runs; allocations refresh lazily as runs
        # get rebuilt by subsequent merges.
        pass

    # -- queries ----------------------------------------------------------

    def candidates(self, key: int) -> Iterator[int]:
        for sublevel, run in self.tree.runs.items():
            if run is None:
                continue
            filt = self._filters.get(sublevel)
            if filt is None or filt.may_contain(key):
                yield sublevel

    @property
    def size_bits(self) -> int:
        return sum(f.size_bits for f in self._filters.values() if f is not None)


class XorFilterPolicy(BloomFilterPolicy):
    """One static xor filter per run (Graf & Lemire; the related-work
    family member with a better FPR per bit but three memory I/Os per
    probe and a costlier, peeling-based construction).

    Reuses the per-run maintenance of :class:`BloomFilterPolicy`; only
    the filter construction differs. Allocation semantics carry over:
    the per-sub-level bits-per-entry budget selects the fingerprint
    width (``floor(bits / 1.23)`` bits land in each of the ~1.23n
    slots).
    """

    def __init__(
        self,
        bits_per_entry: float = 10.0,
        allocation: str = "uniform",
        counters: IOCounters | None = None,
    ) -> None:
        super().__init__(
            bits_per_entry=bits_per_entry,
            variant="blocked",  # unused; construction is overridden
            allocation=allocation,
            counters=counters,
        )
        self.name = f"xor filters ({allocation})"

    def _build_filter(self, sublevel: int, keys: Sequence[int]):
        from repro.filters.xor import XorFilter

        bits = self._bits_for_sublevel(sublevel)
        if bits <= 2.5 or not keys:
            return None
        fp_bits = max(2, min(32, int(bits / 1.23)))
        filt = XorFilter(keys, fingerprint_bits=fp_bits,
                         memory_ios=self.counters.memory)
        # Construction cost: the peeling pass touches each key's three
        # slots about twice; charge 6 memory I/Os per key.
        self.counters.memory.add("filter", 6 * len(keys))
        return filt


# ----------------------------------------------------------------------
# Policy registry: construct and cost any filter policy by name
# ----------------------------------------------------------------------

#: A factory takes the memory budget in bits per entry and returns a
#: fresh, unattached policy.
PolicyFactory = Callable[[float], FilterPolicy]


@dataclass(frozen=True)
class PlannerModels:
    """What the tuning planner scores a policy with (T = size ratio,
    L = levels, K / Z = runs per inner / last level)."""

    #: ``(bits_per_entry, T, L, K, Z)`` -> wasted probes per negative read.
    fpr: Callable[[float, int, int, int, int], float]
    #: ``(L, K, Z)`` -> memory I/Os to consult the filter(s) on one read.
    probe_ios: Callable[[int, int, int], float]
    #: ``(L, T, K, Z)`` -> amortized maintenance memory I/Os per write.
    update_ios: Callable[[int, int, int, int], float]


_POLICY_REGISTRY: dict[str, tuple[PolicyFactory, PlannerModels | None]] = {}


def register_policy(
    name: str,
    factory: PolicyFactory,
    models: PlannerModels | None = None,
    *,
    replace: bool = False,
) -> None:
    """Register ``factory`` and the policy's planner ``models`` under
    ``name``.

    Registration is how new filter families plug into the engine
    without touching construction call sites: the CLI's ``--policy``
    choices, :class:`~repro.engine.config.EngineConfig` validation and
    the tuning planner's cost models all read this registry (without
    ``models`` the planner refuses to score the policy). Re-registering
    an existing name raises unless ``replace=True`` (deliberate
    overrides, e.g. in tests).
    """
    if not name:
        raise ValueError("policy name must be non-empty")
    if not replace and name in _POLICY_REGISTRY:
        raise ValueError(f"policy {name!r} is already registered")
    _POLICY_REGISTRY[name] = (factory, models)


def make_policy(name: str, bits_per_entry: float = 10.0) -> FilterPolicy:
    """Build a fresh filter policy by registry name."""
    try:
        factory, _ = _POLICY_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown filter policy {name!r}; available: "
            f"{', '.join(sorted(_POLICY_REGISTRY))}"
        ) from None
    return factory(bits_per_entry)


def planner_models(name: str) -> PlannerModels | None:
    """The models ``name`` was registered with, if any."""
    return _POLICY_REGISTRY.get(name, (None, None))[1]


def available_policies() -> list[str]:
    """Registered policy names, sorted."""
    return sorted(_POLICY_REGISTRY)


def _chucky(**variant) -> PolicyFactory:
    def make(bits_per_entry: float) -> FilterPolicy:
        # Lazy: repro.chucky.policy imports this module for FilterPolicy.
        from repro.chucky.policy import ChuckyPolicy

        return ChuckyPolicy(bits_per_entry=bits_per_entry, **variant)

    return make


def _unified(fpr) -> PlannerModels:
    """Table 2: two bucket reads a probe, ~1.5 I/Os per level descended."""
    return PlannerModels(
        fpr,
        lambda levels, k, z: chucky_query_ios(),
        lambda levels, t, k, z: chucky_update_ios(levels),
    )


def _per_run(fpr) -> PlannerModels:
    """Table 1: a probe per run, a filter insertion per rewrite."""
    return PlannerModels(fpr, bloom_query_ios, bloom_update_ios)


_MONKEY = _per_run(lambda m, t, levels, k, z: fpr_bloom_optimal(m, t, k, z))  # Eq 3

register_policy(  # Eq 16
    "chucky", _chucky(),
    _unified(lambda m, t, levels, k, z: fpr_chucky_model(m, t, k, z)),
)
register_policy(  # Eq 6
    "chucky-uncompressed", _chucky(compressed=False),
    _unified(lambda m, t, levels, k, z: fpr_cuckoo_integer_lids(m, levels, k, z)),
)
register_policy(
    "bloom", lambda m: BloomFilterPolicy(m, "blocked", "optimal"), _MONKEY
)
register_policy(  # Eq 2
    "bloom-standard", lambda m: BloomFilterPolicy(m, "standard", "uniform"),
    _per_run(lambda m, t, levels, k, z: fpr_bloom_uniform(m, levels, k, z)),
)
register_policy("xor", lambda m: XorFilterPolicy(m), PlannerModels(
    # ~(M/1.23)-bit fingerprints in each run (``bloom_query_ios`` is the
    # run count); a probe reads three slots.
    lambda m, t, levels, k, z: bloom_query_ios(levels, k, z) * 2.0 ** (-m / 1.23),
    lambda levels, k, z: 3.0 * bloom_query_ios(levels, k, z),
    bloom_update_ios,
))
register_policy("none", lambda m: NoFilterPolicy(), PlannerModels(
    lambda m, t, levels, k, z: float(bloom_query_ios(levels, k, z)),  # every run
    lambda levels, k, z: 0.0,
    lambda levels, t, k, z: 0.0,
))
