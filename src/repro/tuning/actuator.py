"""The actuator: apply planner decisions to a live store, crash-safely.

Three live mutations, each built on a safety argument rather than on
locking (the engine is single-threaded per shard; the asyncio server
serialises operations on the event loop):

A policy is driven only through the lifecycle
:class:`~repro.filters.policy.FilterPolicy` declares (``attach``,
``absorb_run``, ``rebuild_from_tree``, ``subscribe`` / ``detach``), so
any registered policy can be migrated to or switched under.

**Incremental filter migration** (:class:`FilterMigration`). The new
policy attaches to the tree *without subscribing*, takes in one occupied
sub-level per :meth:`~FilterMigration.step` through
:meth:`~repro.filters.policy.FilterPolicy.absorb_run` — the same call
recovery's rebuild makes per run — and only at the end detaches the old
policy, subscribes the new one and swaps ``shard.policy`` in one
in-memory assignment. The old filter serves every read until that swap.
If the tree's manifest changes under the build (a flush or merge landed
between steps), the build restarts from the new manifest. Storage reads
during the build ride the same uncounted pass as Chucky's
grow-triggered rebuild (``count_storage=False``, paper section 4.5: the
maintenance pass rides data the engine already reads); the new filter's
*memory* I/Os are counted, so migrations are visible in modelled
latency.

Crash safety: filters are soft state — any policy can be rebuilt from
the tree's runs, and recovery does exactly that when the persisted blob
does not match the configured policy. A crash before the swap leaves
``shard.policy`` (and the durable state) entirely in the old world; a
crash after the swap recovers under the new config. Either way the
recovered filter agrees with the recovered tree, which ``repro
faultcheck`` verifies at the ``tuning.migrate.*`` crash points.

**Memtable resizing** (:func:`resize_memtable`): flush, then swap in a
fresh buffer at the clamped capacity. The clamp to the Level-1
sub-level capacity keeps any future flush no larger than one slot. The
resize is deliberately *soft*: it does not touch the durable geometry,
so recovery returns to the configured buffer size.

**Merge-policy switching** (:func:`switch_merge_policy`): at a flush
boundary, read every live run (counted — this *is* a major
compaction), drop obsolete versions and tombstones, bulk-build runs
under the new K/Z geometry on the same storage device, and swap the
tree; the configured policy attaches to the new tree and fills itself
with ``rebuild_from_tree(count_storage=False)``. The old manifest stays
committed until the swap, so a crash mid-switch recovers the old tree
and the half-built runs, orphans, never enter the crash state — the
same write-new-before-delete-old ordering the tree's own cascades use.
"""

from __future__ import annotations

from repro.engine.config import EngineConfig
from repro.engine.kvstore import KVStore
from repro.engine.sharded import ShardedKVStore, shards_of
from repro.faults.crashpoints import crash_point
from repro.filters.policy import make_policy
from repro.lsm.memtable import Memtable
from repro.lsm.tree import LSMTree, _gather, _merge_sorted, origin_column


class FilterMigration:
    """Incrementally rebuild one shard's filter under a new policy.

    ``step()`` absorbs one sub-level (or performs the final swap) and
    returns True once the swap has happened; ``run()`` drives it to
    completion. The migration is restartable: a manifest change between
    steps throws away the partial build and starts over against the new
    manifest (``restarts`` counts these).
    """

    def __init__(
        self, shard: KVStore, policy_name: str, bits_per_entry: float
    ) -> None:
        self.shard = shard
        self.policy_name = policy_name
        self.bits_per_entry = bits_per_entry
        self.restarts = 0
        self.done = False
        crash_point("tuning.migrate.before_build")
        self._start()

    def _fingerprint(self) -> tuple:
        return tuple(
            (m.run_id, m.level, m.slot_index)
            for m in self.shard.tree.manifest()
        )

    def _start(self) -> None:
        shard = self.shard
        policy = make_policy(self.policy_name, self.bits_per_entry)
        policy.counters = shard.counters
        policy.obs = shard.obs
        policy.attach(shard.tree, subscribe=False)
        self.new_policy = policy
        self._manifest = self._fingerprint()
        self._pending = shard.tree.occupied_runs()

    def step(self) -> bool:
        """Absorb one sub-level, or swap if the build is complete."""
        if self.done:
            return True
        if self._fingerprint() != self._manifest:
            self.restarts += 1
            self.new_policy.detach()
            self._start()
        if self._pending:
            # The manifest is unchanged, so every pending run still stands.
            self.new_policy.absorb_run(*self._pending.pop(0), count_storage=False)
            crash_point("tuning.migrate.mid_build")
            if self._pending:
                return False
        self._swap()
        return True

    def _swap(self) -> None:
        crash_point("tuning.migrate.before_swap")
        old = self.shard.policy
        old.detach()
        self.new_policy.subscribe()
        self.shard.policy = self.new_policy
        self.done = True
        crash_point("tuning.migrate.after_swap")

    def run(self) -> None:
        while not self.step():
            pass


def migrate_filter(
    store: KVStore | ShardedKVStore, policy_name: str, bits_per_entry: float
) -> int:
    """Migrate every shard's filter to ``policy_name`` at
    ``bits_per_entry``; returns the total number of build restarts."""
    restarts = 0
    for shard in shards_of(store):
        migration = FilterMigration(shard, policy_name, bits_per_entry)
        migration.run()
        restarts += migration.restarts
    return restarts


def resize_memtable(store: KVStore | ShardedKVStore, capacity: int) -> int:
    """Resize every shard's memtable at a flush boundary.

    The requested capacity is clamped to ``[1, Level-1 sub-level
    capacity]`` per shard — a flush must still fit one slot — and the
    clamped per-shard capacity is returned. The durable geometry is
    untouched (recovery restores the configured buffer size).
    """
    clamped = 1
    for shard in shards_of(store):
        limit = shard.tree.sublevel_capacity(1)
        clamped = max(1, min(capacity, limit))
        shard.flush()
        shard.memtable = Memtable(clamped, shard.counters.memory)
    return clamped


def switch_merge_policy(
    store: KVStore | ShardedKVStore, new_config: EngineConfig
) -> None:
    """Rebuild every shard's tree under ``new_config``'s K/Z geometry.

    This is a store-wide major compaction: every live run is read
    (counted), obsolete versions and tombstones are dropped (the full
    dataset is present, so purging is safe), and the survivors are
    bulk-placed into a fresh tree on the same storage device. The swap
    commits per shard at ``tuning.switch.before_commit``.
    """
    for shard in shards_of(store):
        _switch_shard(shard, new_config)


def _switch_shard(shard: KVStore, new_config: EngineConfig) -> None:
    shard.flush()
    old_tree = shard.tree
    # One merge of every run (read counted: this is a major compaction).
    # The whole dataset is in it, so tombstones purge; with no clock,
    # every TTL'd version stays.
    survivors = _merge_sorted(
        [
            (run.read_columns(), origin_column(sublevel, run.num_entries))
            for sublevel, run in old_tree.occupied_runs()
        ],
        purge_tombstones=True,
        clock=None,
    )[0]
    total = len(survivors[0])

    lsm = new_config.lsm_config()
    levels = max(1, lsm.initial_levels)
    while _capacity(lsm, levels) < total:
        levels += 1
    new_tree = LSMTree(
        lsm.with_levels(levels),
        storage=old_tree.storage,
        counters=shard.counters,
        cache=old_tree.cache,
    )
    new_tree.attach_observability(shard.obs)

    # Fill largest level first, oldest (highest-index) slot first, so
    # occupied slots form the contiguous high-index suffix the merge
    # machinery expects and small levels keep room for future flushes.
    index = 0
    for level in range(levels, 0, -1):
        if index >= total:
            break
        cap = lsm.sublevel_capacity(level, levels)
        slots = lsm.sublevels_at(level, levels)
        for slot in range(slots - 1, -1, -1):
            if index >= total:
                break
            chunk = _gather(survivors, range(index, min(index + cap, total)))
            index += len(chunk[0])
            new_tree.install_run(lsm.sublevel_number(level, slot + 1), chunk)

    crash_point("tuning.switch.before_commit")
    old_runs = [run for _, run in old_tree.occupied_runs()]
    policy = new_config.make_policy()
    policy.counters = shard.counters
    policy.obs = shard.obs
    shard.policy.detach()
    policy.attach(new_tree)
    # The bulk placement above already emitted FlushEvents into the
    # void (no listeners yet); the rebuild rides that same data pass.
    policy.rebuild_from_tree(count_storage=False)
    shard.tree = new_tree
    shard.config = new_tree.config
    shard.policy = policy
    for run in old_runs:
        run.drop(old_tree.cache)
    new_tree._commit()


def _capacity(lsm, levels: int) -> int:
    """Total entries the geometry can hold (per-slot capacities summed)."""
    return sum(
        lsm.sublevels_at(level, levels) * lsm.sublevel_capacity(level, levels)
        for level in range(1, levels + 1)
    )
