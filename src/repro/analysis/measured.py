"""Measured system metrics over a live store.

Complements the closed-form models: these helpers read actual counters
and structures of a :class:`repro.engine.kvstore.KVStore` to report the
quantities LSM papers plot — write amplification, space amplification,
run counts, filter memory, and per-component latency shares. A
:class:`repro.engine.sharded.ShardedKVStore` is accepted too: its
metrics aggregate over the shards (counts sum, ratios recompute from
the summed counts, ``num_levels`` is the deepest shard).

Two collection modes:

* ``fast=False`` (default) — exact: scans the tree to count live
  entries, which makes ``live_entries`` and ``space_amplification``
  precise but costs O(N) per call.
* ``fast=True`` — constant-time: skips the scan and reports those two
  fields as ``None``. This is the mode the serving layer's STATS op
  and any periodic sampler should use; polling it cannot perturb a
  running workload's wall-clock behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.engine.kvstore import KVStore
from repro.engine.sharded import shards_of
from repro.lsm.entry import is_tombstone


@dataclass(frozen=True)
class StoreMetrics:
    """Snapshot of a store's health/shape metrics.

    ``live_entries`` / ``space_amplification`` are ``None`` when the
    snapshot was collected with ``fast=True`` (the O(N) liveness scan
    was skipped); every other field is always present.
    """

    num_levels: int
    num_runs: int
    live_entries: int | None
    stored_entries: int
    space_amplification: float | None
    write_amplification: float
    filter_bits_per_entry: float
    blocks_in_storage: int

    def as_dict(self) -> dict[str, float | int | None]:
        """JSON-ready mapping: ints stay ints, ratios stay floats, and
        skipped fields are ``None`` (JSON ``null``) — the exact shape
        the server's STATS op puts on the wire."""
        return {
            "num_levels": self.num_levels,
            "num_runs": self.num_runs,
            "live_entries": self.live_entries,
            "stored_entries": self.stored_entries,
            "space_amplification": self.space_amplification,
            "write_amplification": self.write_amplification,
            "filter_bits_per_entry": self.filter_bits_per_entry,
            "blocks_in_storage": self.blocks_in_storage,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StoreMetrics":
        """Inverse of :meth:`as_dict` (``StoreMetrics.from_dict(
        json.loads(json.dumps(m.as_dict())))`` == ``m``)."""
        return cls(
            num_levels=int(data["num_levels"]),
            num_runs=int(data["num_runs"]),
            live_entries=(
                None if data["live_entries"] is None
                else int(data["live_entries"])
            ),
            stored_entries=int(data["stored_entries"]),
            space_amplification=(
                None if data["space_amplification"] is None
                else float(data["space_amplification"])
            ),
            write_amplification=float(data["write_amplification"]),
            filter_bits_per_entry=float(data["filter_bits_per_entry"]),
            blocks_in_storage=int(data["blocks_in_storage"]),
        )


def collect_metrics(store, fast: bool = False) -> StoreMetrics:
    """Compute the metrics bundle for a store's current state.

    Accepts any store shape; a router's metrics aggregate over
    :func:`~repro.engine.sharded.shards_of` it. ``fast=True``
    skips the O(N) liveness scan (``live_entries`` and
    ``space_amplification`` come back ``None``) so hot paths — the
    server's STATS op, periodic metric sampling — can poll cheaply.
    """
    num_levels = 0
    num_runs = 0
    live = 0
    stored = 0
    writes = 0
    entries_written = 0
    filter_bits = 0
    blocks = 0
    for shard in shards_of(store):
        tree = shard.tree
        stored += tree.num_entries
        if not fast:
            # Live = distinct newest versions that are not tombstones. A
            # scan is exact; it bypasses counters so collection is free.
            with tree.storage.counting_suspended():
                live_keys: dict[int, tuple[int, bool]] = {}
                for entry, _ in tree.iter_entries_with_sublevels():
                    key, _, seqno, _ = entry
                    seen = live_keys.get(key)
                    if seen is None or seqno > seen[0]:
                        live_keys[key] = (seqno, is_tombstone(entry))
                live += sum(1 for _, dead in live_keys.values() if not dead)
        writes += shard.updates
        entries_written += shard.counters.storage.writes * shard.config.block_entries
        filter_bits += shard.policy.size_bits
        num_levels = max(num_levels, tree.num_levels)
        num_runs += len(tree.occupied_runs())
        blocks += tree.storage.total_blocks

    wamp = entries_written / writes if writes else 0.0
    if fast:
        live_out: int | None = None
        samp: float | None = None
    else:
        live_out = live
        samp = stored / live if live else float(stored > 0)
    fbits = filter_bits / stored if stored else 0.0
    return StoreMetrics(
        num_levels=num_levels,
        num_runs=num_runs,
        live_entries=live_out,
        stored_entries=stored,
        space_amplification=samp,
        write_amplification=wamp,
        filter_bits_per_entry=fbits,
        blocks_in_storage=blocks,
    )


def measured_write_amplification(store: KVStore) -> float:
    """Entries written to storage per application write so far."""
    return collect_metrics(store).write_amplification


def measured_space_amplification(store: KVStore) -> float:
    """Stored versions per live entry (the paper bounds this by
    ``T/(T-1)`` for leveling / lazy leveling — section 4.5)."""
    samp = collect_metrics(store).space_amplification
    assert samp is not None  # full mode always computes it
    return samp
