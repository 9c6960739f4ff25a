"""Crash-consistency invariants checked after every recovery.

The checker is deliberately black-box: it inspects a recovered store
through (mostly) public surfaces and compares it against the harness's
reference model. Two families of checks:

* **reads** — every acknowledged write reads back with its exact value
  (``bytes`` stay ``bytes``), deleted keys stay dead, and only the
  single in-flight operation may be in either its before or after
  state. The checker judges reads, not a store, so the same oracle
  serves a single-node store, a cluster read through its coordinator
  and the cluster load run's verification pass;
* **structure** — the tree, filters, manifests and storage agree with
  each other: every entry's sub-level is among its filter's candidate
  sub-levels, sequence numbers never exceed the allocator, every
  committed run exists on the device with the manifest's block count,
  and no orphan runs leak storage.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any

from repro.engine.sharded import shards_of
from repro.lsm.entry import KEY, SEQNO, TOMBSTONE


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with enough context to reproduce."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.detail}"


#: Marker for "this key must not be readable" in an expectation.
ABSENT = None


class InvariantChecker:
    """Checks a (recovered) store against the harness's expectations."""

    def check_reads(
        self,
        reads: dict[int, Any],
        expectations: dict[int, tuple[Any, ...]],
    ) -> list[Violation]:
        """The one read oracle. ``reads`` maps each key to what reading
        it back returned (an exception if the read raised: an unreadable
        key is lost, whatever it should hold); ``expectations`` maps
        each key the workload ever touched to the tuple of values a
        correct system may return for it — normally one value, two for
        keys touched by the in-flight operation (before-or-after).
        :data:`ABSENT` (``None``) means the key must not be readable."""
        violations = []
        for key in sorted(expectations):
            allowed = expectations[key]
            actual = reads.get(key)
            if not any(
                actual == want and type(actual) is type(want)
                if want is not ABSENT
                else actual is None
                for want in allowed
            ):
                wanted = " or ".join(repr(want) for want in allowed)
                violations.append(
                    Violation(
                        "acked-durable",
                        f"key {key}: got {actual!r}, expected {wanted}",
                    )
                )
        return violations

    def check_structure(self, store) -> list[Violation]:
        """Structural agreement between tree, filter, manifest, storage
        and counters, per shard."""
        violations = []
        for index, shard in enumerate(shards_of(store)):
            violations.extend(self._check_shard(index, shard))
        violations.extend(self.check_filter_exactness(store))
        return violations

    def check_filter_exactness(self, store) -> list[Violation]:
        """Chucky-specific: the filter's (lid, fingerprint) multiset must
        equal the one recomputed from the tree's stored entries (the
        memtable is not yet filtered). Fingerprints are malleable — a
        function of (key, lid) only — so placement is free to differ,
        but any multiset divergence is real damage: a stale slot left by
        a missed remove (unbounded FPR drift under churn) or a dropped
        live one (a future false negative). Also asserts
        ``maintenance_misses`` stayed 0. No-op for per-run policies
        whose filter has no iterable slots."""
        violations = []
        for index, shard in enumerate(shards_of(store)):
            filt = getattr(shard.policy, "filter", None)
            if filt is None:
                continue
            misses = getattr(filt, "maintenance_misses", 0)
            if misses:
                violations.append(
                    Violation(
                        "filter-maintenance",
                        f"shard {index}: {misses} remove/update_lid calls "
                        f"matched no slot (stale fingerprints left behind)",
                    )
                )
            multisets = self._filter_multisets(shard, filt)
            if multisets is None:
                continue
            expected, actual = multisets
            if expected != actual:
                stale = actual - expected
                lost = +(expected - actual)
                violations.append(
                    Violation(
                        "filter-exactness",
                        f"shard {index}: filter diverges from the tree — "
                        f"{sum(stale.values())} stale slot(s) "
                        f"{sorted(stale)[:5]}, {sum(lost.values())} missing "
                        f"slot(s) {sorted(lost)[:5]}",
                    )
                )
        return violations

    @staticmethod
    def _filter_multisets(shard, filt):
        """(expected, actual) (lid, fp) Counters for a slot-iterable
        filter, partition-tagged for the partitioned variant; ``None``
        when the filter exposes no slots to compare."""
        tree = shard.tree
        partitions = getattr(filt, "partitions", None)
        if partitions is not None:
            actual = Counter()
            for pi, part in enumerate(partitions):
                for slot in part.iter_slots():
                    actual[(pi, *slot)] += 1
            expected = Counter()
            with tree.storage.counting_suspended():
                for sublevel, run in tree.occupied_runs():
                    for entry in run.read_all():
                        pi = filt.partition_index(entry[KEY])
                        fp = partitions[pi].fingerprint(entry[KEY], sublevel)
                        expected[(pi, sublevel, fp)] += 1
            return expected, actual
        if not hasattr(filt, "iter_slots") or not hasattr(filt, "fingerprint"):
            return None
        actual = Counter(filt.iter_slots())
        expected = Counter()
        with tree.storage.counting_suspended():
            for sublevel, run in tree.occupied_runs():
                for entry in run.read_all():
                    expected[(sublevel, filt.fingerprint(entry[KEY], sublevel))] += 1
        return expected, actual

    # ------------------------------------------------------------------

    def _check_shard(self, index: int, shard) -> list[Violation]:
        violations = []
        tree = shard.tree
        storage = tree.storage
        occupied = tree.occupied_runs()

        # Filter/tree agreement: every stored entry must be findable —
        # its sub-level must be among the filter's candidates, else the
        # read path would miss live data (a false *negative*).
        with storage.counting_suspended():
            for sublevel, run in occupied:
                for entry in run.read_all():
                    candidates = list(shard.policy.candidates(entry[KEY]))
                    if sublevel not in candidates:
                        violations.append(
                            Violation(
                                "filter-agreement",
                                f"shard {index}: key {entry[KEY]} lives at "
                                f"sub-level {sublevel} but the filter only "
                                f"proposes {candidates}",
                            )
                        )

        # Seqno monotonicity: the allocator must dominate every stamp in
        # the tree and the memtable, or recovery could reissue seqnos
        # and lose writes to version-order inversion.
        highest = 0
        with storage.counting_suspended():
            for _, run in occupied:
                for entry in run.read_all():
                    highest = max(highest, entry[SEQNO])
        for entry in shard.memtable.sorted_entries():
            highest = max(highest, entry[SEQNO])
        if highest > shard._seqno:
            violations.append(
                Violation(
                    "seqno-monotonic",
                    f"shard {index}: stored seqno {highest} exceeds the "
                    f"allocator at {shard._seqno}",
                )
            )

        # Manifest/storage consistency: committed == live at rest; every
        # committed run exists with the manifest's block count; nothing
        # else occupies the device (no leaked orphans); and the device's
        # block total is exactly the manifests' sum.
        committed = tree.committed_manifest()
        live = tree.manifest()
        if committed != live:
            violations.append(
                Violation(
                    "manifest-committed",
                    f"shard {index}: committed manifest diverges from the "
                    f"live tree at rest ({len(committed)} vs {len(live)} runs)",
                )
            )
        expected_blocks = 0
        for m in committed:
            if not storage.has_run(m.run_id):
                violations.append(
                    Violation(
                        "manifest-storage",
                        f"shard {index}: committed run {m.run_id} (level "
                        f"{m.level}) is missing from storage",
                    )
                )
                continue
            blocks = storage.num_blocks(m.run_id)
            if blocks != len(m.block_min_keys):
                violations.append(
                    Violation(
                        "manifest-storage",
                        f"shard {index}: run {m.run_id} holds {blocks} "
                        f"blocks but its manifest fences "
                        f"{len(m.block_min_keys)}",
                    )
                )
            expected_blocks += blocks
        referenced = {m.run_id for m in committed}
        orphans = sorted(set(storage.run_ids()) - referenced)
        if orphans:
            violations.append(
                Violation(
                    "storage-orphans",
                    f"shard {index}: storage holds unreferenced runs "
                    f"{orphans}",
                )
            )
        elif storage.total_blocks != expected_blocks:
            violations.append(
                Violation(
                    "io-consistency",
                    f"shard {index}: storage holds {storage.total_blocks} "
                    f"blocks but the manifests account for {expected_blocks}",
                )
            )
        return violations


def merge_expected(
    model: dict[int, Any], touched: dict[int, Any] | None = None
) -> dict[int, tuple[Any, ...]]:
    """Build the expectation map from the harness's reference model.

    ``model`` holds each key's value after the last acknowledged
    operation (:data:`TOMBSTONE` for deleted keys). ``touched`` maps
    the keys of the single in-flight operation to their would-be new
    values; those keys accept before *or* after.
    """
    expectations: dict[int, tuple[Any, ...]] = {}
    for key, value in model.items():
        expectations[key] = (ABSENT if value is TOMBSTONE else value,)
    if touched:
        for key, new_value in touched.items():
            old = expectations.get(key, (ABSENT,))
            new = ABSENT if new_value is TOMBSTONE else new_value
            expectations[key] = tuple(dict.fromkeys((*old, new)))
    return expectations
