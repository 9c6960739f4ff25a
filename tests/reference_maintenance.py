"""The per-entry maintenance path the one maintenance loop replaced.

The runtime applies a flush or merge event through one loop,
``CuckooLidFilterBase._maintain_many``, and ``insert`` / ``update_lid``
/ ``remove`` are one-edit calls of it. This module keeps the path it
replaced — one key at a time, a hash per call, every bucket edit a
counted ``_load`` + full decode + ``_write_bucket`` through ``_swap``,
and the eviction walk charging each of its loads as it goes — as the
reference ``TestOneMaintenanceLoop`` holds the loop to: same contents,
same counted I/Os, same eviction draws, same misses.

It drives a filter only through its representation hooks
(``_read_bucket`` / ``_write_bucket``), its state (``aht``, ``_rng``,
``num_entries``, ...) and its per-LID shifts, and addresses keys the
way the parent did (two seeded digests), so it shares none of the code
under test.
"""

from __future__ import annotations

from repro.chucky.filter import _MAX_EVICTIONS, _PREFIX_SHIFT
from repro.common.errors import FilterError
from repro.common.hashing import fp_digest, key_digest


def _address(filt, key):
    digest = fp_digest(key)
    n = filt.num_buckets
    b1 = key_digest(key, 4000) % n
    return digest, b1, (filt._anchors[digest >> _PREFIX_SHIFT] - b1) % n


def _slot(filt, digest, lid):
    if lid > 0:
        try:
            return lid, digest >> filt._fp_shifts[lid - 1]
        except IndexError:
            pass
    raise FilterError(f"LID {lid} out of range [1, {len(filt._fp_shifts)}]")


def _load(filt, index):
    filt.memory_ios.add("filter", 1)
    return filt._read_bucket(index)


def _swap(filt, b1, b2, old, new):
    for bucket in (b1,) if b1 == b2 else (b1, b2):
        slots = _load(filt, bucket)
        if old in slots:
            slots[slots.index(old)] = new
            filt._write_bucket(bucket, slots)
            return bucket
    return None


def insert(filt, key, lid):
    digest, b1, b2 = _address(filt, key)
    entry = _slot(filt, digest, lid)
    if _swap(filt, b1, b2, filt._empty, entry) is None:
        _insert_with_eviction(filt, entry, filt._rng.choice((b1, b2)))
    else:
        filt.num_entries += 1
        filt._walk_hist.observe(0)


def _insert_with_eviction(filt, entry, bucket):
    empty = filt._empty
    for step in range(1, _MAX_EVICTIONS + 1):
        slots = _load(filt, bucket)
        if empty in slots:
            slots[slots.index(empty)] = entry
            filt._write_bucket(bucket, slots)
            filt.num_entries += 1
            filt._walk_hist.observe(step - 1)
            return
        victim_index = filt._rng.randrange(filt.slots)
        victim = slots[victim_index]
        slots[victim_index] = entry
        filt._write_bucket(bucket, slots)
        entry = victim
        bucket = filt._partner_of_slot(bucket, entry)
    partner = filt._partner_of_slot(bucket, entry)
    pair = filt._pair_key(bucket, partner)
    filt.memory_ios.add("filter_aht", 1)
    filt.aht.setdefault(pair, []).append(entry)
    filt.num_entries += 1
    filt._walk_hist.observe(_MAX_EVICTIONS)
    filt._m_aht_spills.inc()


def update_lid(filt, key, old_lid, new_lid):
    digest, b1, b2 = _address(filt, key)
    old = _slot(filt, digest, old_lid)
    new = _slot(filt, digest, new_lid)
    if old == new:
        return True
    return _swap(filt, b1, b2, old, new) is not None or _swap_in_aht(
        filt, b1, b2, old, new
    )


def remove(filt, key, lid):
    digest, b1, b2 = _address(filt, key)
    old = _slot(filt, digest, lid)
    bucket = _swap(filt, b1, b2, old, filt._empty)
    if bucket is None:
        if not _swap_in_aht(filt, b1, b2, old, None):
            return False
    elif filt.aht:
        _repatriate(filt, filt._pair_key(b1, b2), bucket)
    filt.num_entries -= 1
    return True


def _swap_in_aht(filt, b1, b2, old, new):
    pair = filt._pair_key(b1, b2)
    entries = filt.aht.get(pair)
    if entries:
        filt.memory_ios.add("filter_aht", 1)
        if old in entries:
            entries.remove(old)
            if new is not None:
                entries.append(new)
            if not entries:
                del filt.aht[pair]
            return True
    filt.maintenance_misses += 1
    filt._m_maintenance_misses.inc()
    return False


def _repatriate(filt, pair, bucket):
    entries = filt.aht.get(pair)
    if not entries:
        return
    filt.memory_ios.add("filter_aht", 1)
    entry = entries.pop()
    if not entries:
        del filt.aht[pair]
    if _swap(filt, bucket, bucket, filt._empty, entry) is None:
        filt.aht.setdefault(pair, []).append(entry)


def apply(filt, edit):
    """One ``(key, old_lid, new_lid)`` edit through the per-entry call
    it stands for; False for an update or removal that found nothing."""
    key, old_lid, new_lid = edit
    if old_lid is None:
        insert(filt, key, new_lid)
        return True
    if new_lid is None:
        return remove(filt, key, old_lid)
    return update_lid(filt, key, old_lid, new_lid)
