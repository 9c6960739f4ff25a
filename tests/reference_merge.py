"""The dict-walk version merge the one-sort ``_merge_sorted`` replaced.

``repro.lsm.tree._merge_sorted`` concatenates its sources' columns,
stable-sorts their positions by key and replays only the keys with more
than one version. This module keeps the merge it replaced — one dict walk over
every version in source order, then the survivors in key order — as the
reference ``TestMergeOracle`` holds it to: same survivors, same origins,
same drops in the same order.

It reads a version only through ``repro.lsm.entry``'s field positions
and ``is_tombstone``, so it shares none of the code under test.
"""

from __future__ import annotations

from repro.lsm.entry import KEY, SEQNO, is_tombstone


def merge_sorted(sources, purge_tombstones, is_expired=None):
    """K-way merge with version resolution: the newest version of each
    key (highest seqno) survives; with ``purge_tombstones`` the newest
    version is dropped too when it is a tombstone — or, when
    ``is_expired`` says so, a TTL entry whose stamp has passed."""
    best = {}
    drops = []
    for entries, origins in sources:
        if len(entries) != len(origins):
            raise ValueError("each entry needs exactly one origin")
        for entry, origin in zip(entries, origins):
            key = entry[KEY]
            current = best.get(key)
            if current is None:
                best[key] = (entry, origin)
            elif entry[SEQNO] > current[0][SEQNO]:
                drops.append(current)
                best[key] = (entry, origin)
            else:
                drops.append((entry, origin))
    survivors = []
    survivor_origins = []
    for key in sorted(best):
        entry, origin = best[key]
        if purge_tombstones and (
            is_tombstone(entry) or (is_expired is not None and is_expired(entry))
        ):
            drops.append((entry, origin))
            continue
        survivors.append(entry)
        survivor_origins.append(origin)
    return survivors, survivor_origins, drops
