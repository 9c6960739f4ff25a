"""Bulk loaders that drive a store into a target experimental state.

The paper's FPR experiments assume the worst-case state where every
sub-level is full (section 4.2); its write experiments start from a tree
whose levels are empty except the largest (section 5, Setup). These
helpers construct both states, returning the key <-> sub-level ground
truth the benchmarks measure against.
"""

from __future__ import annotations

import random

from repro.engine.kvstore import KVStore
from repro.lsm.entry import make_entry


def fill_tree_to_levels(
    store: KVStore,
    num_levels: int | None = None,
    only_largest: bool = False,
    seed: int = 0,
) -> dict[int, list[int]]:
    """Fill the store's tree so every sub-level holds a run at capacity.

    Keys are distinct across the whole tree (no duplicate versions), and
    drawn pseudo-randomly from a 60-bit space so fingerprint/bucket
    hashes behave like production keys. With ``only_largest`` only the
    largest level's sub-levels are filled — the paper's starting state
    for write-cost experiments.

    Returns ``{sublevel: [keys]}`` — the ground truth of where every key
    lives, used e.g. by Figure 11 to query keys at a chosen level.
    """
    tree = store.tree
    if num_levels is not None and tree.num_levels != num_levels:
        raise ValueError(
            f"store was built with {tree.num_levels} levels, expected "
            f"{num_levels}; construct it with config.with_levels(...)"
        )
    rng = random.Random(seed)
    used: set[int] = set()
    placement: dict[int, list[int]] = {}
    levels = (
        range(tree.num_levels, tree.num_levels + 1)
        if only_largest
        else range(1, tree.num_levels + 1)
    )
    for level in levels:
        a_i = tree.config.sublevels_at(level, tree.num_levels)
        capacity = tree.sublevel_capacity(level)
        for rank in range(1, a_i + 1):
            sublevel = tree.config.sublevel_number(level, rank)
            keys = _fresh_keys(rng, capacity, used)
            keys.sort()
            entries = [
                make_entry(key, f"v{sublevel}:{key}", store._bump_seqno())
                for key in keys
            ]
            tree.install_run(sublevel, entries)
            placement[sublevel] = keys
    return placement


def _fresh_keys(rng: random.Random, count: int, used: set[int]) -> list[int]:
    keys: list[int] = []
    while len(keys) < count:
        key = rng.getrandbits(60)
        if key not in used:
            used.add(key)
            keys.append(key)
    return keys


def populate_store(
    store: KVStore, keys: list[int], value_of=lambda k: f"value-{k}"
) -> None:
    """Write keys through the normal put path (flushes and merges run)."""
    for key in keys:
        store.put(key, value_of(key))


def sublevel_sample_keys(
    placement: dict[int, list[int]], sublevel: int, count: int, seed: int = 1
) -> list[int]:
    """A reproducible sample of keys living at one sub-level."""
    rng = random.Random(seed)
    keys = placement[sublevel]
    if count >= len(keys):
        return list(keys)
    return rng.sample(keys, count)


def negative_keys(
    placement: dict[int, list[int]], count: int, seed: int = 2
) -> list[int]:
    """Keys guaranteed absent from the tree (for FPR measurement)."""
    rng = random.Random(seed)
    used = {k for keys in placement.values() for k in keys}
    return _fresh_keys(rng, count, used)
