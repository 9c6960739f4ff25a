"""Golden digests of the LID filters' observable behaviour.

``test_hotpath_identity.py`` compares the fast codec with the legacy
codec *of the same commit*, so a drift in the filter logic both arms
share — addressing, the slot swap, the eviction walk, the AHT — moves
them together and passes. The digests below were computed at the commit
before the maintenance path was collapsed (PR 13's tree) and pin every
observable of a dense mixed workload: the answer to each query, each
``update_lid`` / ``remove`` return value, every counted memory I/O by
category, and the filter's final contents (the persisted blob for
:class:`ChuckyFilter`, ``iter_slots()`` order included for
:class:`UncompressedLidFilter`).

The workload first fills the filter past its slot count and then churns
at that load, so the direct placement, the eviction walk, the spill into
the AHT and the repatriation on removal are all exercised — and asserted
to have been. A digest changes only when the eviction RNG is drawn
differently, a bucket is loaded once more or once less, or a slot lands
elsewhere: none of which a refactor may do.
"""

import hashlib
import random
from collections import Counter

import pytest

from repro.chucky.filter import ChuckyFilter, UncompressedLidFilter
from repro.coding.distributions import LidDistribution
from repro.common.counters import MemoryIOCounter
from repro.obs.metrics import MetricsRegistry

DIST = LidDistribution(4, 5)
CAPACITY = 96
FILL = 112  # > the 104 slots CAPACITY provisions: spills are certain
CHURN = 600

GOLDEN = {
    (ChuckyFilter, 0):
        "2d51589ed4cc32cfea2e262e3ddea8c69c9c6154dd347be2517105d09d405a85",
    (ChuckyFilter, 7):
        "479d3bb7f18dbcb3294b41de0d954404085a63a5d1509c07bee8e6ad62d58a0a",
    (ChuckyFilter, 1234):
        "621f4c3938c3c2a708b9497c33abe9100be2a25727b741a66b8ef1a743f51334",
    (UncompressedLidFilter, 0):
        "62f592a06ffd6588ea0f9ab87709f97bb82a8ca1f253fa016bbd958b15383552",
    (UncompressedLidFilter, 7):
        "ec7fe8e4278cdf339c915aaa72a2c2cbc6a21dbe2af7ee13b3ea6c6eafd81901",
    (UncompressedLidFilter, 1234):
        "ce78fead13f3560738bc4eb1ff3120bba71d2ba0e906fbe44e27fa339145e761",
}


def _aht_entries(filt) -> Counter:
    return Counter(slot for slots in filt.aht.values() for slot in slots)


def dense_workload(cls, seed: int):
    """Drive one filter at ~100 % load; return ``(observables, filter,
    registry, repatriations)``."""
    counter = MemoryIOCounter()
    registry = MetricsRegistry()
    filt = cls(
        CAPACITY, DIST, bits_per_entry=10.0, memory_ios=counter,
        seed=seed, metrics=registry,
    )
    rng = random.Random(seed)
    probs = [float(p) for p in DIST.probabilities()]
    lids = list(DIST.lids)
    live: list[tuple[int, int]] = []
    trail: list = []
    repatriations = 0

    def insert():
        key = rng.getrandbits(48)
        lid = rng.choices(lids, weights=probs)[0]
        filt.insert(key, lid)
        live.append((key, lid))

    for _ in range(FILL):
        insert()
    for _ in range(CHURN):
        roll = rng.random()
        if roll < 0.30:
            idx = rng.randrange(len(live))
            key, lid = live.pop(idx)
            removed = (lid, filt.fingerprint(key, lid))
            before = _aht_entries(filt)
            trail.append(("remove", key, filt.remove(key, lid)))
            # An AHT entry other than the removed mapping itself left
            # the AHT: it was pulled back into the freed slot.
            lost = before - _aht_entries(filt)
            repatriations += any(slot != removed for slot in lost)
            insert()  # keep the load where the walk keeps failing
        elif roll < 0.55:
            idx = rng.randrange(len(live))
            key, lid = live[idx]
            new_lid = rng.choice(lids)
            moved = filt.update_lid(key, lid, new_lid)
            trail.append(("update", key, moved))
            if moved:
                live[idx] = (key, new_lid)
        elif roll < 0.80:
            key, _ = live[rng.randrange(len(live))]
            trail.append(("hit", key, filt.query(key)))
        else:
            trail.append(("miss", filt.query(rng.getrandbits(48))))
    for key, lid in live:
        assert lid in filt.query(key), "false negative"
    state = filt.persist() if cls is ChuckyFilter else filt.iter_slots()
    observables = (trail, sorted(counter.snapshot().items()), state)
    return observables, filt, registry, repatriations


@pytest.mark.parametrize("seed", [0, 7, 1234])
@pytest.mark.parametrize("cls", [ChuckyFilter, UncompressedLidFilter])
def test_dense_workload_matches_the_frozen_digest(cls, seed):
    observables, filt, registry, repatriations = dense_workload(cls, seed)

    walks = registry.get("chucky_eviction_walk_length")
    spills = registry.get("chucky_aht_spills_total")
    assert walks.count > walks.counts[0], "no eviction walk ran"
    assert spills.value > 0, "no insert spilled into the AHT"
    assert repatriations > 0, "no removal repatriated an AHT entry"
    assert filt.maintenance_misses == 0

    digest = hashlib.sha256(repr(observables).encode()).hexdigest()
    assert digest == GOLDEN[cls, seed]
