"""LSM-tree substrate: a Dostoevsky-style log-structured merge-tree with
sub-levels, simulated storage, fence pointers and a block cache.

This is the system the paper's filters plug into. It follows the merge
framework of Dayan & Idreos (Dostoevsky, SIGMOD 2018) exactly as the
paper describes in section 2: L levels of capacity ``P * T^i``, K
sub-levels at levels 1..L-1, Z at level L, runs merged "into the highest
sub-level at the next level that is below capacity".
"""

from repro.lsm.block_cache import BlockCache
from repro.lsm.config import (
    LSMConfig,
    lazy_leveling,
    leveling,
    tiering,
)
from repro.lsm.entry import Entry, TOMBSTONE
from repro.lsm.memtable import Memtable
from repro.lsm.run import Run
from repro.lsm.storage import StorageDevice
from repro.lsm.tree import (
    BUFFER_ORIGIN,
    FlushEvent,
    LSMTree,
    MergeEvent,
    RunManifest,
    TreeEvent,
)
from repro.lsm.wal import WalCorruption, WriteAheadLog

__all__ = [
    "BUFFER_ORIGIN",
    "BlockCache",
    "Entry",
    "FlushEvent",
    "LSMConfig",
    "LSMTree",
    "Memtable",
    "MergeEvent",
    "Run",
    "RunManifest",
    "StorageDevice",
    "TOMBSTONE",
    "TreeEvent",
    "WalCorruption",
    "WriteAheadLog",
    "lazy_leveling",
    "leveling",
    "tiering",
]
