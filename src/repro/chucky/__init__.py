"""Chucky: the paper's contribution — a succinct Cuckoo filter that maps
every LSM-tree entry to its sub-level through compressed level IDs.
"""

from repro.chucky.bucket import BucketCodec, Slot
from repro.chucky.codebook import MODES, ChuckyCodebook
from repro.chucky.filter import (
    ChuckyFilter,
    CuckooLidFilterBase,
    UncompressedLidFilter,
)
from repro.chucky.malleable import (
    cumulative_fp_length,
    level_count_vector,
    maximize_fingerprints,
)
from repro.chucky.partitioned import PartitionedChuckyFilter
from repro.chucky.policy import ChuckyPolicy
from repro.chucky.tables import CodecTables

__all__ = [
    "BucketCodec",
    "ChuckyCodebook",
    "ChuckyFilter",
    "ChuckyPolicy",
    "CodecTables",
    "CuckooLidFilterBase",
    "MODES",
    "PartitionedChuckyFilter",
    "Slot",
    "UncompressedLidFilter",
    "cumulative_fp_length",
    "level_count_vector",
    "maximize_fingerprints",
]
