"""Shared low-level substrate: bit I/O, hashing, accounting, cost models.

Everything in this package is deliberately free of LSM/filter knowledge so
that the coding, LSM, and filter layers can all build on it without
circular dependencies.
"""

from repro.common.bitio import BitReader, BitWriter
from repro.common.counters import IOCounters, MemoryIOCounter, StorageIOCounter
from repro.common.cost import CostModel, LatencyBreakdown
from repro.common.errors import (
    CapacityError,
    CodebookError,
    FilterError,
    ReproError,
)
from repro.common.hashing import (
    fingerprint_bits,
    fp_digest,
    key_digest,
    seeded,
    splitmix64,
)

__all__ = [
    "BitReader",
    "BitWriter",
    "CapacityError",
    "CodebookError",
    "CostModel",
    "FilterError",
    "IOCounters",
    "LatencyBreakdown",
    "MemoryIOCounter",
    "ReproError",
    "StorageIOCounter",
    "fingerprint_bits",
    "fp_digest",
    "key_digest",
    "seeded",
    "splitmix64",
]
