"""LSM-tree configuration: the Dostoevsky design space (T, K, Z, P).

Figure 2 of the paper: ``T`` is the size ratio between adjacent levels,
``K`` the number of sub-levels at each of Levels 1..L-1, ``Z`` the number
of sub-levels at the largest level, and ``P`` the buffer capacity in
entries. The three classic merge policies are corner points:

* leveling:       K = 1,     Z = 1      (read & space optimized)
* tiering:        K = T - 1, Z = T - 1  (write optimized)
* lazy leveling:  K = T - 1, Z = 1      (point-read optimized)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

#: The three classic merge policies by preset name: ``(label, T -> (K,
#: Z))``. The one table the preset constructors here and in
#: :class:`repro.engine.config.EngineConfig`, :attr:`LSMConfig.policy_name`,
#: the CLI's ``--preset`` choices and the benchmark suite read.
PRESETS: dict[str, tuple[str, Callable[[int], tuple[int, int]]]] = {
    "leveled": ("leveling", lambda t: (1, 1)),
    "tiered": ("tiering", lambda t: (t - 1, t - 1)),
    "lazy": ("lazy-leveling", lambda t: (t - 1, 1)),
}


def preset_shape(name: str, size_ratio: int) -> dict[str, int]:
    """``runs_per_level`` / ``runs_at_last_level`` of preset ``name`` at
    size ratio ``size_ratio``, as constructor keywords."""
    if name not in PRESETS:
        raise ValueError(
            f"unknown preset {name!r}; choose from {', '.join(PRESETS)}"
        )
    k, z = PRESETS[name][1](size_ratio)
    return {"runs_per_level": k, "runs_at_last_level": z}


@dataclass(frozen=True)
class LSMConfig:
    """Geometry and tuning of one LSM-tree instance.

    Attributes:
        size_ratio: T, capacity ratio between adjacent levels (>= 2).
        runs_per_level: K, sub-levels at each of Levels 1..L-1.
        runs_at_last_level: Z, sub-levels at the largest Level L.
        buffer_entries: P, memtable capacity in entries.
        block_entries: entries per storage block (sets fence granularity).
        initial_levels: number of storage levels to start with; the tree
            grows beyond this when the largest level fills up.
    """

    size_ratio: int = 5
    runs_per_level: int = 1
    runs_at_last_level: int = 1
    buffer_entries: int = 128
    block_entries: int = 32
    initial_levels: int = 1

    def __post_init__(self) -> None:
        if self.size_ratio < 2:
            raise ValueError(f"size ratio T must be >= 2, got {self.size_ratio}")
        if not 1 <= self.runs_per_level <= self.size_ratio:
            raise ValueError(
                f"K must be in [1, T], got K={self.runs_per_level} T={self.size_ratio}"
            )
        if not 1 <= self.runs_at_last_level <= self.size_ratio:
            raise ValueError(
                f"Z must be in [1, T], got Z={self.runs_at_last_level} T={self.size_ratio}"
            )
        if self.buffer_entries < 1:
            raise ValueError("buffer_entries must be >= 1")
        if self.block_entries < 1:
            raise ValueError("block_entries must be >= 1")
        if self.initial_levels < 1:
            raise ValueError("initial_levels must be >= 1")

    def sublevels_at(self, level: int, num_levels: int) -> int:
        """A_i (Eq 1): K at levels 1..L-1, Z at level L."""
        if not 1 <= level <= num_levels:
            raise ValueError(f"level {level} out of range [1, {num_levels}]")
        if level == num_levels:
            return self.runs_at_last_level
        return self.runs_per_level

    def total_sublevels(self, num_levels: int) -> int:
        """A (Eq 1): (L-1) K + Z."""
        return (num_levels - 1) * self.runs_per_level + self.runs_at_last_level

    def level_capacity(self, level: int) -> int:
        """Capacity of Level ``level`` in entries: P * T^level."""
        return self.buffer_entries * self.size_ratio**level

    def sublevel_capacity(self, level: int, num_levels: int) -> int:
        """Capacity of one sub-level: the level's capacity split evenly."""
        a_i = self.sublevels_at(level, num_levels)
        return max(1, self.level_capacity(level) // a_i)

    def sublevel_number(self, level: int, rank: int) -> int:
        """Global sub-level number of the ``rank``-th youngest run at
        ``level`` (1-based rank): ``(i-1) K + rank`` (paper section 2)."""
        return (level - 1) * self.runs_per_level + rank

    def with_levels(self, num_levels: int) -> "LSMConfig":
        return replace(self, initial_levels=num_levels)

    @property
    def policy_name(self) -> str:
        """Human label for the merge policy this config encodes."""
        k, z = self.runs_per_level, self.runs_at_last_level
        for label, shape in PRESETS.values():
            if shape(self.size_ratio) == (k, z):
                return label
        return f"custom(K={k},Z={z})"


def leveling(size_ratio: int = 5, **kwargs) -> LSMConfig:
    """Leveled merge policy: one run per level (RocksDB default style)."""
    return LSMConfig(size_ratio, **preset_shape("leveled", size_ratio), **kwargs)


def tiering(size_ratio: int = 5, **kwargs) -> LSMConfig:
    """Tiered merge policy: up to T-1 runs everywhere (write optimized)."""
    return LSMConfig(size_ratio, **preset_shape("tiered", size_ratio), **kwargs)


def lazy_leveling(size_ratio: int = 5, **kwargs) -> LSMConfig:
    """Lazy leveling: tiered small levels, leveled largest level
    (point-read optimized; the paper's default setup)."""
    return LSMConfig(size_ratio, **preset_shape("lazy", size_ratio), **kwargs)
