"""The cost-model planner: pick the config the models say is cheapest.

Candidates are scored with the *same* analytical models the repo
validates against the paper — FPR from :mod:`repro.analysis.fpr_models`
(Eq 2 for uniform Bloom, Eq 3 for Monkey, Eq 6 for integer-LID cuckoo,
Eq 16 for Chucky) and memory-I/O complexity from
:mod:`repro.analysis.cost_models` (Tables 1 and 2), each registered with
its policy — combined with the sensed workload mix and priced by the
store's :class:`~repro.common.cost.CostModel`. That is what makes the
Chucky-vs-Monkey crossover (~11 bits/entry; below it Bloom's
``2^{-M ln 2}`` decay wins, above it Chucky's ``2^{-M}`` with the
constant ACL overhead wins, and uniform Bloom degrades with every new
level regardless) fall out of the arithmetic instead of being
hard-coded.

Two dampers keep the loop from thrashing:

* **hysteresis** — a retune is recommended only when the modelled win
  over the current config exceeds ``hysteresis`` (fractional);
* **cooldown** — after any applied action the planner holds for
  ``cooldown_windows`` windows so the sensor sees the new config's
  steady state before judging it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

from repro.engine.config import EngineConfig
from repro.filters.policy import PlannerModels, planner_models
from repro.tuning.sensor import WindowSummary


def _models(policy: str) -> PlannerModels:
    """The models ``policy`` was registered with."""
    models = planner_models(policy)
    if models is None:
        raise ValueError(f"no FPR model for policy {policy!r}")
    return models


def model_fpr(
    policy: str,
    bits_per_entry: float,
    size_ratio: int,
    num_levels: int,
    runs_per_level: int,
    runs_at_last_level: int,
) -> float:
    """Expected wasted probes per negative lookup for a policy name, by
    the paper equation the policy registered."""
    return _models(policy).fpr(
        bits_per_entry, size_ratio, num_levels, runs_per_level, runs_at_last_level
    )


def filter_probe_ios(
    policy: str, num_levels: int, runs_per_level: int, runs_at_last_level: int
) -> float:
    """Memory I/Os to consult the filter(s) on one point read."""
    return _models(policy).probe_ios(num_levels, runs_per_level, runs_at_last_level)


def filter_update_ios(
    policy: str,
    num_levels: int,
    size_ratio: int,
    runs_per_level: int,
    runs_at_last_level: int,
) -> float:
    """Amortized filter-maintenance memory I/Os per application write."""
    return _models(policy).update_ios(
        num_levels, size_ratio, runs_per_level, runs_at_last_level
    )


def default_policy_candidates() -> tuple[str, ...]:
    """The planner's default filter-policy candidate space."""
    return ("chucky", "bloom", "bloom-standard")


@dataclass(frozen=True)
class PlannerConfig:
    """Planner thresholds and the candidate space it searches."""

    #: Minimum fractional modelled win before recommending a retune.
    hysteresis: float = 0.10
    #: Windows to hold after an applied action.
    cooldown_windows: int = 2
    #: Filter-policy candidates (registry names).
    policies: tuple[str, ...] = field(
        default_factory=lambda: default_policy_candidates()
    )
    #: Extra bits/entry candidates beyond the current allocation.
    bits_options: tuple[float, ...] = ()
    allow_filter_migration: bool = True
    allow_memtable_resize: bool = False
    #: Write fraction above which the memtable is grown (and below
    #: which, once reads dominate, it shrinks back).
    memtable_write_threshold: float = 0.6
    memtable_growth_factor: int = 2


@dataclass
class TuningDecision:
    """One planner verdict, also the decision-log record."""

    window: int
    action: str  # "hold" | "migrate-filter" | "resize-memtable"
    reason: str
    current_cost_ns: float
    best_cost_ns: float
    win: float
    target_policy: str | None = None
    target_bits: float | None = None
    target_memtable: int | None = None
    applied: bool = False

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


class CostPlanner:
    """Score candidate configs against the sensed workload."""

    def __init__(self, config: PlannerConfig | None = None) -> None:
        self.config = config if config is not None else PlannerConfig()

    # -- the cost model ------------------------------------------------

    def modelled_cost_ns(
        self,
        summary: WindowSummary,
        engine: EngineConfig,
        num_levels: int,
        policy: str | None = None,
        bits_per_entry: float | None = None,
    ) -> float:
        """Modelled ns/op for ``engine`` (optionally overriding the
        filter policy/bits) under the summarised workload.

        Read: one storage block for the target (when the key exists)
        plus one per filter false positive, discounted by the observed
        cache hit ratio, plus the filter-probe and memtable/fence memory
        I/Os. Write: amortized compaction write-amplification in storage
        blocks plus filter-maintenance memory I/Os. Scan: one block per
        occupied run (filters are bypassed).
        """
        t = engine.size_ratio
        k = engine.runs_per_level
        z = engine.runs_at_last_level
        levels = max(1, num_levels)
        pol = policy if policy is not None else engine.policy
        bits = bits_per_entry if bits_per_entry is not None else engine.bits_per_entry
        runs = k * (levels - 1) + z
        model = engine.cost_model

        fpr = min(model_fpr(pol, bits, t, levels, k, z), float(runs))
        miss = 1.0 - summary.cache_hit_ratio
        read_storage = ((1.0 - summary.negative_fraction) + fpr) * miss
        read_ns = model.storage_cost(read_storage) + model.memory_cost(
            filter_probe_ios(pol, levels, k, z) + 2  # memtable + fence search
        )

        wa_entries = (levels - 1) * t / k + t / z
        write_ns = model.storage_cost(
            0, wa_entries / engine.block_entries
        ) + model.memory_cost(1 + filter_update_ios(pol, levels, t, k, z))

        scan_ns = model.storage_cost(runs)

        return (
            summary.read_fraction * read_ns
            + summary.write_fraction * write_ns
            + summary.scan_fraction * scan_ns
        )

    # -- planning ------------------------------------------------------

    def plan(
        self,
        summary: WindowSummary,
        current: EngineConfig,
        num_levels: int,
        windows_since_change: int,
        memtable_capacity: int | None = None,
    ) -> TuningDecision:
        """Judge the current config against every allowed candidate."""
        cfg = self.config
        current_cost = self.modelled_cost_ns(summary, current, num_levels)
        hold = TuningDecision(
            window=summary.index,
            action="hold",
            reason="current config within hysteresis of the best candidate",
            current_cost_ns=current_cost,
            best_cost_ns=current_cost,
            win=0.0,
        )
        if windows_since_change < cfg.cooldown_windows:
            hold.reason = (
                f"cooldown: {windows_since_change}/{cfg.cooldown_windows} "
                f"windows since last action"
            )
            return hold

        best = hold
        if cfg.allow_filter_migration:
            bits_options = {current.bits_per_entry, *cfg.bits_options}
            for policy in cfg.policies:
                for bits in sorted(bits_options):
                    if (
                        policy == current.policy
                        and bits == current.bits_per_entry
                    ):
                        continue
                    cost = self.modelled_cost_ns(
                        summary, current, num_levels, policy=policy,
                        bits_per_entry=bits,
                    )
                    win = (current_cost - cost) / current_cost if current_cost else 0.0
                    if win > best.win:
                        best = TuningDecision(
                            window=summary.index,
                            action="migrate-filter",
                            reason=(
                                f"model prefers {policy} @ {bits:g} b/e at "
                                f"L={num_levels} ({win:.1%} modelled win)"
                            ),
                            current_cost_ns=current_cost,
                            best_cost_ns=cost,
                            win=win,
                            target_policy=policy,
                            target_bits=bits,
                        )
        if best.action != "hold" and best.win > cfg.hysteresis:
            return best

        if cfg.allow_memtable_resize and memtable_capacity is not None:
            base = current.buffer_entries
            if (
                summary.write_fraction >= cfg.memtable_write_threshold
                and memtable_capacity == base
            ):
                target = base * cfg.memtable_growth_factor
                return TuningDecision(
                    window=summary.index,
                    action="resize-memtable",
                    reason=(
                        f"write-heavy window ({summary.write_fraction:.0%} "
                        f"writes): grow buffer to amortize flushes"
                    ),
                    current_cost_ns=current_cost,
                    best_cost_ns=current_cost,
                    win=0.0,
                    target_memtable=target,
                )
            if (
                summary.write_fraction < 1.0 - cfg.memtable_write_threshold
                and memtable_capacity != base
            ):
                return TuningDecision(
                    window=summary.index,
                    action="resize-memtable",
                    reason=(
                        f"read-heavy window ({summary.read_fraction:.0%} "
                        f"reads): restore configured buffer"
                    ),
                    current_cost_ns=current_cost,
                    best_cost_ns=current_cost,
                    win=0.0,
                    target_memtable=base,
                )
        return hold
