"""The tuning controller: sensor → planner → actuator, per window.

:class:`TuningController` reads the store; the store never calls it.
Its one entry point is :meth:`~TuningController.poll`: once the store's
counters show ``window_ops`` operations since the last window, it closes
the window (:class:`~repro.tuning.sensor.WorkloadSensor`), asks the
:class:`~repro.tuning.planner.CostPlanner` for a verdict, appends it to
the decision log and applies a non-hold verdict at once. Whoever drives
the store decides when to poll: ``repro tune`` after every operation it
issues, ``repro serve --adapt`` from a task on the event loop between
requests, so actuation is serialised with requests exactly like any
other store operation.

The controller also owns the **effective config**: the
:class:`~repro.engine.config.EngineConfig` describing the store as
tuned so far. Crash recovery of a tuned store must use
``controller.effective_config`` — after a filter migration the durable
state is only *blob-compatible* with the new policy (recovery under the
old config still yields a correct store; the filter is rebuilt from the
runs, the safety net ``repro faultcheck`` exercises).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.engine.config import EngineConfig
from repro.engine.kvstore import KVStore
from repro.engine.sharded import ShardedKVStore, shards_of
from repro.obs import NULL_OBS, Observability
from repro.tuning.actuator import migrate_filter, resize_memtable
from repro.tuning.planner import CostPlanner, PlannerConfig, TuningDecision
from repro.tuning.sensor import WindowSummary, WorkloadSensor


#: Keep at most this many window summaries (the decision log is
#: unbounded only in the sense that decisions are rare; summaries are not).
MAX_SUMMARIES = 256


@dataclass(frozen=True)
class TuningConfig:
    """Controller-level knobs (the planner has its own, nested here)."""

    #: Operations per sensing window.
    window_ops: int = 512
    planner: PlannerConfig = field(default_factory=PlannerConfig)


class TuningController:
    """The closed loop, advanced by :meth:`poll`; stop polling to freeze."""

    def __init__(
        self,
        store: KVStore | ShardedKVStore,
        engine_config: EngineConfig,
        config: TuningConfig | None = None,
        observability: Observability | None = None,
    ) -> None:
        self.store = store
        self.config = config if config is not None else TuningConfig()
        self.obs = observability if observability is not None else NULL_OBS
        #: The store's config as tuned so far — recovery should use this.
        self.effective_config = engine_config
        self.memtable_capacity = engine_config.buffer_entries
        self.sensor = WorkloadSensor(store, self.config.window_ops)
        self.planner = CostPlanner(self.config.planner)
        self.decision_log: list[TuningDecision] = []
        self.summaries: list[WindowSummary] = []
        self._windows_since_change = self.config.planner.cooldown_windows
        registry = self.obs.registry
        self._m_windows = registry.counter(
            "tuning_windows_total", "sensing windows closed"
        )
        self._m_holds = registry.counter(
            "tuning_holds_total", "windows where the planner held"
        )
        self._m_migrations = registry.counter(
            "tuning_migrations_total", "filter migrations applied"
        )
        self._m_resizes = registry.counter(
            "tuning_memtable_resizes_total", "memtable resizes applied"
        )
        self._g_win = registry.gauge(
            "tuning_last_win", "modelled win of the last non-hold decision"
        )

    # -- the loop -------------------------------------------------------

    def poll(self) -> TuningDecision | None:
        """Close the window once it holds ``window_ops`` operations: plan
        it and apply a non-hold decision. Returns the window's decision,
        or ``None`` while the window is still open."""
        if not self.sensor.window_filled:
            return None
        summary = self.sensor.close_window()
        self.summaries.append(summary)
        del self.summaries[:-MAX_SUMMARIES]
        self._m_windows.inc()
        num_levels = max(
            shard.tree.num_levels for shard in shards_of(self.store)
        )
        with self.obs.tracer.span(
            "tuning_plan", window=summary.index, levels=num_levels
        ):
            decision = self.planner.plan(
                summary,
                self.effective_config,
                num_levels,
                self._windows_since_change,
                memtable_capacity=self.memtable_capacity,
            )
        self._windows_since_change += 1
        self.decision_log.append(decision)
        if decision.action == "hold":
            self._m_holds.inc()
        else:
            self._g_win.set(decision.win)
            self._apply(decision)
        return decision

    def _apply(self, decision: TuningDecision) -> None:
        with self.obs.tracer.span(
            "tuning_apply", action=decision.action, window=decision.window
        ):
            if decision.action == "migrate-filter":
                migrate_filter(
                    self.store, decision.target_policy, decision.target_bits
                )
                self.effective_config = replace(
                    self.effective_config,
                    policy=decision.target_policy,
                    bits_per_entry=decision.target_bits,
                )
                self._m_migrations.inc()
            elif decision.action == "resize-memtable":
                self.memtable_capacity = resize_memtable(
                    self.store, decision.target_memtable
                )
                self._m_resizes.inc()
            else:  # pragma: no cover - planner emits only the above
                raise ValueError(f"unknown tuning action {decision.action!r}")
        decision.applied = True
        self._windows_since_change = 0

    # -- reporting ------------------------------------------------------

    def applied_decisions(self) -> list[TuningDecision]:
        return [d for d in self.decision_log if d.applied]

    def status(self) -> dict[str, Any]:
        """JSON-ready controller state for the CLI and the server."""
        return {
            "windows": self.sensor.windows_closed,
            "decisions": [d.as_dict() for d in self.decision_log],
            "applied": sum(1 for d in self.decision_log if d.applied),
            "effective_policy": self.effective_config.policy,
            "effective_bits_per_entry": self.effective_config.bits_per_entry,
            "effective_runs_per_level": self.effective_config.runs_per_level,
            "effective_runs_at_last_level": (
                self.effective_config.runs_at_last_level
            ),
            "memtable_capacity": self.memtable_capacity,
            "last_summary": (
                self.summaries[-1].as_dict() if self.summaries else None
            ),
        }
