"""The tuning controller: sensor → planner → actuator, per window.

:class:`TuningController` is the object stores attach via
``store.attach_tuning(controller)``. Each operation's hook call feeds
the :class:`~repro.tuning.sensor.WorkloadSensor`; when a window fills,
the controller closes it, asks the
:class:`~repro.tuning.planner.CostPlanner` for a verdict, appends it to
the decision log, and either applies it immediately
(``auto_apply=True``, the CLI/batch mode) or queues it for
:meth:`apply_pending` (the asyncio server's background task calls that
on the loop thread, so actuation is serialised with requests exactly
like any other store operation).

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
from repro.engine.kvstore import KVStore, ReadResult
from repro.engine.sharded import ShardedKVStore, shards_of
from repro.obs import NULL_OBS, Observability
from repro.tuning.actuator import migrate_filter, resize_memtable
from repro.tuning.planner import CostPlanner, PlannerConfig, TuningDecision
from repro.tuning.sensor import WindowSummary, WorkloadSensor


@dataclass(frozen=True)
class TuningConfig:
    """Controller-level knobs (the planner has its own, nested here)."""

    #: Operations per sensing window.
    window_ops: int = 512
    #: Apply decisions synchronously from the hook (True) or queue them
    #: for :meth:`TuningController.apply_pending` (False; server mode).
    auto_apply: bool = True
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    #: Keep at most this many window summaries (decision log is unbounded
    #: only in the sense that decisions are rare; summaries are not).
    max_summaries: int = 256


class TuningController:
    """The closed loop. Attach with :meth:`attach`; detach to freeze."""

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
        self._pending: list[TuningDecision] = []
        self._windows_since_change = self.config.planner.cooldown_windows
        self._busy = False
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

    # -- lifecycle ------------------------------------------------------

    def attach(self) -> "TuningController":
        self.store.attach_tuning(self)
        return self

    def detach(self) -> None:
        self.store.detach_tuning()

    # -- the store-side hook -------------------------------------------

    def on_read(self, key: int, result: ReadResult) -> None:
        self.sensor.record_read(key, result)
        self._maybe_close_window()

    def on_write(self, count: int = 1) -> None:
        self.sensor.record_write(count)
        self._maybe_close_window()

    def on_delete(self, count: int = 1) -> None:
        """Deletes: the sensor keeps them inside the write mix but also
        surfaces the delete-rate to the planner."""
        self.sensor.record_delete(count)
        self._maybe_close_window()

    def on_scan(self) -> None:
        self.sensor.record_scan()
        self._maybe_close_window()

    # -- the loop -------------------------------------------------------

    def _maybe_close_window(self) -> None:
        if self._busy or not self.sensor.window_filled:
            return
        self._busy = True
        try:
            self._close_window()
        finally:
            self._busy = False

    def _close_window(self) -> None:
        summary = self.sensor.close_window()
        self.summaries.append(summary)
        del self.summaries[: -self.config.max_summaries]
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
            return
        self._g_win.set(decision.win)
        if self.config.auto_apply:
            self._apply(decision)
        else:
            self._pending.append(decision)

    def apply_pending(self) -> int:
        """Apply queued decisions (server mode); returns how many."""
        applied = 0
        while self._pending:
            self._apply(self._pending.pop(0))
            applied += 1
        return applied

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
            "pending": len(self._pending),
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
