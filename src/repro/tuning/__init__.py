"""Adaptive tuning: closed-loop workload sensing, cost-model planning
and live retuning of a running store.

The loop (see docs/API.md, "Adaptive tuning"):

* :class:`~repro.tuning.sensor.WorkloadSensor` — windowed summaries of
  the live workload and the store's counted I/Os, read from the store's
  counters;
* :class:`~repro.tuning.planner.CostPlanner` — scores candidate
  configs with the paper's FPR/cost models, recommends a retune only
  past a hysteresis threshold;
* :mod:`~repro.tuning.actuator` — applies decisions crash-safely:
  incremental filter migration with an atomic swap, memtable resizing
  and merge-policy switching at flush boundaries;
* :class:`~repro.tuning.controller.TuningController` — runs the three
  each time its ``poll()`` finds a full window.

The store never calls into this package, so a store nobody polls (or
one whose planner always holds) counts every I/O exactly as the untuned
engine does.
"""

from repro.tuning.actuator import (
    FilterMigration,
    migrate_filter,
    resize_memtable,
    switch_merge_policy,
)
from repro.tuning.controller import TuningConfig, TuningController
from repro.tuning.planner import (
    CostPlanner,
    PlannerConfig,
    TuningDecision,
    filter_probe_ios,
    filter_update_ios,
    model_fpr,
)
from repro.tuning.sensor import WindowSummary, WorkloadSensor

__all__ = [
    "CostPlanner",
    "FilterMigration",
    "PlannerConfig",
    "TuningConfig",
    "TuningController",
    "TuningDecision",
    "WindowSummary",
    "WorkloadSensor",
    "filter_probe_ios",
    "filter_update_ios",
    "migrate_filter",
    "model_fpr",
    "resize_memtable",
    "switch_merge_policy",
]
