"""Deterministic fault injection and crash-consistency checking.

Layering: :mod:`repro.faults.crashpoints` is dependency-free — the
engine modules (kvstore, tree, sharded router, group commit) import it
to place named crash points on their commit paths, each a no-op unless
an arbiter is activated. The injector, invariants and harness sit
*above* the engine, so this package exports them lazily: importing
``repro.faults`` from inside the engine must not drag the harness (and
through it the engine itself) back in.

Entry points:

* :func:`run_faultcheck` / :class:`FaultcheckConfig` — the crash-
  schedule explorer behind ``repro faultcheck``;
* :class:`FaultPlan` / :class:`FaultInjector` — one seeded fault
  schedule and its executor;
* :class:`InvariantChecker` — the post-recovery invariant battery.
"""

from repro.faults.crashpoints import (  # noqa: F401  (re-exports)
    CRASH_POINTS,
    activated,
    crash_point,
)

_LAZY = {
    "FaultPlan": "repro.faults.injector",
    "FaultInjector": "repro.faults.injector",
    "FaultyWriteAheadLog": "repro.faults.injector",
    "CRASH_AT_POINT": "repro.faults.injector",
    "CRASH_IN_WAL_APPEND": "repro.faults.injector",
    "CRASH_IN_RUN_WRITE": "repro.faults.injector",
    "InvariantChecker": "repro.faults.invariants",
    "Violation": "repro.faults.invariants",
    "FaultcheckConfig": "repro.faults.harness",
    "FaultcheckReport": "repro.faults.harness",
    "ScheduleResult": "repro.faults.harness",
    "make_workload": "repro.faults.harness",
    "run_faultcheck": "repro.faults.harness",
}

__all__ = ["CRASH_POINTS", "activated", "crash_point", *_LAZY]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value
