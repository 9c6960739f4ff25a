"""The crash-schedule explorer behind ``repro faultcheck``.

For every seed the explorer runs a CrashMonkey-style two-phase search:

1. **Trace run** — the seeded workload executes against a store with
   the fault injector installed but no crash scheduled, only transient
   I/O errors (which the engine must absorb via bounded
   retry-with-backoff). Reads are validated against a reference model
   on the fly; at the end the store is crashed *clean* and recovered,
   which must reproduce the model exactly — including ``bytes`` values
   round-tripping through the WAL. The trace also counts how often
   every crash point, WAL append and run write fired: the candidate
   crash sites.

2. **Crash schedules** — a deterministic sample of those candidates is
   re-run, each crashing at its chosen site (a registered crash point,
   a byte-granular torn WAL append, or a partial multi-block run
   write). After each injected crash the surviving state is recovered
   and the full :class:`~repro.faults.invariants.InvariantChecker`
   battery runs: acknowledged writes durable, deleted keys dead, the
   single in-flight operation in its before-or-after state, and the
   structural invariants. Recovery failures (any exception) are
   violations too — a recovery that *raises* on a legal crash state is
   exactly the bug class this harness exists to catch.

Optionally each seed also runs one asyncio group-commit schedule:
concurrent submissions through :class:`GroupCommitWriter`, a crash
between WAL append and acknowledgement, and the check that every
acknowledged submission survived recovery.

And one **migration schedule** per seed: the workload runs to
completion, then a live filter migration (the adaptive-tuning
actuator's incremental rebuild + atomic swap) is crashed at one of the
``tuning.migrate.*`` points, rotating with the seed. Filters are soft
state, so recovery must succeed and match the model under the old
config for a crash before the swap and under the new config after it —
the blob-mismatch-falls-back-to-rebuild path is exactly what these
schedules pin down.

Everything is deterministic in (config, seed): same inputs, same
workload, same faults, same verdict.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Any

from repro.common.errors import InjectedCrash
from repro.engine.config import EngineConfig, build_store, recover_store
from repro.faults import crashpoints
from repro.faults.injector import (
    CRASH_AT_POINT,
    CRASH_IN_RUN_WRITE,
    CRASH_IN_WAL_APPEND,
    FaultInjector,
    FaultPlan,
)
from repro.faults.invariants import InvariantChecker, Violation, merge_expected
from repro.lsm.entry import TOMBSTONE
from repro.obs import NULL_OBS, Observability

_PRESETS = ("leveled", "tiered", "lazy")


@dataclass(frozen=True)
class FaultcheckConfig:
    """Knobs of one faultcheck campaign."""

    seeds: int = 20
    shards: int = 1
    preset: str = "leveled"
    policy: str = "chucky"
    ops: int = 40
    schedules_per_seed: int = 3
    transient_rate: float = 0.05
    group_commit: bool = True
    migration: bool = True

    def __post_init__(self) -> None:
        if self.preset not in _PRESETS:
            raise ValueError(
                f"unknown preset {self.preset!r}; choose from "
                f"{', '.join(_PRESETS)}"
            )
        if self.seeds < 1:
            raise ValueError(f"seeds must be >= 1, got {self.seeds}")

    def engine_config(self) -> EngineConfig:
        """A deliberately tiny geometry: a few dozen ops must exercise
        flushes, merge cascades, spills and cache traffic."""
        factory = {
            "leveled": EngineConfig.leveled,
            "tiered": EngineConfig.tiered,
            "lazy": EngineConfig.lazy_leveled,
        }[self.preset]
        return factory(
            size_ratio=3,
            buffer_entries=8,
            block_entries=4,
            cache_blocks=8,
            policy=self.policy,
            durable=True,
            shards=self.shards,
        )


@dataclass
class ScheduleResult:
    """Verdict of one explored schedule."""

    seed: int
    schedule: str
    crashed: bool
    violations: list[str] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "schedule": self.schedule,
            "crashed": self.crashed,
            "violations": list(self.violations),
        }


@dataclass
class FaultcheckReport:
    """Aggregate outcome of a campaign — the CI artifact."""

    preset: str
    policy: str
    shards: int
    seeds: int
    results: list[ScheduleResult] = field(default_factory=list)
    crashes_injected: int = 0
    transient_errors: int = 0
    io_backoffs: int = 0
    torn_wal_appends: int = 0
    partial_run_writes: int = 0
    crash_points_seen: dict[str, int] = field(default_factory=dict)

    @property
    def schedules_run(self) -> int:
        return len(self.results)

    @property
    def violations(self) -> list[str]:
        return [
            f"seed {r.seed} [{r.schedule}]: {v}"
            for r in self.results
            for v in r.violations
        ]

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict[str, Any]:
        return {
            "preset": self.preset,
            "policy": self.policy,
            "shards": self.shards,
            "seeds": self.seeds,
            "schedules_run": self.schedules_run,
            "crashes_injected": self.crashes_injected,
            "transient_errors": self.transient_errors,
            "io_backoffs": self.io_backoffs,
            "torn_wal_appends": self.torn_wal_appends,
            "partial_run_writes": self.partial_run_writes,
            "crash_points_seen": dict(sorted(self.crash_points_seen.items())),
            "ok": self.ok,
            "violations": self.violations,
            "results": [r.as_dict() for r in self.results],
        }

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        points = len(self.crash_points_seen)
        return (
            f"faultcheck {status}: preset={self.preset} policy={self.policy} "
            f"shards={self.shards} seeds={self.seeds} "
            f"schedules={self.schedules_run} crashes={self.crashes_injected} "
            f"crash_points={points} transient_io={self.transient_errors} "
            f"torn_wal={self.torn_wal_appends} "
            f"partial_writes={self.partial_run_writes}"
        )


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------

_KEY_SPACE = 32  # small on purpose: overwrites, deletes and re-puts collide


#: TTL attached to the harness's TTL'd puts: far past any modelled
#: clock the run can reach, so the reference model treats them as plain
#: puts while the WAL still round-trips the TTL value-kinds (str *and*
#: non-UTF-8 bytes) and the ``kvstore.put_ttl.after_wal`` crash point
#: becomes reachable.
_FAR_TTL = 1 << 60


def make_workload(seed: int, ops: int) -> list[tuple]:
    """A deterministic op list: puts (str *and* non-UTF-8 bytes values,
    some TTL'd with a far-future expiry), deletes, atomic batches (with
    embedded tombstones), reads, and the occasional explicit flush. The
    final op is always a put of a non-UTF-8 ``bytes`` value, so a crash
    at end-of-workload always has a bytes record in the WAL tail — the
    exact payload the original replay bug corrupted."""
    rng = random.Random(f"workload:{seed}")
    workload: list[tuple] = []
    for _ in range(max(1, ops - 1)):
        roll = rng.random()
        key = rng.randrange(_KEY_SPACE)
        if roll < 0.40:
            value = f"s{seed}-{rng.randrange(1000)}"
            if rng.random() < 0.25:
                workload.append(("put_ttl", key, value, _FAR_TTL))
            else:
                workload.append(("put", key, value))
        elif roll < 0.55:
            if rng.random() < 0.25:
                workload.append(("put_ttl", key, _raw_bytes(rng), _FAR_TTL))
            else:
                workload.append(("put", key, _raw_bytes(rng)))
        elif roll < 0.70:
            workload.append(("delete", key))
        elif roll < 0.80:
            items: list[tuple[int, Any]] = []
            for _ in range(rng.randrange(2, 6)):
                k = rng.randrange(_KEY_SPACE)
                pick = rng.random()
                if pick < 0.2:
                    items.append((k, TOMBSTONE))
                elif pick < 0.6:
                    items.append((k, _raw_bytes(rng)))
                else:
                    items.append((k, f"b{seed}-{rng.randrange(1000)}"))
            workload.append(("batch", items))
        elif roll < 0.95:
            workload.append(("get", key))
        else:
            workload.append(("flush",))
    workload.append(("put", rng.randrange(_KEY_SPACE), _raw_bytes(rng)))
    return workload


def _raw_bytes(rng: random.Random) -> bytes:
    """A value that is guaranteed not to decode as UTF-8."""
    return b"\xff\xfe" + bytes(rng.randrange(256) for _ in range(3))


def _op_effects(op: tuple) -> dict[int, Any]:
    """key -> would-be new value (TOMBSTONE for deletes); empty for
    reads and flushes."""
    kind = op[0]
    if kind in ("put", "put_ttl"):
        return {op[1]: op[2]}
    if kind == "delete":
        return {op[1]: TOMBSTONE}
    if kind == "batch":
        effects: dict[int, Any] = {}
        for key, value in op[1]:
            effects[key] = value
        return effects
    return {}


def _apply_op(store, op: tuple) -> Any:
    kind = op[0]
    if kind == "put":
        store.put(op[1], op[2])
    elif kind == "put_ttl":
        store.put(op[1], op[2], ttl=op[3])
    elif kind == "delete":
        store.delete(op[1])
    elif kind == "batch":
        store.put_batch(list(op[1]))
    elif kind == "get":
        return store.get(op[1])
    elif kind == "flush":
        store.flush()
    else:  # pragma: no cover - workload generator bug
        raise ValueError(f"unknown op {kind!r}")
    return None


def _model_value(model: dict[int, Any], key: int) -> Any:
    value = model.get(key)
    return None if value is TOMBSTONE else value


def _clear_faults(state) -> None:
    """Detach the injector from the surviving storage so recovery runs
    on a healthy machine (the crash is over; the device rebooted)."""
    for shard_state in getattr(state, "shards", (state,)):
        shard_state.storage.faults = None


# ----------------------------------------------------------------------
# Phase 1: trace run
# ----------------------------------------------------------------------

@dataclass
class _TraceInfo:
    point_counts: dict[str, int]
    wal_appends: int
    run_writes: int


def _trace_run(
    cfg: FaultcheckConfig,
    econf: EngineConfig,
    seed: int,
    workload: list[tuple],
    obs: Observability,
) -> tuple[ScheduleResult, _TraceInfo, FaultInjector]:
    plan = FaultPlan(seed=seed, transient_rate=cfg.transient_rate)
    injector = FaultInjector(plan, obs)
    store = build_store(econf)
    injector.install(store)
    result = ScheduleResult(seed=seed, schedule="trace", crashed=False)
    model: dict[int, Any] = {}
    checker = InvariantChecker()
    with crashpoints.activated(injector):
        for op in workload:
            value = _apply_op(store, op)
            if op[0] == "get":
                expected = _model_value(model, op[1])
                if value != expected or type(value) is not type(expected):
                    result.violations.append(
                        str(
                            Violation(
                                "read-your-writes",
                                f"get({op[1]}) returned {value!r}, model "
                                f"says {expected!r}",
                            )
                        )
                    )
            model.update(_op_effects(op))
    # Live store must match the model before we even crash it.
    result.violations.extend(
        str(v) for v in checker.check_state(store, merge_expected(model))
    )
    # Clean crash + recovery: every op was acknowledged, so the
    # recovered store must reproduce the model exactly — bytes values
    # included (this is the schedule that catches the WAL replay
    # value-coercion bug).
    state = store.crash()
    _clear_faults(state)
    try:
        recovered = recover_store(state, econf)
        result.violations.extend(
            str(v)
            for v in checker.check_state(recovered, merge_expected(model))
        )
        result.violations.extend(
            str(v) for v in checker.check_structure(recovered)
        )
    except Exception as exc:  # noqa: BLE001 — a raising recovery IS the bug
        result.violations.append(
            str(
                Violation(
                    "recovery",
                    f"recovery of a clean crash raised "
                    f"{type(exc).__name__}: {exc}",
                )
            )
        )
    info = _TraceInfo(
        point_counts=dict(injector.point_counts),
        wal_appends=injector.wal_appends,
        run_writes=injector.run_writes,
    )
    return result, info, injector


# ----------------------------------------------------------------------
# Phase 2: crash schedules
# ----------------------------------------------------------------------

def _candidate_plans(
    cfg: FaultcheckConfig, seed: int, info: _TraceInfo
) -> list[FaultPlan]:
    """Every crash site the trace observed, as a concrete plan."""
    plans = []
    for name in sorted(info.point_counts):
        for occurrence in range(1, info.point_counts[name] + 1):
            plans.append(
                FaultPlan(
                    seed=seed,
                    crash_kind=CRASH_AT_POINT,
                    crash_point_name=name,
                    crash_occurrence=occurrence,
                    transient_rate=cfg.transient_rate,
                )
            )
    for occurrence in range(1, info.wal_appends + 1):
        plans.append(
            FaultPlan(
                seed=seed,
                crash_kind=CRASH_IN_WAL_APPEND,
                crash_occurrence=occurrence,
                transient_rate=cfg.transient_rate,
            )
        )
    for occurrence in range(1, info.run_writes + 1):
        plans.append(
            FaultPlan(
                seed=seed,
                crash_kind=CRASH_IN_RUN_WRITE,
                crash_occurrence=occurrence,
                transient_rate=cfg.transient_rate,
            )
        )
    return plans


def _choose_plans(
    cfg: FaultcheckConfig, seed: int, candidates: list[FaultPlan]
) -> list[FaultPlan]:
    """Deterministic sample, spread across fault kinds first: every
    seed explores at least one torn WAL append and one partial run
    write (when the trace saw any) alongside crash points — a small
    campaign must still exercise all three fault types. Within a kind
    the concrete site/occurrence rotates with the seed's rng, then
    random extras fill the budget."""
    if len(candidates) <= cfg.schedules_per_seed:
        return list(candidates)
    rng = random.Random(f"schedules:{seed}")
    by_kind: dict[str, list[FaultPlan]] = {}
    for plan in candidates:
        by_kind.setdefault(plan.crash_kind, []).append(plan)
    chosen: list[FaultPlan] = []
    for kind in sorted(by_kind):
        if len(chosen) >= cfg.schedules_per_seed:
            break
        chosen.append(rng.choice(by_kind[kind]))
    remaining = [plan for plan in candidates if plan not in chosen]
    while len(chosen) < cfg.schedules_per_seed and remaining:
        pick = rng.choice(remaining)
        remaining.remove(pick)
        chosen.append(pick)
    return chosen


def _crash_run(
    cfg: FaultcheckConfig,
    econf: EngineConfig,
    workload: list[tuple],
    plan: FaultPlan,
    obs: Observability,
) -> tuple[ScheduleResult, FaultInjector]:
    injector = FaultInjector(plan, obs)
    store = build_store(econf)
    injector.install(store)
    result = ScheduleResult(
        seed=plan.seed, schedule=plan.describe(), crashed=False
    )
    model: dict[int, Any] = {}
    touched: dict[int, Any] | None = None
    with crashpoints.activated(injector):
        for op in workload:
            effects = _op_effects(op)
            try:
                _apply_op(store, op)
            except InjectedCrash:
                result.crashed = True
                touched = effects
                break
            model.update(effects)
    if not result.crashed:
        # Candidates come from the trace's own counts, so a schedule
        # that never fires means the injector lost determinism.
        result.violations.append(
            str(
                Violation(
                    "harness",
                    f"scheduled crash never fired ({plan.describe()})",
                )
            )
        )
        return result, injector
    state = store.crash()
    _clear_faults(state)
    checker = InvariantChecker()
    try:
        recovered = recover_store(state, econf)
        result.violations.extend(
            str(v)
            for v in checker.check_state(
                recovered, merge_expected(model, touched)
            )
        )
        result.violations.extend(
            str(v) for v in checker.check_structure(recovered)
        )
    except Exception as exc:  # noqa: BLE001 — a raising recovery IS the bug
        result.violations.append(
            str(
                Violation(
                    "recovery",
                    f"recovery raised {type(exc).__name__}: {exc}",
                )
            )
        )
    return result, injector


# ----------------------------------------------------------------------
# Group-commit schedule (asyncio)
# ----------------------------------------------------------------------

async def _group_commit_schedule(
    cfg: FaultcheckConfig,
    econf: EngineConfig,
    seed: int,
    obs: Observability,
) -> tuple[ScheduleResult, FaultInjector]:
    """Concurrent submissions through the group-commit writer with a
    crash between WAL append and acknowledgement. The contract under
    test: a submission whose future resolved cleanly is durable, full
    stop; one that got an exception may be in either state."""
    from repro.server.group_commit import GroupCommitWriter

    plan = FaultPlan(
        seed=seed,
        crash_kind=CRASH_AT_POINT,
        crash_point_name="group_commit.before_ack",
        crash_occurrence=2,
    )
    injector = FaultInjector(plan, obs)
    store = build_store(econf)
    injector.install(store)
    result = ScheduleResult(
        seed=seed, schedule="group-commit " + plan.describe(), crashed=False
    )
    rng = random.Random(f"group-commit:{seed}")
    first = [(key, f"gc{seed}-{key}") for key in range(6)]
    first.append((6, _raw_bytes(rng)))
    second: list[tuple[int, Any]] = [
        (0, TOMBSTONE),
        (1, _raw_bytes(rng)),
        (7, f"late-{seed}"),
    ]
    submissions = first + second
    with crashpoints.activated(injector):
        writer = GroupCommitWriter(store)
        writer.start()
        outcomes = list(
            await asyncio.gather(
                *(writer.submit([item]) for item in first),
                return_exceptions=True,
            )
        )
        outcomes.extend(
            await asyncio.gather(
                *(writer.submit([item]) for item in second),
                return_exceptions=True,
            )
        )
        await writer.close()
    result.crashed = injector.crashed
    model: dict[int, Any] = {}
    touched: dict[int, Any] = {}
    for (key, value), outcome in zip(submissions, outcomes):
        if isinstance(outcome, BaseException):
            touched[key] = value
        else:
            model[key] = value
    state = store.crash()
    _clear_faults(state)
    checker = InvariantChecker()
    try:
        recovered = recover_store(state, econf)
        result.violations.extend(
            str(v)
            for v in checker.check_state(
                recovered, merge_expected(model, touched)
            )
        )
        result.violations.extend(
            str(v) for v in checker.check_structure(recovered)
        )
    except Exception as exc:  # noqa: BLE001 — a raising recovery IS the bug
        result.violations.append(
            str(
                Violation(
                    "recovery",
                    f"recovery raised {type(exc).__name__}: {exc}",
                )
            )
        )
    return result, injector


# ----------------------------------------------------------------------
# Migration schedule (crash during a live filter migration)
# ----------------------------------------------------------------------

_MIGRATION_POINTS = (
    "tuning.migrate.before_build",
    "tuning.migrate.mid_build",
    "tuning.migrate.before_swap",
    "tuning.migrate.after_swap",
    "tuning.switch.before_commit",  # crashed merge-policy switch
)


def _migration_schedule(
    cfg: FaultcheckConfig,
    econf: EngineConfig,
    seed: int,
    workload: list[tuple],
    obs: Observability,
) -> tuple[ScheduleResult, FaultInjector]:
    """Crash a live retune at one of the ``tuning.*`` crash points.

    The workload runs crash-free first (so the model is exact), then the
    actuator performs a live change with a crash scheduled at the seed's
    rotating point: a filter migration to the *other* filter family for
    the four ``tuning.migrate.*`` points, or a merge-policy switch (the
    store-wide major compaction) for ``tuning.switch.before_commit``. A
    crash strictly before the swap/commit must recover under the **old**
    config; after the swap under the **new** one — either way the filter
    is soft state and recovery falls back to rebuilding it from the
    runs, and the old manifest-plus-orphans ordering protects the merge
    switch. Transient I/O is disabled here: the schedule isolates the
    tuning crash points.
    """
    from dataclasses import replace as dc_replace

    from repro.tuning.actuator import migrate_filter, switch_merge_policy

    target = "bloom" if econf.policy.startswith("chucky") else "chucky"
    point = _MIGRATION_POINTS[seed % len(_MIGRATION_POINTS)]
    plan = FaultPlan(
        seed=seed,
        crash_kind=CRASH_AT_POINT,
        crash_point_name=point,
        crash_occurrence=1,
        transient_rate=0.0,
    )
    injector = FaultInjector(plan, obs)
    store = build_store(econf)
    injector.install(store)
    result = ScheduleResult(
        seed=seed, schedule="migration " + plan.describe(), crashed=False
    )
    model: dict[int, Any] = {}
    swapped = False
    with crashpoints.activated(injector):
        for op in workload:
            _apply_op(store, op)
            model.update(_op_effects(op))
        try:
            if point == "tuning.switch.before_commit":
                # Flip K (and keep Z) so the switch rebuilds a genuinely
                # different geometry; the crash fires before any shard's
                # new manifest commits, so recovery stays on the old one.
                switch_merge_policy(
                    store,
                    dc_replace(
                        econf,
                        runs_per_level=(
                            1 if econf.runs_per_level > 1 else 2
                        ),
                    ),
                )
            else:
                migrate_filter(store, target, econf.bits_per_entry)
            swapped = True
        except InjectedCrash:
            result.crashed = True
            # after_swap fires once shard 0's swap is already in
            # memory; its durable state is still blob-compatible with
            # either policy, but the "what crashed" config is the new
            # one.
            swapped = point == "tuning.migrate.after_swap"
    if not result.crashed:
        result.violations.append(
            str(
                Violation(
                    "harness",
                    f"scheduled migration crash never fired "
                    f"({plan.describe()})",
                )
            )
        )
        return result, injector
    recover_conf = dc_replace(econf, policy=target) if swapped else econf
    state = store.crash()
    _clear_faults(state)
    checker = InvariantChecker()
    try:
        recovered = recover_store(state, recover_conf)
        result.violations.extend(
            str(v)
            for v in checker.check_state(recovered, merge_expected(model))
        )
        result.violations.extend(
            str(v) for v in checker.check_structure(recovered)
        )
    except Exception as exc:  # noqa: BLE001 — a raising recovery IS the bug
        result.violations.append(
            str(
                Violation(
                    "recovery",
                    f"recovery after migration crash raised "
                    f"{type(exc).__name__}: {exc}",
                )
            )
        )
    return result, injector


# ----------------------------------------------------------------------
# Campaign driver
# ----------------------------------------------------------------------

def run_faultcheck(
    cfg: FaultcheckConfig, observability: Observability | None = None
) -> FaultcheckReport:
    """Run the whole campaign: for each seed, one trace run, up to
    ``schedules_per_seed`` crash schedules, and (optionally) one
    group-commit schedule and one crashed-filter-migration schedule.
    Deterministic in ``cfg``."""
    obs = observability if observability is not None else NULL_OBS
    report = FaultcheckReport(
        preset=cfg.preset,
        policy=cfg.policy,
        shards=cfg.shards,
        seeds=cfg.seeds,
    )
    econf = cfg.engine_config()
    for seed in range(cfg.seeds):
        workload = make_workload(seed, cfg.ops)
        trace_result, info, injector = _trace_run(
            cfg, econf, seed, workload, obs
        )
        report.results.append(trace_result)
        _absorb(report, injector)
        for plan in _choose_plans(cfg, seed, _candidate_plans(cfg, seed, info)):
            result, injector = _crash_run(cfg, econf, workload, plan, obs)
            report.results.append(result)
            _absorb(report, injector)
        if cfg.group_commit:
            result, injector = asyncio.run(
                _group_commit_schedule(cfg, econf, seed, obs)
            )
            report.results.append(result)
            _absorb(report, injector)
        if cfg.migration:
            result, injector = _migration_schedule(
                cfg, econf, seed, workload, obs
            )
            report.results.append(result)
            _absorb(report, injector)
    return report


def _absorb(report: FaultcheckReport, injector: FaultInjector) -> None:
    report.crashes_injected += 1 if injector.crashed else 0
    report.transient_errors += injector.transient_errors
    report.io_backoffs += injector.backoffs
    plan = injector.plan
    if injector.crashed and plan.crash_kind == CRASH_IN_WAL_APPEND:
        report.torn_wal_appends += 1
    if injector.crashed and plan.crash_kind == CRASH_IN_RUN_WRITE:
        report.partial_run_writes += 1
    for name, count in injector.point_counts.items():
        report.crash_points_seen[name] = (
            report.crash_points_seen.get(name, 0) + count
        )
