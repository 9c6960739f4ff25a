"""The crash-schedule explorer behind ``repro faultcheck``.

Every schedule is one skeleton (:func:`_run_schedule`) around one
*drive* function: build a store, arm the fault injector, drive it with
the crash points active, crash, recover on a healthy machine, then run
the full :class:`~repro.faults.invariants.InvariantChecker` battery —
acknowledged writes durable, deleted keys dead, the interrupted
operation in its before-or-after state, and the structural invariants.
A recovery that *raises* on a legal crash state is a violation too:
exactly the bug class this harness exists to catch.

For every seed the explorer runs a CrashMonkey-style two-phase search
over the seeded workload (:func:`_drive_workload`):

1. **Trace run** — no crash scheduled, only transient I/O errors (which
   the engine must absorb via bounded retry-with-backoff). Reads are
   validated against a reference model on the fly; at the end the store
   is crashed *clean* and recovered, which must reproduce the model
   exactly — including ``bytes`` values round-tripping through the WAL.
   The trace also counts how often every crash point, WAL append and
   run write fired: the candidate crash sites.

2. **Crash schedules** — a deterministic sample of those candidates is
   re-run, each crashing at its chosen site (a registered crash point,
   a byte-granular torn WAL append, or a partial multi-block run
   write).

Optionally each seed also runs one asyncio group-commit schedule
(:func:`_drive_group_commit`): concurrent submissions through
:class:`GroupCommitWriter`, a crash between WAL append and
acknowledgement, and the check that every acknowledged submission
survived recovery.

And one **migration schedule** per seed (:func:`_drive_migration`): the
workload runs to completion, then a live filter migration (the
adaptive-tuning actuator's incremental rebuild + atomic swap) is crashed
at one of the ``tuning.migrate.*`` points, rotating with the seed.
Filters are soft state, so recovery must succeed and match the model
under the old config for a crash before the swap and under the new
config after it — the blob-mismatch-falls-back-to-rebuild path is
exactly what these schedules pin down.

The result and report types here also carry the cluster campaign
(:mod:`repro.cluster.faultcheck`). Everything is deterministic in
(config, seed): same inputs, same workload, same faults, same verdict.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from functools import partial
from typing import Any

from repro.common.errors import InjectedCrash
from repro.engine.config import EngineConfig, build_store, recover_store
from repro.engine.sharded import shards_of
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
        # Fail fast on a store that cannot be built (preset, shards,
        # policy), before a campaign prints anything.
        self.engine_config()
        if self.seeds < 1:
            raise ValueError(f"seeds must be >= 1, got {self.seeds}")

    def engine_config(self) -> EngineConfig:
        """A deliberately tiny geometry: a few dozen ops must exercise
        flushes, merge cascades, spills and cache traffic."""
        return EngineConfig.preset(
            self.preset,
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
    """Verdict of one explored schedule. ``schedule`` labels it in
    violation messages; a campaign that reports structured fields
    instead of the label (the cluster campaign: point, occurrence,
    victim, acked writes) supplies them as ``detail``."""

    seed: int
    schedule: str
    crashed: bool = False
    violations: list[str] = field(default_factory=list)
    detail: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            **(self.detail or {"schedule": self.schedule}),
            "crashed": self.crashed,
            "violations": list(self.violations),
        }


@dataclass
class FaultcheckReport:
    """Aggregate outcome of a campaign — the CI artifact. ``params``
    (what was asked for) and ``counters`` (what the schedules did) are
    the campaign's own; both are flattened into :meth:`as_dict`."""

    campaign: str
    params: dict[str, Any]
    counters: dict[str, Any]
    results: list[ScheduleResult] = field(default_factory=list)

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

    def _totals(self) -> dict[str, Any]:
        return {
            **self.params,
            "schedules_run": len(self.results),
            **self.counters,
        }

    def as_dict(self) -> dict[str, Any]:
        return {
            **self._totals(),
            "ok": self.ok,
            "violations": self.violations,
            "results": [r.as_dict() for r in self.results],
        }

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        return f"{self.campaign} {status}: " + " ".join(
            f"{name}={len(value) if isinstance(value, dict) else value}"
            for name, value in self._totals().items()
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
    for shard_state in shards_of(state):
        shard_state.storage.faults = None


# ----------------------------------------------------------------------
# The schedule skeleton
# ----------------------------------------------------------------------

def _run_schedule(
    econf: EngineConfig,
    plan: FaultPlan,
    label: str,
    drive,
    obs: Observability,
) -> tuple[ScheduleResult, FaultInjector]:
    """Every schedule is this skeleton around one *drive* function.

    Build a store, arm the injector, and call ``drive(store, injector,
    violations)`` with the crash points active. It returns ``(model,
    touched, crashed, recover_config)``: each key's value after the last
    acknowledged operation, the would-be effects of whatever the crash
    interrupted (those keys may read before *or* after), whether the
    scheduled crash fired, and the config the survivor recovers under.
    Then the store is crashed, recovered on a healthy machine and put
    through the invariant battery; a recovery that *raises* on a legal
    crash state is itself a violation.
    """
    injector = FaultInjector(plan, obs)
    store = build_store(econf)
    injector.install(store)
    result = ScheduleResult(seed=plan.seed, schedule=label)
    checker = InvariantChecker()
    with crashpoints.activated(injector):
        model, touched, result.crashed, recover_conf = drive(
            store, injector, result.violations
        )
    if plan.crash_kind is None:
        # A crash-free run: the live store must match the model before
        # it is even crashed (cleanly — every op was acknowledged).
        result.violations.extend(
            str(v) for v in checker.check_state(store, merge_expected(model))
        )
    elif not result.crashed:
        # Crash sites come from a trace's own counts (or fire on every
        # run), so a schedule that never fires means the injector lost
        # determinism.
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
    try:
        recovered = recover_store(state, recover_conf)
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
# Drive functions
# ----------------------------------------------------------------------

def _drive_workload(
    econf: EngineConfig,
    workload: list[tuple],
    store,
    injector: FaultInjector,
    violations: list[str],
):
    """Replay the seeded workload, validating reads against the model
    on the fly, until it ends or the scheduled crash interrupts an
    operation. With no crash scheduled this is the **trace run**: only
    transient I/O errors (absorbed by retry-with-backoff), after which
    the injector's firing counts are the candidate crash sites."""
    model: dict[int, Any] = {}
    for op in workload:
        effects = _op_effects(op)
        try:
            value = _apply_op(store, op)
        except InjectedCrash:
            return model, effects, True, econf
        if op[0] == "get":
            expected = _model_value(model, op[1])
            if value != expected or type(value) is not type(expected):
                violations.append(
                    str(
                        Violation(
                            "read-your-writes",
                            f"get({op[1]}) returned {value!r}, model "
                            f"says {expected!r}",
                        )
                    )
                )
        model.update(effects)
    return model, None, False, econf


def _candidate_plans(
    cfg: FaultcheckConfig, seed: int, trace: FaultInjector
) -> list[FaultPlan]:
    """Every crash site the trace run observed, as a concrete plan:
    each firing of each crash point, then each WAL append (torn at a
    byte), then each run write (cut at a block)."""
    sites = [
        (CRASH_AT_POINT, name, count)
        for name, count in sorted(trace.point_counts.items())
    ]
    sites.append((CRASH_IN_WAL_APPEND, None, trace.wal_appends))
    sites.append((CRASH_IN_RUN_WRITE, None, trace.run_writes))
    return [
        FaultPlan(
            seed=seed,
            crash_kind=kind,
            crash_point_name=name,
            crash_occurrence=occurrence,
            transient_rate=cfg.transient_rate,
        )
        for kind, name, count in sites
        for occurrence in range(1, count + 1)
    ]


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


def _drive_group_commit(
    econf: EngineConfig,
    seed: int,
    store,
    injector: FaultInjector,
    violations: list[str],
):
    """Concurrent submissions through the group-commit writer with a
    crash between WAL append and acknowledgement. The contract under
    test: a submission whose future resolved cleanly is durable, full
    stop; one that got an exception may be in either state."""
    from repro.server.group_commit import GroupCommitWriter

    rng = random.Random(f"group-commit:{seed}")
    first = [(key, f"gc{seed}-{key}") for key in range(6)]
    first.append((6, _raw_bytes(rng)))
    second: list[tuple[int, Any]] = [
        (0, TOMBSTONE),
        (1, _raw_bytes(rng)),
        (7, f"late-{seed}"),
    ]

    async def submit_all() -> list:
        writer = GroupCommitWriter(store)
        writer.start()
        outcomes = []
        for wave in (first, second):
            outcomes.extend(
                await asyncio.gather(
                    *(writer.submit([item]) for item in wave),
                    return_exceptions=True,
                )
            )
        await writer.close()
        return outcomes

    model: dict[int, Any] = {}
    touched: dict[int, Any] = {}
    for (key, value), outcome in zip(first + second, asyncio.run(submit_all())):
        if isinstance(outcome, BaseException):
            touched[key] = value
        else:
            model[key] = value
    return model, touched, injector.crashed, econf


_MIGRATION_POINTS = (
    "tuning.migrate.before_build",
    "tuning.migrate.mid_build",
    "tuning.migrate.before_swap",
    "tuning.migrate.after_swap",
    "tuning.switch.before_commit",  # crashed merge-policy switch
)


def _drive_migration(
    econf: EngineConfig,
    workload: list[tuple],
    point: str,
    store,
    injector: FaultInjector,
    violations: list[str],
):
    """Crash a live retune at one of the ``tuning.*`` crash points.

    The workload runs crash-free first (so the model is exact), then the
    actuator performs a live change with the crash scheduled at
    ``point``: a filter migration to the *other* filter family for the
    four ``tuning.migrate.*`` points, or a merge-policy switch (the
    store-wide major compaction) for ``tuning.switch.before_commit``. A
    crash strictly before the swap/commit must recover under the **old**
    config; after the swap under the **new** one — either way the filter
    is soft state and recovery falls back to rebuilding it from the
    runs, and the old manifest-plus-orphans ordering protects the merge
    switch.
    """
    from repro.tuning.actuator import migrate_filter, switch_merge_policy

    model, _, _, _ = _drive_workload(
        econf, workload, store, injector, violations
    )
    target = "bloom" if econf.policy.startswith("chucky") else "chucky"
    try:
        if point == "tuning.switch.before_commit":
            # Flip K (and keep Z) so the switch rebuilds a genuinely
            # different geometry; the crash fires before any shard's
            # new manifest commits, so recovery stays on the old one.
            switch_merge_policy(
                store,
                dc_replace(
                    econf,
                    runs_per_level=1 if econf.runs_per_level > 1 else 2,
                ),
            )
        else:
            migrate_filter(store, target, econf.bits_per_entry)
    except InjectedCrash:
        # after_swap fires once shard 0's swap is already in memory;
        # its durable state is still blob-compatible with either
        # policy, but the "what crashed" config is the new one.
        if point == "tuning.migrate.after_swap":
            return model, None, True, dc_replace(econf, policy=target)
        return model, None, True, econf
    return model, None, False, econf


# ----------------------------------------------------------------------
# Campaign driver
# ----------------------------------------------------------------------

def run_faultcheck(
    cfg: FaultcheckConfig, observability: Observability | None = None
) -> FaultcheckReport:
    """Run the whole campaign: for each seed, one trace run, up to
    ``schedules_per_seed`` crash schedules replaying the same workload
    into a crash site the trace observed, and (optionally) one
    group-commit schedule and one crashed-retune schedule whose point
    rotates with the seed (transient I/O off: it isolates the tuning
    crash points). Deterministic in ``cfg``."""
    obs = observability if observability is not None else NULL_OBS
    report = FaultcheckReport(
        campaign="faultcheck",
        params={
            "preset": cfg.preset,
            "policy": cfg.policy,
            "shards": cfg.shards,
            "seeds": cfg.seeds,
        },
        counters={
            "crashes_injected": 0,
            "transient_errors": 0,
            "io_backoffs": 0,
            "torn_wal_appends": 0,
            "partial_run_writes": 0,
            "crash_points_seen": {},
        },
    )
    econf = cfg.engine_config()

    def explore(plan: FaultPlan, label: str, drive) -> FaultInjector:
        result, injector = _run_schedule(econf, plan, label, drive, obs)
        report.results.append(result)
        _absorb(report.counters, injector)
        return injector

    for seed in range(cfg.seeds):
        workload = make_workload(seed, cfg.ops)
        replay = partial(_drive_workload, econf, workload)
        trace = explore(
            FaultPlan(seed=seed, transient_rate=cfg.transient_rate),
            "trace",
            replay,
        )
        for plan in _choose_plans(cfg, seed, _candidate_plans(cfg, seed, trace)):
            explore(plan, plan.describe(), replay)
        if cfg.group_commit:
            plan = FaultPlan(
                seed=seed,
                crash_kind=CRASH_AT_POINT,
                crash_point_name="group_commit.before_ack",
                crash_occurrence=2,
            )
            explore(
                plan,
                "group-commit " + plan.describe(),
                partial(_drive_group_commit, econf, seed),
            )
        if cfg.migration:
            point = _MIGRATION_POINTS[seed % len(_MIGRATION_POINTS)]
            plan = FaultPlan(
                seed=seed,
                crash_kind=CRASH_AT_POINT,
                crash_point_name=point,
            )
            explore(
                plan,
                "migration " + plan.describe(),
                partial(_drive_migration, econf, workload, point),
            )
    report.counters["crash_points_seen"] = dict(
        sorted(report.counters["crash_points_seen"].items())
    )
    return report


def _absorb(counters: dict[str, Any], injector: FaultInjector) -> None:
    counters["transient_errors"] += injector.transient_errors
    counters["io_backoffs"] += injector.backoffs
    if injector.crashed:
        counters["crashes_injected"] += 1
        kind = injector.plan.crash_kind
        counters["torn_wal_appends"] += kind == CRASH_IN_WAL_APPEND
        counters["partial_run_writes"] += kind == CRASH_IN_RUN_WRITE
    seen = counters["crash_points_seen"]
    for name, count in injector.point_counts.items():
        seen[name] = seen.get(name, 0) + count
