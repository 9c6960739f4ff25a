"""The crash-schedule explorer behind ``repro faultcheck``, and the one
schedule skeleton both crash campaigns run.

Every schedule is :func:`_run_schedule` around one *drive* function and
one system under test: start it, arm the injector, drive with the crash
points active, bring the survivor back on a healthy machine, judge its
reads of every expected key with the one oracle
(:meth:`~repro.faults.invariants.InvariantChecker.check_reads`), then
run its structure check. A recovery that *raises* on a legal crash
state is a violation too: exactly the bug class this harness exists to
catch. The store adapter is :class:`_StoreUnderTest`; the cluster's is
in :mod:`repro.cluster.faultcheck` (this package never imports it).

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

The result and report types here also carry the cluster campaign.
Everything is deterministic in (config, seed): same inputs, same
workload, same faults, same verdict.
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
from repro.faults import crashpoints
from repro.faults.injector import (
    CRASH_AT_POINT,
    CRASH_IN_RUN_WRITE,
    CRASH_IN_WAL_APPEND,
    FaultInjector,
    FaultPlan,
)
from repro.faults.invariants import InvariantChecker, Violation
from repro.lsm.entry import TOMBSTONE
from repro.obs import NULL_OBS, Observability
from repro.workloads.ops import KeyModel, Op, apply


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
        # policy) or a campaign whose gate would be vacuous, before it
        # prints anything. The cluster campaign's seeds are checked here
        # too.
        self.engine_config()
        for name, low in (("seeds", 1), ("ops", 1), ("schedules_per_seed", 0)):
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if not 0.0 <= self.transient_rate <= 1.0:
            raise ValueError(
                f"transient_rate must be in [0, 1], got {self.transient_rate}"
            )

    def engine_config(self) -> EngineConfig:
        """A deliberately tiny geometry: a few dozen ops must exercise
        flushes, merge cascades, spills and cache traffic. Every cluster
        node's shards use it too."""
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

    def banner(self) -> str:
        """The line ``repro faultcheck`` prints before the campaign."""
        return (
            f"faultcheck: {self.seeds} seeds x "
            f"(1 trace + {self.schedules_per_seed} crash schedules"
            f"{' + 1 group-commit schedule' if self.group_commit else ''}"
            f"{' + 1 migration schedule' if self.migration else ''}), "
            f"preset={self.preset} policy={self.policy} shards={self.shards} "
            f"ops={self.ops} transient_rate={self.transient_rate:g}"
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


def make_workload(seed: int, ops: int) -> list[Op]:
    """A deterministic op list: puts (``update``; str *and* non-UTF-8
    bytes values, some ``put_ttl`` with a far-future expiry), deletes,
    atomic batches (with embedded tombstones), reads, and the occasional
    explicit flush. The final op is always a put of a non-UTF-8
    ``bytes`` value, so a crash at end-of-workload always has a bytes
    record in the WAL tail — the exact payload the original replay bug
    corrupted."""
    rng = random.Random(f"workload:{seed}")
    workload: list[Op] = []
    for _ in range(max(1, ops - 1)):
        roll = rng.random()
        key = rng.randrange(_KEY_SPACE)
        if roll < 0.40:
            value = f"s{seed}-{rng.randrange(1000)}"
            if rng.random() < 0.25:
                workload.append(Op("put_ttl", key, value, ttl=_FAR_TTL))
            else:
                workload.append(Op("update", key, value))
        elif roll < 0.55:
            if rng.random() < 0.25:
                workload.append(
                    Op("put_ttl", key, _raw_bytes(rng), ttl=_FAR_TTL)
                )
            else:
                workload.append(Op("update", key, _raw_bytes(rng)))
        elif roll < 0.70:
            workload.append(Op("delete", key))
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
            workload.append(Op("batch", items=tuple(items)))
        elif roll < 0.95:
            workload.append(Op("read", key))
        else:
            workload.append(Op("flush"))
    workload.append(Op("update", rng.randrange(_KEY_SPACE), _raw_bytes(rng)))
    return workload


def _raw_bytes(rng: random.Random) -> bytes:
    """A value that is guaranteed not to decode as UTF-8."""
    return b"\xff\xfe" + bytes(rng.randrange(256) for _ in range(3))


# ----------------------------------------------------------------------
# The schedule skeleton
# ----------------------------------------------------------------------

class _StoreUnderTest:
    """A single-node store (one shard or hash-sharded) behind the
    skeleton. ``config`` builds it and is the config the survivor
    recovers under: a drive that crashes a live retune after its swap
    moves it to the new one."""

    def __init__(self, config: EngineConfig) -> None:
        self.config = config
        self.model = KeyModel()
        self.store = None

    async def start(self, injector: FaultInjector) -> None:
        self.store = build_store(self.config)
        injector.install(self.store)

    async def recover(self) -> None:
        """Crash, then recover on a healthy machine: the state's
        storage snapshot carries no fault hook (the device rebooted)."""
        self.store = recover_store(self.store.crash(), self.config)

    async def get(self, key: int) -> Any:
        return self.store.get(key)

    async def check_structure(self) -> list[Violation]:
        return InvariantChecker().check_structure(self.store)

    async def close(self) -> None:
        pass


async def _run_schedule(
    sut,
    plan: FaultPlan,
    label: str,
    drive,
    obs: Observability = NULL_OBS,
) -> tuple[ScheduleResult, FaultInjector]:
    """Every schedule of both campaigns is this skeleton.

    ``sut`` is the system under test: ``start(injector)``, ``recover()``
    (bring the survivor back on a healthy machine), ``get(key)``,
    ``check_structure()`` and ``close()``, all awaitable, plus the
    :class:`~repro.workloads.ops.KeyModel` (``model``) the drive fills
    in.
    ``drive(sut, injector, violations)`` runs with the crash points
    active until it ends or the scheduled crash interrupts it; the
    injector decides whether the crash fired.
    """
    injector = FaultInjector(plan, obs)
    result = ScheduleResult(seed=plan.seed, schedule=label)
    try:
        await sut.start(injector)
        with crashpoints.activated(injector):
            await drive(sut, injector, result.violations)
        result.crashed = injector.crashed
        if plan.crash_kind is None:
            # A crash-free run: the live system must match the model
            # before it is even crashed (every op was acknowledged).
            result.violations += await _check_reads(sut)
        elif not result.crashed:
            # Crash sites come from a trace's own counts (or fire on
            # every run), so a schedule that never fires means the
            # injector lost determinism.
            never = f"scheduled crash never fired ({plan.describe()})"
            result.violations.append(str(Violation("harness", never)))
            return result, injector
        try:
            await sut.recover()
            result.violations += await _check_reads(sut)
            result.violations.extend(
                str(v) for v in await sut.check_structure()
            )
        except Exception as exc:  # noqa: BLE001 — a raising recovery IS the bug
            raised = f"recovery raised {type(exc).__name__}: {exc}"
            result.violations.append(str(Violation("recovery", raised)))
        return result, injector
    finally:
        await sut.close()


async def _check_reads(sut) -> list[str]:
    """Read every key of ``sut``'s model back through ``sut`` and judge
    the reads with the one oracle. A read that raises is that key's
    violation."""
    expectations = sut.model.expectations()
    reads: dict[int, Any] = {}
    for key in expectations:
        try:
            reads[key] = await sut.get(key)
        except Exception as exc:  # noqa: BLE001 — unreadable is lost
            reads[key] = exc
    return [
        str(v) for v in InvariantChecker().check_reads(reads, expectations)
    ]


# ----------------------------------------------------------------------
# Drive functions
# ----------------------------------------------------------------------

async def _drive_workload(
    workload: list[Op],
    sut: _StoreUnderTest,
    injector: FaultInjector,
    violations: list[str],
) -> None:
    """Replay the seeded workload, validating reads against the model
    on the fly, until it ends or the scheduled crash interrupts an
    operation. With no crash scheduled this is the **trace run**: only
    transient I/O errors (absorbed by retry-with-backoff), after which
    the injector's firing counts are the candidate crash sites."""
    model = sut.model
    for op in workload:
        try:
            value = apply(sut.store, op)
        except InjectedCrash:
            model.unacked(op)
            return
        if op.kind == "read":
            violations.extend(
                str(v)
                for v in InvariantChecker().check_reads(
                    {op.key: value}, {op.key: model.allowed(op.key)}
                )
            )
        model.ack(op)


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


async def _drive_group_commit(
    seed: int,
    sut: _StoreUnderTest,
    injector: FaultInjector,
    violations: list[str],
) -> None:
    """Concurrent submissions through the group-commit writer with a
    crash between WAL append and acknowledgement. The contract under
    test: a submission whose ``submit`` returned cleanly is durable,
    full stop; one that raised may be in either state."""
    from repro.server.group_commit import GroupCommitWriter

    rng = random.Random(f"group-commit:{seed}")
    first = [(key, f"gc{seed}-{key}") for key in range(6)]
    first.append((6, _raw_bytes(rng)))
    second: list[tuple[int, Any]] = [
        (0, TOMBSTONE),
        (1, _raw_bytes(rng)),
        (7, f"late-{seed}"),
    ]
    writer = GroupCommitWriter(sut.store)
    outcomes = []
    for wave in (first, second):
        outcomes.extend(
            await asyncio.gather(
                *(writer.submit([item]) for item in wave),
                return_exceptions=True,
            )
        )
    await writer.close()
    for item, outcome in zip(first + second, outcomes):
        op = Op("batch", items=(item,))
        if isinstance(outcome, BaseException):
            sut.model.unacked(op)
        else:
            sut.model.ack(op)


_MIGRATION_POINTS = (
    "tuning.migrate.before_build",
    "tuning.migrate.mid_build",
    "tuning.migrate.before_swap",
    "tuning.migrate.after_swap",
    "tuning.switch.before_commit",  # crashed merge-policy switch
)


async def _drive_migration(
    workload: list[Op],
    point: str,
    sut: _StoreUnderTest,
    injector: FaultInjector,
    violations: list[str],
) -> None:
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

    await _drive_workload(workload, sut, injector, violations)
    econf = sut.config
    target = "bloom" if econf.policy.startswith("chucky") else "chucky"
    try:
        if point == "tuning.switch.before_commit":
            # Flip K (and keep Z) so the switch rebuilds a genuinely
            # different geometry; the crash fires before any shard's
            # new manifest commits, so recovery stays on the old one.
            switch_merge_policy(
                sut.store,
                dc_replace(
                    econf,
                    runs_per_level=1 if econf.runs_per_level > 1 else 2,
                ),
            )
        else:
            migrate_filter(sut.store, target, econf.bits_per_entry)
    except InjectedCrash:
        # after_swap fires once shard 0's swap is already in memory;
        # its durable state is still blob-compatible with either
        # policy, but the "what crashed" config is the new one.
        if point == "tuning.migrate.after_swap":
            sut.config = dc_replace(econf, policy=target)


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
        result, injector = asyncio.run(
            _run_schedule(_StoreUnderTest(econf), plan, label, drive, obs)
        )
        report.results.append(result)
        _absorb(report.counters, injector)
        return injector

    for seed in range(cfg.seeds):
        workload = make_workload(seed, cfg.ops)
        replay = partial(_drive_workload, workload)
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
                partial(_drive_group_commit, seed),
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
                partial(_drive_migration, workload, point),
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
