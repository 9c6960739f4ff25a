"""Seeded fault plans and the injector that executes them.

A :class:`FaultPlan` is pure data: one scheduled crash (at a named
crash point, inside the n-th WAL append, or inside the n-th multi-block
run write) plus a transient-I/O error rate. A :class:`FaultInjector`
executes the plan deterministically — same seed, same faults — while
counting everything it does into the observability registry.

The injector hooks into the engine three ways:

* :func:`repro.faults.crashpoints.activated` routes every
  ``crash_point`` firing through :meth:`FaultInjector.on_crash_point`;
* ``StorageDevice.faults`` routes every storage I/O through
  :meth:`on_io` (transient errors, absorbed by the device's bounded
  retry-with-backoff) and :meth:`partial_write` (torn multi-block run
  writes);
* :class:`FaultyWriteAheadLog` replaces a store's WAL so the n-th
  append can be torn at byte granularity.

After the first injected crash the "machine stays down": every further
crash point, storage I/O or WAL append raises immediately, so nothing
can mutate engine state between the crash and the harness capturing the
:class:`~repro.engine.kvstore.CrashState`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.common.errors import InjectedCrash, TransientIOError
from repro.engine.sharded import shards_of
from repro.lsm.wal import WriteAheadLog
from repro.obs import NULL_OBS, Observability

#: Schedule kinds a plan's single crash can target.
CRASH_AT_POINT = "point"
CRASH_IN_WAL_APPEND = "wal_append"
CRASH_IN_RUN_WRITE = "run_write"


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic fault schedule.

    Attributes:
        seed: drives every random decision the injector makes.
        crash_kind: ``None`` for a crash-free run, else one of
            :data:`CRASH_AT_POINT` / :data:`CRASH_IN_WAL_APPEND` /
            :data:`CRASH_IN_RUN_WRITE`.
        crash_point_name: the registered point name (point crashes only).
        crash_occurrence: 1-based firing of the chosen site to crash at.
        transient_rate: per-I/O probability of a transient error (the
            engine must absorb these via bounded retry-with-backoff).
        max_consecutive_errors: cap on back-to-back transient errors at
            one I/O, kept below the device's retry budget so "transient"
            stays an honest label.
    """

    seed: int
    crash_kind: str | None = None
    crash_point_name: str | None = None
    crash_occurrence: int = 1
    transient_rate: float = 0.0
    max_consecutive_errors: int = 2

    def describe(self) -> str:
        if self.crash_kind is None:
            return f"seed={self.seed} no-crash"
        site = (
            self.crash_point_name
            if self.crash_kind == CRASH_AT_POINT
            else self.crash_kind
        )
        return f"seed={self.seed} crash@{site}#{self.crash_occurrence}"


class FaultInjector:
    """Executes one :class:`FaultPlan` against a live store."""

    def __init__(
        self, plan: FaultPlan, observability: Observability | None = None
    ) -> None:
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.obs = observability if observability is not None else NULL_OBS
        #: crash-point name -> firings seen (the schedule explorer reads
        #: this off a crash-free trace run to enumerate candidates).
        self.point_counts: dict[str, int] = {}
        self.wal_appends = 0
        self.run_writes = 0
        self.transient_errors = 0
        self.backoffs = 0
        self.crashed = False
        self.crash_description: str | None = None
        self._consecutive = 0
        registry = self.obs.registry
        self._m_crashes = registry.counter(
            "fault_crashes_total", "injected machine crashes"
        )
        self._m_transient = registry.counter(
            "fault_transient_io_total", "injected transient I/O errors"
        )
        self._m_backoffs = registry.counter(
            "fault_io_backoffs_total", "retry backoffs taken by storage"
        )
        self._m_torn_wal = registry.counter(
            "fault_torn_wal_appends_total", "WAL appends torn mid-record"
        )
        self._m_partial_writes = registry.counter(
            "fault_partial_run_writes_total", "run writes torn mid-run"
        )

    # -- crash machinery -------------------------------------------------

    def note_crash(self, description: str) -> None:
        """Record that the machine just crashed (the caller raises the
        :class:`InjectedCrash`, e.g. after persisting a torn prefix);
        from here on the machine stays down."""
        self.crashed = True
        self.crash_description = description
        self._m_crashes.inc()
        with self.obs.tracer.span("fault_crash", detail=description):
            pass

    def _crash(self, description: str) -> None:
        self.note_crash(description)
        raise InjectedCrash(description)

    def _check_down(self) -> None:
        """Once crashed, the machine stays down: nothing may touch the
        engine until the harness captures the crash state."""
        if self.crashed:
            raise InjectedCrash(f"machine is down ({self.crash_description})")

    # -- crash-point arbiter (crashpoints.activated) ---------------------

    def on_crash_point(self, name: str) -> None:
        self._check_down()
        count = self.point_counts.get(name, 0) + 1
        self.point_counts[name] = count
        if (
            self.plan.crash_kind == CRASH_AT_POINT
            and self.plan.crash_point_name == name
            and self.plan.crash_occurrence == count
        ):
            self._crash(f"crash point {name} (firing {count})")

    # -- storage hook (StorageDevice.faults) -----------------------------

    def on_io(self, op: str, attempt: int) -> None:
        """Called before each storage I/O attempt; raising
        :class:`TransientIOError` makes the device back off and retry."""
        self._check_down()
        if self.plan.transient_rate <= 0.0:
            return
        if (
            self._consecutive < self.plan.max_consecutive_errors
            and self.rng.random() < self.plan.transient_rate
        ):
            self._consecutive += 1
            self.transient_errors += 1
            self._m_transient.inc()
            raise TransientIOError(f"injected transient error in {op}")
        self._consecutive = 0

    def on_backoff(self, op: str, attempt: int) -> None:
        """The device backing off before retrying ``op`` (modelled wait,
        no wall-clock sleep)."""
        self.backoffs += 1
        self._m_backoffs.inc()

    def partial_write(self, run_id: int, num_blocks: int) -> int | None:
        """How many blocks of this run write reach the device before a
        crash — or None to let the write through whole."""
        self._check_down()
        self.run_writes += 1
        if (
            self.plan.crash_kind == CRASH_IN_RUN_WRITE
            and self.plan.crash_occurrence == self.run_writes
            and num_blocks > 0
        ):
            keep = self.rng.randrange(num_blocks)
            self._m_partial_writes.inc()
            with self.obs.tracer.span(
                "fault_partial_write", run=run_id, kept=keep, of=num_blocks
            ):
                pass
            self.note_crash(
                f"partial run write: {keep}/{num_blocks} blocks of run "
                f"{run_id}"
            )
            return keep
        return None

    # -- WAL hook (FaultyWriteAheadLog) ----------------------------------

    def torn_append(self, record_len: int) -> int | None:
        """How many bytes of this WAL record hit the log before a crash
        — or None for an intact append. Byte granularity: any prefix,
        including zero bytes and the full header."""
        self._check_down()
        self.wal_appends += 1
        if (
            self.plan.crash_kind == CRASH_IN_WAL_APPEND
            and self.plan.crash_occurrence == self.wal_appends
            and record_len > 0
        ):
            keep = self.rng.randrange(record_len)
            self._m_torn_wal.inc()
            with self.obs.tracer.span(
                "fault_torn_wal", kept=keep, of=record_len
            ):
                pass
            self.note_crash(f"torn WAL append: {keep}/{record_len} bytes")
            return keep
        return None

    # -- wiring ----------------------------------------------------------

    def install(self, store) -> None:
        """Hook this injector into every shard of ``store`` (a
        :class:`~repro.engine.kvstore.KVStore` or
        :class:`~repro.engine.sharded.ShardedKVStore`): the storage
        device's fault hook plus a tearable WAL."""
        for shard in shards_of(store):
            shard.tree.storage.faults = self
            if shard.wal is not None:
                shard.wal = FaultyWriteAheadLog.adopt(shard.wal, self)


class FaultyWriteAheadLog(WriteAheadLog):
    """A WAL whose appends can be torn mid-record by the injector."""

    def __init__(self, injector: FaultInjector, **kwargs) -> None:
        super().__init__(**kwargs)
        self.injector = injector

    @classmethod
    def adopt(
        cls, base: WriteAheadLog, injector: FaultInjector
    ) -> "FaultyWriteAheadLog":
        """Wrap an existing log, sharing its buffer and counters."""
        return cls(
            injector,
            data=base.data,
            appended=base.appended,
            appended_bytes=base.appended_bytes,
            batch_records=base.batch_records,
        )

    def _write_record(self, record: bytes, count: int, batch: bool) -> None:
        keep = self.injector.torn_append(len(record))
        if keep is not None:
            # The crash interrupts the append: a byte-level prefix of
            # the record reaches the log, and the caller never returns
            # — so the write is never acknowledged.
            self.data.extend(record[:keep])
            raise InjectedCrash(
                f"torn WAL append: {keep}/{len(record)} bytes"
            )
        super()._write_record(record, count, batch)
