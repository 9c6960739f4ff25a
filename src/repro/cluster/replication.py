"""Leader-side WAL shipping: per-shard record logs and the replicated
group-commit writer.

The leader never re-encodes anything: a ``record_sink`` installed on
each led shard's WAL captures the exact framed bytes the engine
appended during ``put_batch``, and those bytes ship verbatim to every
follower, which re-verifies the checksum and appends them to its *own*
WAL through :meth:`~repro.engine.kvstore.KVStore.apply_wal_record`.
Byte-identical logs on both sides is the whole correctness story:
whatever a standalone store's recovery would do with this log, a
follower's recovery does too.

:class:`ReplicatedGroupCommitWriter` keeps the base class's coalescing
loop and apply path untouched and overrides only the ``_finish`` seam:
after a group is durable and applied on the leader, its captured
records ship to followers and the client futures resolve **only after
the acks come back** — "acked ⇒ durable beyond the leader". A group
whose records could not reach a single follower that was live *when
the round began* fails its waiters (the writes are durable locally but
were never acknowledged, so the invariant is preserved in the safe
direction); the pre-round snapshot matters, because the round that
marks the last follower dead must itself fail rather than resolve
against the now-empty live set.

Degraded mode is explicit, not accidental: once every follower of a
shard has been marked dead, later groups ack **single-copy** (there is
nobody left to wait for) — the ``cluster_dead_followers`` gauge and
each shard's ``dead_followers`` status field surface this, and the
condition persists until an operator restores a replica via handoff.

Replication sequences are per-shard, per-*epoch* counters: every
shard-map change that re-homes a shard resets them, because a new
leader's log starts empty and catch-up across terms is handled by the
handoff/promotion machinery (the new leader provably holds everything
acked), not by cross-term log arithmetic.
"""

from __future__ import annotations

import time
from typing import Awaitable, Callable

from repro.common.errors import ReproError
from repro.faults.crashpoints import crash_point
from repro.obs import NULL_OBS, Observability
from repro.server.group_commit import GroupCommitWriter


class ReplicationError(ReproError):
    """A group's records could not be acknowledged by any follower."""


class ReplicationLog:
    """One shard's in-memory record log with follower progress.

    Seq ``n`` (1-based) is the n-th record appended under the current
    leader/epoch. ``acked`` tracks each follower's highest contiguous
    applied seq — followers apply strictly in order, so acked ``n``
    means the follower holds records ``1..n``.
    """

    __slots__ = ("shard_id", "records", "acked")

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.records: list[bytes] = []
        self.acked: dict[str, int] = {}

    @property
    def last_seq(self) -> int:
        return len(self.records)

    def append(self, record: bytes) -> int:
        self.records.append(record)
        return len(self.records)

    def since(self, seq: int) -> list[tuple[int, bytes]]:
        """(seq, record) pairs with seq > ``seq``, in order."""
        return [
            (i + 1, self.records[i]) for i in range(seq, len(self.records))
        ]

    def ack(self, follower: str, seq: int) -> None:
        """Record the follower's contiguous applied count as reported
        by an epoch-matched response. Authoritative, not monotone: a
        follower that adopted a newer map may have reset its counter,
        and keeping an inflated ack would skip records it never held.
        """
        self.acked[follower] = seq

    def lag_of(self, follower: str) -> int:
        return self.last_seq - self.acked.get(follower, 0)

    def max_lag(self, followers: tuple[str, ...]) -> int:
        if not followers:
            return 0
        return max(self.lag_of(f) for f in followers)


#: Transport callback the writer ships through: given a shard id and
#: the records newly appended to its log, push them (plus any backlog
#: lagging followers still need) and return the number of followers
#: whose ack covers the log's current tail. The ClusterNode provides
#: the TCP implementation; tests can provide an in-process one.
ShipFn = Callable[[int], Awaitable[int]]


class ReplicatedGroupCommitWriter(GroupCommitWriter):
    """Group commit whose acks wait for follower replication."""

    def __init__(
        self,
        store,
        logs: dict[int, ReplicationLog],
        ship: ShipFn,
        followers_of: Callable[[int], tuple[str, ...]],
        max_batch: int = 512,
        observability: Observability | None = None,
    ) -> None:
        super().__init__(
            store, max_batch=max_batch, observability=observability
        )
        self.logs = logs
        self._ship = ship
        self._followers_of = followers_of
        self._captured: list[tuple[int, bytes]] = []
        #: Lifetime totals (plus metrics when obs is on).
        self.replicated_records = 0
        self.replication_failures = 0
        registry = self.obs.registry
        self._m_repl_records = registry.counter(
            "cluster_repl_records_total",
            "WAL records shipped to followers",
        )
        self._m_repl_failures = registry.counter(
            "cluster_repl_failures_total",
            "groups failed because no follower acknowledged",
        )
        self.install_sinks()

    # -- WAL capture ----------------------------------------------------

    def install_sinks(self) -> None:
        """(Re)install record sinks on every currently led shard's WAL.
        Called at construction and again after shard membership changes
        (handoff commit, promotion)."""
        for shard_id, shard in self.store.local.items():
            if shard.wal is None:
                continue
            if shard_id in self.logs:
                shard.wal.record_sink = self._make_sink(shard_id)
            else:
                shard.wal.record_sink = None

    def _make_sink(self, shard_id: int):
        def sink(record: bytes, count: int, batch: bool) -> None:
            self._captured.append((shard_id, record))

        return sink

    # -- the replicated ack seam ----------------------------------------

    def _apply(self, group) -> bool:
        self._captured = []
        return super()._apply(group)

    async def _finish(self, group) -> None:
        captured, self._captured = self._captured, []
        touched: list[int] = []
        for shard_id, record in captured:
            log = self.logs.get(shard_id)
            if log is None:
                # A record for a shard this node no longer leads (the
                # sink raced a membership change): nothing to ship, the
                # record is durable locally and the new leader owns the
                # shard's future.
                continue
            log.append(record)
            if shard_id not in touched:
                touched.append(shard_id)
        if touched:
            try:
                crash_point("cluster.replicate.before_send")
                await self._ship_round(group, touched, len(captured))
                crash_point("cluster.replicate.before_ack")
            except Exception as exc:  # noqa: BLE001 — waiters must learn
                self.replication_failures += 1
                self._m_repl_failures.inc()
                self._fail(group, exc)
                return
            self.replicated_records += len(captured)
            self._m_repl_records.inc(len(captured))
        self._resolve(group)

    async def _ship_round(self, group, touched: list[int], records: int) -> None:
        """Ship every touched shard's log, traced as one ``repl_group``
        span. The round awaits follower acks and the tracer's stack is
        never held across an await, so the span is measured here and
        filed finished — under the group's traced contexts the way
        ``group_commit`` is (the first hosts it, the rest get mirrors),
        so a sampled write's tree shows the replication it waited on."""
        tracer = self.obs.tracer
        start_ns = tracer.clock()
        wall0 = time.perf_counter_ns()
        error = None
        try:
            for shard_id in touched:
                # Snapshot the live set *before* shipping: the ship
                # round that discovers the last follower's death must
                # fail this group (its waiters were promised "durable
                # beyond the leader" against that set), not resolve OK
                # because the set it emptied is now consulted empty.
                live_before = self._followers_of(shard_id)
                acks = await self._ship(shard_id)
                if not acks and live_before:
                    # The "replication unavailable" prefix is the
                    # coordinator's retry cue (like BUSY): the next
                    # round runs against the post-death live set.
                    raise ReplicationError(
                        f"replication unavailable: no live follower "
                        f"of shard {shard_id} acknowledged the group "
                        f"(had {list(live_before)})"
                    )
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            fields = dict(
                start_ns=start_ns,
                duration_ns=tracer.clock() - start_ns,
                wall_ns=float(time.perf_counter_ns() - wall0),
                error=error,
                shards=len(touched),
                records=records,
            )
            ctxs = [ctx for _, _, _, ctx in group if ctx]
            trace_id, parent_id = ctxs[0] if ctxs else (0, 0)
            tracer.record(
                "repl_group", trace_id=trace_id, parent_id=parent_id, **fields
            )
            if ctxs:
                self._file_mirrors("repl_group", ctxs, **fields)
