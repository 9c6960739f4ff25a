"""Group commit: coalesce concurrent writes into atomic batches.

Every PUT/DELETE accepted by the server is submitted here instead of
hitting the store directly. A single writer task drains whatever has
accumulated since its last wake-up and applies it as **one**
``put_batch`` call — which the engine persists as one checksummed WAL
batch record per touched shard (PR 2's crash-atomic batch path). Under
concurrency this amortizes the WAL append across the whole group: N
clients writing together cost ~1 batch record per group instead of N
put records, which is the classic group-commit win.

Ordering and durability contract:

* submissions are applied in submission order (the queue is FIFO and
  the writer never reorders within a batch), so two pipelined writes
  to the same key from one connection resolve last-writer-wins exactly
  as they would against a bare store;
* a submission's future resolves only *after* ``put_batch`` returned,
  i.e. after the WAL record for its group was appended — an
  acknowledged write is always recoverable;
* if ``put_batch`` raises, every write in that group gets the error
  (none of them were acknowledged, none are partially applied: the
  engine's batch is all-or-nothing per shard).

The writer runs on the event loop like everything else; "concurrent"
writes are ones enqueued between two writer wake-ups. The server
enqueues a write straight from the connection callback that read it
(:meth:`GroupCommitWriter.enqueue`) and acknowledges it from the
future's callback, so no write has a task of its own.
``asyncio.sleep(0)`` after each wake deliberately yields one
scheduling round — one more poll of every socket — so that writes
already on the wire can join the forming group.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.faults.crashpoints import crash_point
from repro.obs import GROUP_COMMIT_BUCKETS, NULL_OBS, Observability

#: One queued write: (key, value, waiter, trace context or None).
Pending = tuple[int, Any, asyncio.Future, tuple[int, int] | None]


class GroupCommitWriter:
    """Single-consumer write coalescer in front of a store."""

    def __init__(
        self,
        store,
        max_batch: int = 512,
        observability: Observability | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.store = store
        self.max_batch = max_batch
        self.obs = observability if observability is not None else NULL_OBS
        #: Queued writes in submission order.
        self._pending: list[Pending] = []
        self._wake = asyncio.Event()
        self._closed = False
        self._task: asyncio.Task | None = None
        #: True while a popped group is mid apply/finish — such a group
        #: is in neither ``queue_depth`` nor the store yet, so drain
        #: loops must wait for both to clear.
        self.active = False
        #: The group currently mid apply/finish (None when idle);
        #: lets scoped drains (shard handoff) find in-flight waiters.
        self.inflight: list[Pending] | None = None
        #: Lifetime totals (also exported as metrics when obs is on).
        self.batches = 0
        self.items = 0
        self.failed_items = 0
        registry = self.obs.registry
        self._m_batches = registry.counter(
            "server_commit_batches_total", "group-commit batches applied"
        )
        self._m_items = registry.counter(
            "server_commit_items_total", "writes applied through group commit"
        )
        self._m_failed_items = registry.counter(
            "server_commit_failed_items_total",
            "writes whose group-commit apply raised (durability risk)",
        )
        self._m_batch_size = registry.histogram(
            "server_commit_batch_size", GROUP_COMMIT_BUCKETS,
            "writes coalesced into one batch (1 = no coalescing)",
        )

    def start(self) -> None:
        """Spawn the writer task on the running loop."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="group-commit-writer"
            )

    @property
    def queue_depth(self) -> int:
        """Writes submitted but not yet applied."""
        return len(self._pending)

    def waiters_for(self, pred) -> list[asyncio.Future]:
        """Unresolved futures of queued or in-flight writes whose key
        satisfies ``pred`` — a point-in-time view for scoped drains."""
        items = list(self._pending)
        if self.inflight:
            items += self.inflight
        return [
            future
            for key, _value, future, _trace in items
            if not future.done() and pred(key)
        ]

    def enqueue(
        self,
        items: list[tuple[int, Any]],
        trace: tuple[int, int] | None = None,
    ) -> asyncio.Future:
        """Enqueue ``(key, value)`` writes as one contiguous run and
        return the future that resolves once all of them are durably
        applied — the server acknowledges a write from its callback,
        with no task of its own.

        A single write is a one-item list; a delete carries
        :data:`~repro.lsm.entry.TOMBSTONE` as its value. Contiguity
        means a submission no larger than ``max_batch`` is applied by a
        single ``put_batch`` call — i.e. it keeps the engine's
        per-shard crash atomicity. ``trace`` is an optional
        ``(trace_id, parent_span_id)`` context: the batch that applies
        these writes will join that trace. The future fails with
        whatever ``put_batch`` raised for a write's group, or with
        ``ConnectionResetError`` if the writer was closed before the
        writes could be applied (it never silently drops a submission).
        Raises ``ConnectionResetError`` if the writer is already closed.
        """
        if self._closed:
            raise ConnectionResetError("group-commit writer is closed")
        loop = asyncio.get_running_loop()
        futures = []
        for key, value in items:
            future = loop.create_future()
            self._pending.append((key, value, future, trace))
            futures.append(future)
        self._wake.set()
        # A single write is its own future: through gather() its
        # callbacks would run one event-loop pass after the ack.
        return futures[0] if len(futures) == 1 else asyncio.gather(*futures)

    async def submit(
        self,
        items: list[tuple[int, Any]],
        trace: tuple[int, int] | None = None,
    ) -> None:
        """:meth:`enqueue` ``items`` and wait until they are applied."""
        await self.enqueue(items, trace)

    async def _run(self) -> None:
        while True:
            if not self._pending:
                if self._closed:
                    return
                self._wake.clear()
                await self._wake.wait()
                # Yield one scheduling round: writes that arrive in it
                # join the forming group.
                await asyncio.sleep(0)
            group = self._pending[: self.max_batch]
            del self._pending[: len(group)]
            if not group:
                continue
            self.active = True
            self.inflight = group
            try:
                if self._apply(group):
                    # Base class: resolves synchronously (the coroutine
                    # never awaits, so this is the same event-loop step
                    # as the apply — behaviour identical to the
                    # pre-split code). The replicated subclass awaits
                    # follower acks here before resolving.
                    await self._finish(group)
            finally:
                self.active = False
                self.inflight = None

    def _apply(self, group: list[Pending]) -> bool:
        items = [(key, value) for key, value, _, _ in group]
        # Traced submissions in this group: the first context hosts the
        # batch span (and, via the family carrier, the shard-level
        # put_batch subtree); the rest get mirror spans after the fact
        # so *every* sampled write's tree shows its group commit.
        ctxs = [ctx for _, _, _, ctx in group if ctx]
        primary = ctxs[0] if ctxs else None
        tracer = self.obs.tracer
        try:
            # Synchronous section: safe to span (the tracer's stack
            # must never be held across an await).
            if primary is not None:
                span_cm = tracer.span_for(
                    "group_commit", primary[0], primary[1],
                    size=len(group), traced_writes=len(ctxs),
                )
            else:
                span_cm = tracer.span("group_commit", size=len(group))
            with span_cm as span:
                crash_point("group_commit.before_apply")
                self.store.put_batch(items)
                # A crash here dies with the group durable in the WAL
                # but no waiter acknowledged — recovery may surface the
                # writes, and the ack contract still holds.
                crash_point("group_commit.before_ack")
        except Exception as exc:  # noqa: BLE001 — propagate to every waiter
            self._fail(group, exc)
            return False
        if primary is not None:
            self._file_mirrors(
                "group_commit", ctxs,
                start_ns=span.start_ns,
                duration_ns=span.duration_ns,
                wall_ns=span.wall_ns,
                size=len(group),
            )
        self.batches += 1
        self.items += len(group)
        self._m_batches.inc()
        self._m_items.inc(len(group))
        self._m_batch_size.observe(len(group))
        return True

    def _file_mirrors(
        self, name: str, ctxs: list[tuple[int, int]], **fields: Any
    ) -> None:
        """File a finished ``name`` span — group work hosted by the first
        traced context ``ctxs[0]`` — once more under every other trace in
        ``ctxs``, so each sampled write's tree shows the work it waited
        on."""
        primary = ctxs[0][0]
        seen = {primary}
        for trace_id, parent_id in ctxs[1:]:
            if trace_id in seen:
                continue
            seen.add(trace_id)
            self.obs.tracer.record(
                name, trace_id=trace_id, parent_id=parent_id,
                shared_with=primary, **fields,
            )

    async def _finish(self, group: list[Pending]) -> None:
        """Acknowledge an applied group. The seam a replicated writer
        overrides: ship the group's WAL records to followers, await
        their acks, *then* resolve — so an acknowledged write is
        durable beyond the leader."""
        self._resolve(group)

    def _resolve(self, group: list[Pending]) -> None:
        for _, _, future, _ in group:
            if not future.done():
                future.set_result(None)

    def _fail(self, group: list[Pending], exc: BaseException) -> None:
        self.failed_items += len(group)
        self._m_failed_items.inc(len(group))
        for _, _, future, _ in group:
            if not future.done():
                future.set_exception(exc)

    async def close(self) -> None:
        """Drain everything already submitted, then stop the writer.

        Part of graceful shutdown: close() is called after the server
        stopped accepting work, so nothing new can race in; every
        submission made before close() resolves normally.
        """
        self._closed = True
        self._wake.set()
        if self._task is not None:
            await self._task
            self._task = None
        # A submission that somehow arrived after the task exited (it
        # would have raised in submit(), but be defensive) must not
        # hang its waiter forever.
        for _, _, future, _ in self._pending:
            if not future.done():
                future.set_exception(
                    ConnectionResetError("group-commit writer closed")
                )
        self._pending.clear()
