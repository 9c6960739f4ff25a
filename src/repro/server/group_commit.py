"""Group commit: coalesce concurrent writes into atomic batches.

Every PUT/DELETE accepted by the server is submitted here instead of
hitting the store directly. The first submission of an event-loop pass
schedules one commit pass at the end of the next loop pass, which
applies what the two passes queued as **one** ``put_batch`` call — which the engine persists as one
checksummed WAL batch record per touched shard (its crash-atomic
batch path). Under concurrency this amortizes the WAL append across
the whole group: N clients writing together cost ~1 batch record per
group instead of N put records, which is the classic group-commit win.

Ordering and durability contract:

* submissions are applied in submission order (the queue is FIFO and
  a group is never reordered), so two pipelined writes to the same key
  from one connection resolve last-writer-wins exactly as they would
  against a bare store;
* a submission's ``ack`` runs only *after* ``put_batch`` returned,
  i.e. after the WAL record for its group was appended — an
  acknowledged write is always recoverable;
* if ``put_batch`` raises, every write in that group gets the error
  (none of them were acknowledged, none are partially applied: the
  engine's batch is all-or-nothing per shard).

There is no writer task: "concurrent" writes are the ones read in the
pass that scheduled the commit and in the pass it runs in, and the
server's ack callback writes the response from the commit pass — read
in one pass, acknowledged in the next (or in the same one). Only a
replicated writer's finish (it awaits follower acks) runs as a task,
one at a time; no later group is applied until it returned.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable

from repro.faults.crashpoints import crash_point
from repro.obs import GROUP_COMMIT_BUCKETS, NULL_OBS, Observability

#: Called once a submission settles: None, or the exception that failed it.
Ack = Callable[[BaseException | None], None]


class Submission:
    """The writes of one :meth:`GroupCommitWriter.enqueue`: ``ack`` runs
    once, when the last was applied or the first failed. ``waiter``,
    made only for a scoped drain, resolves when the last write left the
    queue (applied or failed), never with the error."""

    __slots__ = ("ack", "unsettled", "waiter")

    def __init__(self, ack: Ack, unsettled: int) -> None:
        self.ack: Ack | None = ack
        self.unsettled = unsettled
        self.waiter: asyncio.Future | None = None

    def done(self) -> bool:
        return not self.unsettled

    def settle(self, error: BaseException | None) -> None:
        """One of the writes was applied (``error`` None) or failed."""
        self.unsettled -= 1
        if not self.unsettled and self.waiter and not self.waiter.done():
            self.waiter.set_result(None)
        if self.ack is not None and (error is not None or not self.unsettled):
            ack, self.ack = self.ack, None
            ack(error)


#: One queued write: (key, value, its submission, trace context or None).
Pending = tuple[int, Any, Submission, tuple[int, int] | None]


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
        self._closed = False
        self._scheduled: asyncio.TimerHandle | None = None
        #: A replicated writer's finish in flight — the one task.
        self._finishing: asyncio.Task | None = None
        #: Resolved once :meth:`close` finds the writer idle.
        self._stopped: asyncio.Future | None = None
        #: The group currently mid apply/finish (None when idle); lets
        #: scoped drains (shard handoff) find in-flight waiters.
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

    @property
    def queue_depth(self) -> int:
        """Writes submitted but not yet applied."""
        return len(self._pending)

    def waiters_for(self, pred) -> list[asyncio.Future]:
        """Futures of the unsettled queued or in-flight writes whose key
        satisfies ``pred``, each resolved when its write settles — a
        point-in-time view for scoped drains."""
        items = self._pending + (self.inflight or [])
        waiters = []
        for key, _value, submission, _trace in items:
            if submission.done() or not pred(key):
                continue
            if submission.waiter is None:
                submission.waiter = asyncio.get_running_loop().create_future()
            waiters.append(submission.waiter)
        return waiters

    def enqueue(
        self,
        items: list[tuple[int, Any]],
        ack: Ack,
        trace: tuple[int, int] | None = None,
    ) -> None:
        """Enqueue ``(key, value)`` writes as one contiguous run;
        ``ack(None)`` runs once all of them are durably applied, or
        ``ack(error)`` with what ``put_batch`` raised for the first of
        their groups that failed — never silently dropped. An empty
        submission is acknowledged at once.

        A single write is a one-item list; a delete carries
        :data:`~repro.lsm.entry.TOMBSTONE` as its value. Contiguity
        means a submission no larger than ``max_batch`` is applied by a
        single ``put_batch`` call — i.e. it keeps the engine's
        per-shard crash atomicity. ``trace`` is an optional
        ``(trace_id, parent_span_id)`` context: the batch that applies
        these writes will join that trace. Raises
        ``ConnectionResetError`` if the writer is closed.
        """
        if self._closed:
            raise ConnectionResetError("group-commit writer is closed")
        if not items:
            ack(None)
            return
        submission = Submission(ack, len(items))
        self._pending.extend(
            [(key, value, submission, trace) for key, value in items]
        )
        self._schedule()

    async def submit(
        self,
        items: list[tuple[int, Any]],
        trace: tuple[int, int] | None = None,
    ) -> None:
        """:meth:`enqueue` ``items`` and wait until they are applied;
        raises what failed them."""
        done = asyncio.get_running_loop().create_future()
        self.enqueue(items, lambda e: done.done() or done.set_result(e), trace)
        error = await done
        if error is not None:
            raise error

    def _schedule(self) -> None:
        """Schedule a commit pass, unless one is already scheduled or a
        finish is in flight (its end schedules the next). A timer due
        now, not ``call_soon``: the loop runs it in the next pass *after*
        that pass's I/O callbacks, so the writes read there join the
        group too."""
        if self._scheduled is None and self._finishing is None:
            loop = asyncio.get_running_loop()
            self._scheduled = loop.call_at(loop.time(), self._commit)

    def _commit(self) -> None:
        """One commit pass: apply the oldest group (up to ``max_batch``
        writes) and settle it within this pass — or, when the finish is
        asynchronous (a replicated writer), run it as the one task."""
        self._scheduled = None
        group = self._pending[: self.max_batch]
        del self._pending[: len(group)]
        if group:
            self.inflight = group
            finish = self._finish(group) if self._apply(group) else None
            if finish is not None:
                self._finishing = asyncio.get_running_loop().create_task(
                    self._finish_then_next(finish)
                )
                return
        self._next()

    async def _finish_then_next(self, finish: Awaitable[None]) -> None:
        await finish
        self._finishing = None
        self._next()

    def _next(self) -> None:
        """A group settled: schedule the next commit pass, or tell
        :meth:`close` that the writer is idle."""
        self.inflight = None
        if self._pending:
            self._schedule()
        elif self._stopped is not None and not self._stopped.done():
            self._stopped.set_result(None)

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

    def _finish(self, group: list[Pending]) -> Awaitable[None] | None:
        """Acknowledge an applied group. The seam a replicated writer
        overrides with a coroutine — ship the group's WAL records to
        followers, await their acks, *then* resolve, so an acknowledged
        write is durable beyond the leader — which runs as the one
        finish in flight."""
        self._resolve(group)
        return None

    def _resolve(
        self, group: list[Pending], error: BaseException | None = None
    ) -> None:
        for _, _, submission, _ in group:
            try:
                submission.settle(error)
            except Exception as exc:  # noqa: BLE001 — must not strand the rest
                asyncio.get_running_loop().call_exception_handler(
                    {"message": "group-commit ack raised", "exception": exc}
                )

    def _fail(self, group: list[Pending], exc: BaseException) -> None:
        self.failed_items += len(group)
        self._m_failed_items.inc(len(group))
        self._resolve(group, exc)

    async def close(self) -> None:
        """Refuse new writes; return once everything submitted is
        acknowledged, after at least one more commit pass — so the
        drain that calls this reads (and refuses) a request already on
        the wire before it closes the connection."""
        self._closed = True
        if self._stopped is None:
            self._stopped = asyncio.get_running_loop().create_future()
            self._schedule()
        await self._stopped

    def stop(self) -> None:
        """Process death: refuse new writes, drop the queue and cancel
        the scheduled commit pass and the in-flight finish; nothing
        queued or in flight is applied or acknowledged afterwards."""
        self._closed = True
        self._pending.clear()
        if self._scheduled is not None:
            self._scheduled.cancel()
            self._scheduled = None
        if self._finishing is not None:
            self._finishing.cancel()
