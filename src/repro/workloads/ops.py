"""One op vocabulary, one applier, one key model.

Everything that drives a store — the bench suite, the drift scenarios,
the crash campaigns, the load generator, the tests — spells an
operation as an :class:`Op`, applies it with :func:`apply` (an
in-process store) or :func:`apply_remote` (a wire connection or a
cluster coordinator), and judges reads against a :class:`KeyModel`.
"""

from __future__ import annotations

from typing import Any, Mapping, NamedTuple

from repro.faults.invariants import ABSENT
from repro.lsm.entry import TOMBSTONE

#: What :func:`repro.workloads.generators.request_stream` yields and a
#: load run counts. ``insert`` (a key meant to be absent) and ``update``
#: are both a put; ``rmw`` reads, then puts; ``scan`` reads ``key`` to
#: ``hi``, inclusive.
STREAM_KINDS = ("read", "update", "insert", "delete", "scan", "rmw")

#: Every kind :func:`apply` takes: the stream kinds plus the
#: in-process-only ``put_ttl``, ``batch`` and ``flush``.
OP_KINDS = STREAM_KINDS + ("put_ttl", "batch", "flush")


class Op(NamedTuple):
    """One operation. ``value`` is what a put-like kind writes, ``ttl``
    belongs to ``put_ttl``, ``hi`` to ``scan``, ``items`` — ``(key,
    value)`` pairs, :data:`TOMBSTONE` deleting — to ``batch``."""

    kind: str
    key: Any = None
    value: Any = None
    ttl: float | None = None
    hi: Any = None
    items: tuple = ()


def apply(store, op: Op) -> Any:
    """Apply ``op`` to an in-process store. Returns what a ``read`` /
    ``rmw`` read or a ``scan``'s pairs, else ``None``; an unknown kind
    is a ``ValueError``."""
    kind = op.kind
    if kind == "read":
        return store.get(op.key)
    if kind == "scan":
        return list(store.scan(op.key, op.hi))
    if kind == "rmw":
        found = store.get(op.key)
        store.put(op.key, op.value)
        return found
    if kind in ("update", "insert"):
        store.put(op.key, op.value)
    elif kind == "delete":
        store.delete(op.key)
    elif kind == "put_ttl":
        store.put(op.key, op.value, ttl=op.ttl)
    elif kind == "batch":
        store.put_batch(list(op.items))
    elif kind == "flush":
        store.flush()
    else:
        raise ValueError(f"unknown op kind {kind!r}; want one of {OP_KINDS}")
    return None


async def apply_remote(conn, op: Op) -> Any:
    """:func:`apply` over awaitable ``get`` / ``put`` / ``delete`` /
    ``scan`` (an ``AsyncClient``, a ``ClusterCoordinator``, a load
    target's connection). Only the :data:`STREAM_KINDS` go on the
    wire; any other kind is a ``ValueError``."""
    kind = op.kind
    if kind == "read":
        return await conn.get(op.key)
    if kind == "scan":
        return await conn.scan(op.key, op.hi)
    if kind == "rmw":
        found = await conn.get(op.key)
        await conn.put(op.key, op.value)
        return found
    if kind in ("update", "insert"):
        await conn.put(op.key, op.value)
    elif kind == "delete":
        await conn.delete(op.key)
    else:
        raise ValueError(
            f"op kind {kind!r} cannot go on the wire; want one of {STREAM_KINDS}"
        )
    return None


#: The state of a key with two unacked writes since its last ack.
UNKNOWN = object()


def _effects(op: Op) -> dict[Any, Any]:
    """key -> the state ``op`` leaves it in; a batch's last write to a
    key wins, as in the store."""
    if op.kind == "delete":
        return {op.key: TOMBSTONE}
    if op.kind == "batch":
        return dict(op.items)
    if op.kind in ("update", "insert", "rmw", "put_ttl"):
        return {op.key: op.value}
    return {}


class KeyModel:
    """What each key may read back as. A key holds a value,
    :data:`TOMBSTONE` or :data:`UNKNOWN`, starting absent or at its
    value in ``start`` (a preload). An acked write fixes it; a first
    unacked one (the request raised: it may have been applied) leaves
    it readable as its old or its new value; a second one before the
    next ack makes it :data:`UNKNOWN` until an ack resolves it."""

    def __init__(self, start: Mapping[Any, Any] | None = None) -> None:
        self._acked: dict[Any, Any] = dict(start or {})
        #: key -> what its one unacked write wrote, or UNKNOWN.
        self._unacked: dict[Any, Any] = {}

    def ack(self, op: Op) -> None:
        for key, state in _effects(op).items():
            self._acked[key] = state
            self._unacked.pop(key, None)

    def unacked(self, op: Op) -> None:
        for key, state in _effects(op).items():
            if key in self._unacked:
                self._acked.pop(key, None)
                state = UNKNOWN
            self._unacked[key] = state

    def allowed(self, key) -> tuple[Any, ...] | object:
        """The reads a correct system may return for ``key``, as
        :meth:`~repro.faults.invariants.InvariantChecker.check_reads`
        takes them (:data:`ABSENT`: not readable), or :data:`UNKNOWN`."""
        states = (self._acked.get(key, TOMBSTONE),)
        if key in self._unacked:
            if self._unacked[key] is UNKNOWN:
                return UNKNOWN
            states += (self._unacked[key],)
        return tuple(
            dict.fromkeys(ABSENT if s is TOMBSTONE else s for s in states)
        )

    def expectations(self) -> dict[Any, tuple[Any, ...]]:
        """:meth:`allowed` of every key with a known state: acked keys
        in first-ack order, then keys only an unacked write touched."""
        keys = dict.fromkeys([*self._acked, *self._unacked])
        return {
            key: allowed
            for key in keys
            if (allowed := self.allowed(key)) is not UNKNOWN
        }

    @property
    def acked_keys(self) -> int:
        """Keys whose acked (or preloaded) state is still in force."""
        return len(self._acked)
