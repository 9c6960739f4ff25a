"""Key-value entries and tombstones."""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Any


#: Keys are unsigned 64-bit integers: what a run's key column
#: (``array('Q')``), the WAL and the wire hold.
KEY_LIMIT = 1 << 64


def u64_key(key: Any) -> int:
    """``key`` in the one key domain every store accepts: read as
    ``operator.index(key)`` (so a ``bool`` or an object with
    ``__index__`` is its integer; anything else raises ``TypeError``),
    and refused with ``ValueError`` outside ``[0, 2**64)``."""
    key = index(key)
    if not 0 <= key < KEY_LIMIT:
        raise ValueError(f"key {key} out of 64-bit range")
    return key


def u64_keys(keys: list[Any]) -> list[int]:
    """:func:`u64_key` over a batch; a batch of in-range ints is
    checked in C and returned as is."""
    if (
        keys and {*map(type, keys)} == {int}
        and min(keys) >= 0 and max(keys) < KEY_LIMIT
    ):
        return keys
    return list(map(u64_key, keys))


#: The singleton tombstone value (paper section 2: deletes are
#: out-of-place inserts of a tombstone); test it with ``is``. A bare
#: ``object()`` rather than an instance of a class of its own: every
#: instance of a Python class is tracked by the cyclic collector, and
#: one tracked item keeps the entry holding it -- and that entry's
#: block -- tracked for good.
TOMBSTONE = object()


@dataclass(frozen=True, slots=True)
class Expiring:
    """A value bundled with its absolute expiry stamp (modelled ns).

    The TTL write path wraps the user's value in one of these so the
    expiry travels through the WAL and the memtable without changing
    either surface's signature; :meth:`Memtable.put` unwraps it into
    the entry it buffers. User code never sees the wrapper on
    reads — an expired entry simply answers ``None``.
    """

    value: Any
    expires_at: int


#: One key-value version: the exact tuple ``(key, value, seqno,
#: expires_at)``. ``seqno`` is a global monotonically increasing
#: sequence number that orders versions of one key during merges
#: (younger wins). ``expires_at`` (absolute modelled ns, ``None`` =
#: never) marks a TTL write: past the stamp the version reads as absent
#: and is reclaimed lazily at merge time, exactly like a purged
#: tombstone.
#:
#: It is a plain tuple, not a class, on purpose: CPython's cyclic
#: collector untracks an *exact* tuple whose items are all untracked
#: the first time it survives a collection, so the versions the runs
#: keep alive (and the tuple blocks holding them) drop out of every
#: later pass. A dataclass, a ``__slots__`` class, a NamedTuple or
#: any tuple subclass stays tracked forever.
Entry = tuple[int, Any, int, int | None]

#: Field positions, for reading one field; unpack all four as
#: ``key, value, seqno, expires_at = entry``.
KEY, VALUE, SEQNO, EXPIRES_AT = range(4)


def make_entry(
    key: int, value: Any, seqno: int, expires_at: int | None = None
) -> Entry:
    """Build one key-value version."""
    return (key, value, seqno, expires_at)


def is_tombstone(entry: Entry) -> bool:
    """Whether the version is a delete marker."""
    return entry[VALUE] is TOMBSTONE
