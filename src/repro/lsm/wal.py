"""Write-ahead log.

The paper's batch-update recipe (section 4.5) starts with "atomically
inserting a batch into the WAL and the memtable"; this module provides
that WAL. Records are length-prefixed and checksummed so that a torn
tail (a crash mid-append) is detected and truncated during replay
rather than corrupting recovery.

The log is a plain ``bytearray`` standing in for an append-only file —
consistent with the repo's simulated-storage approach; the encoding is
nevertheless a real, self-delimiting binary format: each record is
``u32 length | u32 CRC-32 of the payload | payload``. The checksum is
``zlib.crc32`` — computed in C, so an append costs one call instead of
a Python loop over the payload's words, and any single flipped bit in a
record is caught (a CRC detects every burst of up to 32 bits).

Values carry an explicit kind byte (str / bytes / tombstone) so that a
``bytes`` payload — including non-UTF-8 ones — round-trips through
crash and recovery exactly as written instead of being coerced to
``str``; any other value type is refused with :class:`TypeError`
before a byte is logged. Any structural problem inside a
checksum-valid record (a bad batch count, a truncated item, an unknown
kind) raises :class:`WalCorruption` with the record's offset; replay
never surfaces a bare ``IndexError`` or ``UnicodeDecodeError``.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from repro.common.errors import ReproError
from repro.lsm.entry import Expiring, TOMBSTONE

_PUT = 0
_DELETE = 1
_BATCH = 2

#: Value kinds: how the payload bytes map back to a Python value. The
#: TTL kinds prefix the payload with an 8-byte little-endian absolute
#: expiry stamp (modelled ns) and decode back to :class:`Expiring`, so
#: a TTL write round-trips through crash and recovery exactly; records
#: without TTL keep their pre-TTL byte encoding unchanged.
_VK_STR = 0
_VK_BYTES = 1
_VK_TOMB = 2
_VK_STR_TTL = 3
_VK_BYTES_TTL = 4

#: Item header: kind | key | seqno | value-kind | value-length.
_ITEM = struct.Struct("<BQQBI")
#: Record frame header: payload length | payload checksum.
_FRAME = struct.Struct("<II")
#: Batch payload header: the _BATCH kind byte | item count.
_BATCH_HEAD = struct.Struct("<BI")


class WalCorruption(ReproError):
    """A WAL record failed its checksum somewhere other than the tail."""


def _checksum(payload: bytes) -> int:
    """The record checksum: CRC-32 of the payload."""
    return zlib.crc32(payload)


def _encode_value(value: Any) -> tuple[int, bytes]:
    """(value-kind, payload bytes) for a str, bytes, TTL or tombstone
    value; any other type raises :class:`TypeError` (it could not come
    back from replay as what was written)."""
    if isinstance(value, str):
        return _VK_STR, value.encode("utf-8")
    if isinstance(value, bytes):
        return _VK_BYTES, bytes(value)
    if value is TOMBSTONE:
        return _VK_TOMB, b""
    if type(value) is Expiring:
        if value.expires_at < 0 or value.expires_at >= 1 << 64:
            raise ValueError(f"expiry {value.expires_at} out of 64-bit range")
        stamp = value.expires_at.to_bytes(8, "little")
        inner, encoded = _encode_value(value.value)
        if inner == _VK_STR:
            return _VK_STR_TTL, stamp + encoded
        if inner == _VK_BYTES:
            return _VK_BYTES_TTL, stamp + encoded
        value = value.value
    raise TypeError(
        f"a logged value must be str or bytes, not {type(value).__name__}"
    )


def check_loggable(values: Iterable[Any]) -> None:
    """Raise the :class:`TypeError` an append would raise if any of
    ``values`` cannot be logged. A batch that spans several WAL records
    (several memtable groups, several shards) checks its values with
    this first, so a refused value refuses the whole batch."""
    for value in values:
        if type(value) is not str and type(value) is not bytes:
            _encode_value(value)


def _decode_value(vkind: int, raw: bytes, offset: int) -> Any:
    if vkind == _VK_TOMB:
        return TOMBSTONE
    if vkind == _VK_BYTES:
        return bytes(raw)
    if vkind == _VK_STR:
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WalCorruption(
                f"undecodable str value at offset {offset}: {exc}"
            ) from None
    if vkind in (_VK_STR_TTL, _VK_BYTES_TTL):
        if len(raw) < 8:
            raise WalCorruption(
                f"TTL value missing its expiry stamp at offset {offset}"
            )
        expires_at = int.from_bytes(raw[:8], "little")
        inner = _VK_BYTES if vkind == _VK_BYTES_TTL else _VK_STR
        return Expiring(_decode_value(inner, raw[8:], offset), expires_at)
    raise WalCorruption(f"unknown value kind {vkind} at offset {offset}")


def _encode_item(kind: int, key: int, value: Any, seqno: int) -> bytes:
    if not 0 <= key < 1 << 64:
        raise ValueError(f"key {key} out of 64-bit range")
    vkind, encoded = _encode_value(value)
    return _ITEM.pack(kind, key, seqno, vkind, len(encoded)) + encoded


def _frame(payload: bytes) -> bytes:
    """Length-prefix and checksum one record payload."""
    return _FRAME.pack(len(payload), _checksum(payload)) + payload


@dataclass
class WriteAheadLog:
    """Append-only log of puts and deletes."""

    data: bytearray = field(default_factory=bytearray)
    appended: int = 0
    #: Cumulative bytes ever appended — unlike ``size_bytes`` this
    #: survives truncation, so it is the monotone series the metrics
    #: registry exports as WAL write volume.
    appended_bytes: int = 0
    #: Physical batch records ever appended (one per ``append_batch``
    #: call). The group-commit acceptance check compares this against
    #: the logical write count: coalescing is working iff it stays
    #: strictly below the number of writes it covered.
    batch_records: int = 0
    #: Optional tap on fully appended records: called with
    #: ``(record, count, batch)`` after the bytes land. The cluster
    #: leader installs one to capture verbatim records for follower
    #: shipping. ``None`` (the default) is free, and because the
    #: fault injector's torn-append override of :meth:`_write_record`
    #: never calls the base method, a torn record never reaches the
    #: sink — exactly the "only durable records replicate" rule.
    record_sink: Callable[[bytes, int, bool], None] | None = field(
        default=None, compare=False, repr=False
    )

    def append_put(self, key: int, value: Any, seqno: int) -> None:
        self._write_record(
            _frame(_encode_item(_PUT, key, value, seqno)), count=1, batch=False
        )

    def append_delete(self, key: int, seqno: int) -> None:
        self._write_record(
            _frame(_encode_item(_DELETE, key, TOMBSTONE, seqno)),
            count=1,
            batch=False,
        )

    def append_batch(self, items: list[tuple[int, Any, int]]) -> None:
        """Append a whole batch of puts as ONE checksummed record.

        This is the WAL half of the paper's atomic batch insertion
        (section 4.5): because the batch shares a single length prefix
        and checksum, a crash can only ever drop the *entire* batch (a
        torn or checksum-failing tail record), never surface a prefix
        of it. ``items`` are (key, value, seqno) triples.
        """
        if not items:
            return
        self._write_record(
            encode_batch_record(items), count=len(items), batch=True
        )

    def _write_record(self, record: bytes, count: int, batch: bool) -> None:
        """Physically append one framed record.

        The single seam through which every append reaches the log —
        the fault-injection harness overrides it to write a byte-level
        prefix of ``record`` and crash (a torn append).
        """
        self.data.extend(record)
        self.appended += count
        self.appended_bytes += len(record)
        if batch:
            self.batch_records += 1
        if self.record_sink is not None:
            self.record_sink(record, count, batch)

    def append_raw(self, record: bytes, count: int, batch: bool) -> None:
        """Append one already-framed record verbatim.

        The follower half of WAL shipping: a replicated record lands
        in the follower's log byte-identical to the leader's append,
        so a follower that later crash-recovers replays exactly what
        a standalone store would have logged.
        """
        self._write_record(record, count=count, batch=batch)

    def truncate(self) -> None:
        """Discard the log (after a successful flush made it redundant)."""
        self.data.clear()

    @property
    def size_bytes(self) -> int:
        return len(self.data)

    def replay(self) -> Iterator[tuple[str, int, Any, int]]:
        """Yield ('put'|'delete', key, value, seqno) records in order.

        A torn record at the very tail (crash mid-append) is tolerated
        and ends the replay; corruption anywhere else raises
        :class:`WalCorruption`.
        """
        view = bytes(self.data)
        end = len(view)
        offset = 0
        while offset < end:
            if offset + _FRAME.size > end:
                return  # torn tail
            length, checksum = _FRAME.unpack_from(view, offset)
            stop = offset + _FRAME.size + length
            if stop > end:
                return  # torn tail
            payload = view[offset + _FRAME.size : stop]
            if _checksum(payload) != checksum:
                if stop == end:
                    return  # torn tail: checksum of a partial final write
                raise WalCorruption(f"bad checksum at offset {offset}")
            yield from _parse_payload(payload, offset)
            offset = stop


def _parse_item(
    payload: bytes, pos: int, offset: int
) -> tuple[tuple[str, int, Any, int], int]:
    """Decode one bounds-checked item at ``pos``; returns (record,
    next position). Any structural violation — an item header or
    value running past the payload, an unknown kind — raises
    :class:`WalCorruption` naming the record's ``offset``."""
    if pos + _ITEM.size > len(payload):
        raise WalCorruption(
            f"truncated item header at offset {offset} (pos {pos})"
        )
    kind, key, seqno, vkind, vlen = _ITEM.unpack_from(payload, pos)
    if kind not in (_PUT, _DELETE):
        raise WalCorruption(
            f"unknown item kind {kind} at offset {offset} (pos {pos})"
        )
    body = pos + _ITEM.size
    next_pos = body + vlen
    if next_pos > len(payload):
        raise WalCorruption(
            f"item value overruns record at offset {offset} (pos {pos})"
        )
    if kind == _DELETE:
        return ("delete", key, TOMBSTONE, seqno), next_pos
    raw = payload[body:next_pos]
    return ("put", key, _decode_value(vkind, raw, offset), seqno), next_pos


def _parse_payload(
    payload: bytes, offset: int
) -> list[tuple[str, int, Any, int]]:
    """The items of one checksum-verified record payload; any
    structural violation raises :class:`WalCorruption` naming the
    record's ``offset``."""
    if not payload:
        raise WalCorruption(f"empty record at offset {offset}")
    kind = payload[0]
    if kind == _BATCH:
        if len(payload) < _BATCH_HEAD.size:
            raise WalCorruption(f"truncated batch header at offset {offset}")
        _, count = _BATCH_HEAD.unpack_from(payload, 0)
        pos, items = _BATCH_HEAD.size, []
        for _ in range(count):
            item, pos = _parse_item(payload, pos, offset)
            items.append(item)
        what = "batch"
    elif kind in (_PUT, _DELETE):
        item, pos = _parse_item(payload, 0, offset)
        items = [item]
        what = "record"
    else:
        raise WalCorruption(f"unknown record kind {kind} at offset {offset}")
    if pos != len(payload):
        raise WalCorruption(
            f"{len(payload) - pos} trailing bytes after {what} "
            f"at offset {offset}"
        )
    return items


def encode_batch_record(items: list[tuple[int, Any, int]]) -> bytes:
    """One framed, checksummed batch record for ``items`` — the exact
    bytes :meth:`WriteAheadLog.append_batch` would append. The handoff
    path uses this to turn snapshot chunks into shippable records."""
    parts = [_BATCH_HEAD.pack(_BATCH, len(items))]
    parts += [
        _encode_item(_DELETE if value is TOMBSTONE else _PUT, key, value, seqno)
        for key, value, seqno in items
    ]
    return _frame(b"".join(parts))


def record_is_batch(record: bytes) -> bool:
    """Whether a framed record is a batch record (affects only the
    ``batch_records`` statistic when re-appending on a follower)."""
    return len(record) > _FRAME.size and record[_FRAME.size] == _BATCH


def parse_wal_record(record: bytes) -> list[tuple[str, int, Any, int]]:
    """Strictly parse ONE framed WAL record into its items.

    Unlike :meth:`WriteAheadLog.replay`, nothing is tolerated: a short
    header, a length that disagrees with the byte count, a failing
    checksum, or any structural violation raises
    :class:`WalCorruption`. This is the receive-side check for
    replicated records — a follower must never apply (or re-log) a
    record a crash-recovering standalone store would reject, so torn
    or damaged ships fail loudly instead of truncating silently.
    Returns ('put'|'delete', key, value, seqno) tuples.
    """
    if len(record) < _FRAME.size:
        raise WalCorruption(
            f"replicated record header truncated ({len(record)} bytes)"
        )
    length, checksum = _FRAME.unpack_from(record, 0)
    if len(record) != _FRAME.size + length:
        raise WalCorruption(
            f"replicated record length {length} disagrees with "
            f"{len(record) - _FRAME.size} payload bytes"
        )
    payload = bytes(record[_FRAME.size :])
    if _checksum(payload) != checksum:
        raise WalCorruption("replicated record failed its checksum")
    # The structural decode is the one replay uses, so value-kind
    # fidelity and corruption semantics are literally the same code.
    return _parse_payload(payload, 0)
