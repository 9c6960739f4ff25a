"""The cursor-parser wire codec the table-driven one replaced.

:mod:`repro.server.protocol` encodes a request or response as a few
whole-message ``struct`` calls and decodes it through one per-opcode
table entry. This module keeps the codec it replaced — frozen dataclass
records, ``op in (...)`` dispatch chains, head + body concatenation and
a bounds-checked ``_Cursor`` — as the reference ``test_protocol.py``
holds it to: the same bytes out of every encoder, and the same fields
or the same refusal out of every decoder.

It shares only the wire vocabulary (``Op``, ``Status``, the constants
and :class:`ProtocolError`) with the code under test, none of its
encoders or decoders.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.server.protocol import (
    HANDOFF_ABORT,
    HANDOFF_BEGIN,
    HANDOFF_CHUNK,
    HANDOFF_COMMIT,
    HANDOFF_PROMOTE,
    HANDOFF_START,
    HANDOFF_TAIL_DONE,
    KIND_DELETE,
    KIND_PUT,
    MAX_KEY,
    TRACE_FLAG,
    Op,
    ProtocolError,
    Status,
)

#: Request header: request id + opcode.
_REQ_HEAD = struct.Struct(">QB")
#: Response header: request id + opcode + status.
_RESP_HEAD = struct.Struct(">QBB")
_U64 = struct.Struct(">Q")
_U32 = struct.Struct(">I")
_KEY_VLEN = struct.Struct(">QI")
_SCAN_BODY = struct.Struct(">QQI")
#: Optional trace context: trace id + parent span id.
_TRACE_HEAD = struct.Struct(">QQ")
#: REPLICATE body head: shard | repl_seq | map_epoch.
_REPL_HEAD = struct.Struct(">IQQ")
#: HANDOFF body head: phase | shard | seq | map_epoch.
_HANDOFF_HEAD = struct.Struct(">BIQQ")

_HANDOFF_PHASES = (
    HANDOFF_BEGIN,
    HANDOFF_CHUNK,
    HANDOFF_TAIL_DONE,
    HANDOFF_COMMIT,
    HANDOFF_ABORT,
    HANDOFF_PROMOTE,
    HANDOFF_START,
)


@dataclass(frozen=True)
class Request:
    """One decoded request. Only the fields the op uses are meaningful
    (e.g. ``key`` for GET/PUT/DELETE, ``items`` for BATCH)."""

    request_id: int
    op: Op
    key: int = 0
    value: bytes = b""
    #: BATCH payload: (kind, key, value) triples.
    items: tuple[tuple[int, int, bytes], ...] = ()
    lo: int = 0
    hi: int = 0
    limit: int = 0
    #: Cluster ops: shard id, replication sequence, shard-map epoch,
    #: HANDOFF phase. ``value`` carries the record / blob bytes.
    shard: int = 0
    seq: int = 0
    epoch: int = 0
    phase: int = 0
    #: Trace context (0 = unsampled, no header on the wire).
    trace_id: int = 0
    parent_span_id: int = 0


@dataclass(frozen=True)
class Response:
    """One decoded response."""

    request_id: int
    op: Op
    status: Status
    value: bytes = b""
    #: SCAN payload: (key, value) pairs.
    pairs: tuple[tuple[int, bytes], ...] = ()
    count: int = 0
    message: str = ""


def _check_key(key: int) -> int:
    if not 0 <= key <= MAX_KEY:
        raise ProtocolError(f"key {key} out of u64 range")
    return key


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


def encode_request(req: Request) -> bytes:
    """Serialize a request payload (no frame header)."""
    opcode = int(req.op)
    if req.trace_id:
        if not 0 < req.trace_id <= MAX_KEY:
            raise ProtocolError(f"trace id {req.trace_id} out of u64 range")
        if not 0 <= req.parent_span_id <= MAX_KEY:
            raise ProtocolError(
                f"parent span id {req.parent_span_id} out of u64 range"
            )
        head = _REQ_HEAD.pack(req.request_id, opcode | TRACE_FLAG)
        head += _TRACE_HEAD.pack(req.trace_id, req.parent_span_id)
    else:
        head = _REQ_HEAD.pack(req.request_id, opcode)
    op = req.op
    if op in (Op.PING, Op.STATS, Op.SHUTDOWN, Op.CLUSTER_STATUS):
        return head
    if op in (Op.GET, Op.DELETE, Op.TRACE):
        return head + _U64.pack(_check_key(req.key))
    if op is Op.REPLICATE:
        return head + _REPL_HEAD.pack(req.shard, req.seq, req.epoch) + req.value
    if op is Op.REPL_ACK:
        return head + _U32.pack(req.shard)
    if op is Op.HANDOFF:
        if req.phase not in _HANDOFF_PHASES:
            raise ProtocolError(f"bad handoff phase {req.phase}")
        return (
            head
            + _HANDOFF_HEAD.pack(req.phase, req.shard, req.seq, req.epoch)
            + req.value
        )
    if op is Op.PUT:
        return head + _KEY_VLEN.pack(_check_key(req.key), len(req.value)) + req.value
    if op is Op.BATCH:
        parts = [head, _U32.pack(len(req.items))]
        for kind, key, value in req.items:
            if kind not in (KIND_PUT, KIND_DELETE):
                raise ProtocolError(f"bad batch item kind {kind}")
            if kind == KIND_DELETE and value:
                raise ProtocolError("batch delete item carries a value")
            parts.append(bytes([kind]))
            parts.append(_KEY_VLEN.pack(_check_key(key), len(value)))
            parts.append(value)
        return b"".join(parts)
    if op is Op.SCAN:
        return head + _SCAN_BODY.pack(
            _check_key(req.lo), _check_key(req.hi), req.limit
        )
    raise ProtocolError(f"unknown opcode {op!r}")


def encode_response(resp: Response) -> bytes:
    """Serialize a response payload (no frame header)."""
    head = _RESP_HEAD.pack(resp.request_id, int(resp.op), int(resp.status))
    if resp.status in (Status.BUSY, Status.ERROR, Status.SHUTTING_DOWN):
        return head + resp.message.encode("utf-8")
    if resp.status is Status.NOT_FOUND:
        return head
    op = resp.op
    if op is Op.GET:
        return head + _U32.pack(len(resp.value)) + resp.value
    if op is Op.BATCH:
        return head + _U32.pack(resp.count)
    if op is Op.SCAN:
        parts = [head, _U32.pack(len(resp.pairs))]
        for key, value in resp.pairs:
            parts.append(_KEY_VLEN.pack(_check_key(key), len(value)))
            parts.append(value)
        return b"".join(parts)
    if op in (Op.STATS, Op.TRACE, Op.CLUSTER_STATUS):
        return head + resp.value
    if op in (Op.REPLICATE, Op.REPL_ACK, Op.HANDOFF):
        return head + _U64.pack(resp.count)
    return head  # PING / PUT / DELETE / SHUTDOWN OK: empty body


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------


class _Cursor:
    """Bounds-checked reader over one payload."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise ProtocolError(
                f"truncated payload: wanted {n} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos}"
            )
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack(self.take(fmt.size))

    def finish(self) -> None:
        if self.pos != len(self.data):
            raise ProtocolError(
                f"{len(self.data) - self.pos} bytes of trailing garbage"
            )

    def rest(self) -> bytes:
        chunk = self.data[self.pos :]
        self.pos = len(self.data)
        return chunk


def _decode_op(raw: int) -> Op:
    try:
        return Op(raw)
    except ValueError:
        raise ProtocolError(f"unknown opcode {raw}") from None


def decode_request(payload: bytes) -> Request:
    """Parse a request payload; raises :class:`ProtocolError` on any
    violation (bad opcode, truncated body, trailing garbage)."""
    cur = _Cursor(payload)
    request_id, raw_op = cur.unpack(_REQ_HEAD)
    trace_id = parent_span_id = 0
    if raw_op & TRACE_FLAG:
        trace_id, parent_span_id = cur.unpack(_TRACE_HEAD)
        if not trace_id:
            raise ProtocolError("trace header present but trace id is 0")
        raw_op &= ~TRACE_FLAG
    op = _decode_op(raw_op)
    ctx = {"trace_id": trace_id, "parent_span_id": parent_span_id}
    if op in (Op.PING, Op.STATS, Op.SHUTDOWN, Op.CLUSTER_STATUS):
        cur.finish()
        return Request(request_id, op, **ctx)
    if op is Op.REPLICATE:
        shard, seq, epoch = cur.unpack(_REPL_HEAD)
        return Request(
            request_id, op, shard=shard, seq=seq, epoch=epoch,
            value=cur.rest(), **ctx,
        )
    if op is Op.REPL_ACK:
        (shard,) = cur.unpack(_U32)
        cur.finish()
        return Request(request_id, op, shard=shard, **ctx)
    if op is Op.HANDOFF:
        phase, shard, seq, epoch = cur.unpack(_HANDOFF_HEAD)
        if phase not in _HANDOFF_PHASES:
            raise ProtocolError(f"bad handoff phase {phase}")
        return Request(
            request_id, op, phase=phase, shard=shard, seq=seq, epoch=epoch,
            value=cur.rest(), **ctx,
        )
    if op in (Op.GET, Op.DELETE, Op.TRACE):
        (key,) = cur.unpack(_U64)
        cur.finish()
        return Request(request_id, op, key=key, **ctx)
    if op is Op.PUT:
        key, vlen = cur.unpack(_KEY_VLEN)
        value = cur.take(vlen)
        cur.finish()
        return Request(request_id, op, key=key, value=value, **ctx)
    if op is Op.BATCH:
        (count,) = cur.unpack(_U32)
        items = []
        for _ in range(count):
            (kind,) = cur.take(1)
            if kind not in (KIND_PUT, KIND_DELETE):
                raise ProtocolError(f"bad batch item kind {kind}")
            key, vlen = cur.unpack(_KEY_VLEN)
            if kind == KIND_DELETE and vlen:
                raise ProtocolError("batch delete item carries a value")
            items.append((kind, key, cur.take(vlen)))
        cur.finish()
        return Request(request_id, op, items=tuple(items), **ctx)
    # SCAN (op set is closed: _decode_op already rejected everything else)
    lo, hi, limit = cur.unpack(_SCAN_BODY)
    cur.finish()
    return Request(request_id, op, lo=lo, hi=hi, limit=limit, **ctx)


def decode_response(payload: bytes) -> Response:
    """Parse a response payload (client side of :func:`encode_response`)."""
    cur = _Cursor(payload)
    request_id, raw_op, raw_status = cur.unpack(_RESP_HEAD)
    op = _decode_op(raw_op)
    try:
        status = Status(raw_status)
    except ValueError:
        raise ProtocolError(f"unknown status {raw_status}") from None
    if status in (Status.BUSY, Status.ERROR, Status.SHUTTING_DOWN):
        message = cur.rest().decode("utf-8", errors="replace")
        return Response(request_id, op, status, message=message)
    if status is Status.NOT_FOUND:
        cur.finish()
        return Response(request_id, op, status)
    if op is Op.GET:
        (vlen,) = cur.unpack(_U32)
        value = cur.take(vlen)
        cur.finish()
        return Response(request_id, op, status, value=value)
    if op is Op.BATCH:
        (count,) = cur.unpack(_U32)
        cur.finish()
        return Response(request_id, op, status, count=count)
    if op is Op.SCAN:
        (count,) = cur.unpack(_U32)
        pairs = []
        for _ in range(count):
            key, vlen = cur.unpack(_KEY_VLEN)
            pairs.append((key, cur.take(vlen)))
        cur.finish()
        return Response(request_id, op, status, pairs=tuple(pairs))
    if op in (Op.STATS, Op.TRACE, Op.CLUSTER_STATUS):
        return Response(request_id, op, status, value=cur.rest())
    if op in (Op.REPLICATE, Op.REPL_ACK, Op.HANDOFF):
        (applied,) = cur.unpack(_U64)
        cur.finish()
        return Response(request_id, op, status, count=applied)
    cur.finish()
    return Response(request_id, op, status)
