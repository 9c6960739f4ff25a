"""The wire protocol: length-prefixed binary frames.

Every message — request or response — travels as one *frame*::

    +----------------+---------------------------+
    | u32 BE length  | payload (length bytes)    |
    +----------------+---------------------------+

and every payload starts with the same header::

    request  : u64 BE request_id | u8 opcode | body
    response : u64 BE request_id | u8 opcode | u8 status | body

The request id is chosen by the client and echoed verbatim, which is
what makes pipelining work: a client may have many requests in flight
on one connection and match responses out of order. The opcode is
echoed in the response so decoding is self-describing (no per-id state
needed to interpret a body).

**Trace context** (optional): the high bit of the request opcode byte
(:data:`TRACE_FLAG`) marks a *traced* request. When set, 16 extra
bytes — ``u64 trace_id | u64 parent_span_id`` — follow the request
header before the body; the server adopts that context so its spans
join the client's causal tree. Old clients never set the bit and old
servers would reject it as an unknown opcode, so the header is purely
additive; absence simply means "unsampled". A set flag with a
truncated trace header is a :class:`ProtocolError` like any other
truncated body. Responses never carry the flag (the context only
flows client → server; span retrieval has its own TRACE op).

Bodies (all integers unsigned big-endian, values are raw bytes):

========  =======================================================
PING      (empty)
GET       u64 key
PUT       u64 key | u32 vlen | value
DELETE    u64 key
BATCH     u32 count | count * (u8 kind | u64 key | u32 vlen | value)
          kind 0 = put, 1 = delete (vlen must be 0 for deletes)
SCAN      u64 lo | u64 hi | u32 limit
STATS     (empty)
SHUTDOWN  (empty)
TRACE     u64 trace_id (0 = list known trace ids + sink health)
REPLICATE u32 shard | u64 repl_seq | u64 map_epoch | record bytes
REPL_ACK  u32 shard
HANDOFF   u8 phase | u32 shard | u64 seq | u64 map_epoch | blob
CLUSTER_STATUS  (empty)
========  =======================================================

The four cluster ops are additive exactly like the trace header: an
old server rejects them as unknown opcodes, old clients never send
them. REPLICATE ships one verbatim group-commit WAL record (framed,
checksummed — the follower re-verifies); HANDOFF phases are
:data:`HANDOFF_BEGIN` / ``CHUNK`` / ``TAIL_DONE`` / ``COMMIT`` /
``ABORT`` / ``PROMOTE`` (blob = snapshot chunk for CHUNK, shard-map
JSON for COMMIT/PROMOTE).

Response bodies by status/op: ``OK GET`` carries ``u32 vlen | value``
(``NOT_FOUND`` is empty); ``OK BATCH`` carries ``u32 applied``; ``OK
SCAN`` carries ``u32 count | count * (u64 key | u32 vlen | value)``;
``OK STATS``, ``OK TRACE`` and ``OK CLUSTER_STATUS`` carry UTF-8
JSON; ``OK REPLICATE`` / ``OK REPL_ACK`` / ``OK HANDOFF`` carry
``u64 applied`` (the receiver's durable replication sequence);
``BUSY`` / ``ERROR`` / ``SHUTTING_DOWN`` carry an optional UTF-8
message. Everything else is empty.

Robustness rules (enforced here, relied on by the server): a frame
longer than :data:`MAX_FRAME_BYTES` is a protocol error before any
allocation of its payload; a payload with a bad opcode, a truncated
body, or trailing garbage raises :class:`ProtocolError`. The server
answers a malformed frame by erroring *that connection* — never by
crashing.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

from repro.common.errors import ReproError

#: Hard cap on one frame's payload. Large enough for a 4k-item batch of
#: 200-byte values, small enough that a garbage length prefix cannot
#: make the server buffer gigabytes.
MAX_FRAME_BYTES = 1 << 20

#: Frame header: payload length.
_LEN = struct.Struct(">I")
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

MAX_KEY = (1 << 64) - 1

#: High bit of the request opcode byte: "trace header present".
TRACE_FLAG = 0x80


class ProtocolError(ReproError):
    """A frame or payload that violates the wire format."""


class Op(IntEnum):
    PING = 0
    GET = 1
    PUT = 2
    DELETE = 3
    BATCH = 4
    SCAN = 5
    STATS = 6
    SHUTDOWN = 7
    TRACE = 8
    REPLICATE = 9
    REPL_ACK = 10
    HANDOFF = 11
    CLUSTER_STATUS = 12


class Status(IntEnum):
    OK = 0
    NOT_FOUND = 1
    BUSY = 2
    ERROR = 3
    SHUTTING_DOWN = 4


#: BATCH item kinds.
KIND_PUT = 0
KIND_DELETE = 1

#: HANDOFF phases (Request.phase).
HANDOFF_BEGIN = 0
HANDOFF_CHUNK = 1
HANDOFF_TAIL_DONE = 2
HANDOFF_COMMIT = 3
HANDOFF_ABORT = 4
HANDOFF_PROMOTE = 5
#: Operator trigger: "you lead this shard — hand it to the node named
#: in the value". The source answers after the whole migration commits.
HANDOFF_START = 6

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


def frame(payload: bytes) -> bytes:
    """Wrap a payload in its length prefix."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"payload of {len(payload)} bytes exceeds MAX_FRAME_BYTES"
        )
    return _LEN.pack(len(payload)) + payload


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


class FrameAssembler:
    """Incremental frame splitter for a byte stream.

    Feed it arbitrary chunks as they arrive; it yields complete
    payloads and keeps partial frames buffered. A length prefix larger
    than :data:`MAX_FRAME_BYTES` raises :class:`ProtocolError`
    immediately — before the (possibly absurd) payload is buffered.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        self._buf.extend(data)
        frames: list[bytes] = []
        while True:
            if len(self._buf) < _LEN.size:
                return frames
            (length,) = _LEN.unpack_from(self._buf)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"frame of {length} bytes exceeds MAX_FRAME_BYTES"
                )
            if len(self._buf) < _LEN.size + length:
                return frames
            frames.append(bytes(self._buf[_LEN.size : _LEN.size + length]))
            del self._buf[: _LEN.size + length]

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards an incomplete frame."""
        return len(self._buf)

