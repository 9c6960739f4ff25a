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

Robustness rules (enforced here, relied on by the server and both
clients). Decoding: a frame longer than :data:`MAX_FRAME_BYTES` is a
protocol error before any allocation of its payload; a payload with an
unknown opcode or status, a truncated body, trailing garbage, a zero
trace id, a bad batch kind or a bad handoff phase raises
:class:`ProtocolError`. The server answers a malformed frame by
erroring *that connection* — never by crashing. Encoding: a field that
does not fit its wire width (request id, key, limit, shard, sequence,
epoch, count, trace or span id), a bad batch kind, a batch delete with
a value, or a bad handoff phase raises :class:`ProtocolError` naming
it — never ``struct.error``; :func:`frame` refuses a payload over
:data:`MAX_FRAME_BYTES`, and the server answers a response it cannot
frame as ``ERROR``.

**The codec is table driven.** Each opcode has one row of
``_REQUEST_CODEC`` / ``_RESPONSE_CODEC`` — the encoder and the decoder
of its message, and the integer fields it carries — and each
message shape one whole-message ``struct`` shared by both directions:
a GET request is one ``>QBQ`` pack and one exact-length unpack, an OK
GET response one ``>QBBI`` pack plus its value. A decoder reads the
opcode and status bytes by index and looks them up in ``_OPS`` /
``_STATUSES``. A traced request is its untraced message with the
16-byte context spliced in after the opcode, so the shapes are written
once. :class:`Request` and :class:`Response` are immutable
``NamedTuple`` records: derive a changed one with ``_replace``.
"""

from __future__ import annotations

import struct
from enum import IntEnum
from typing import Callable, NamedTuple

from repro.common.errors import ReproError

#: Hard cap on one frame's payload. Large enough for a 4k-item batch of
#: 200-byte values, small enough that a garbage length prefix cannot
#: make the server buffer gigabytes.
MAX_FRAME_BYTES = 1 << 20

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


#: Decode tables: a wire byte below their length is its member.
_OPS = tuple(Op)
_STATUSES = tuple(Status)
#: Bound once: every OK message reads it.
_OK = Status.OK

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

_HANDOFF_PHASES = frozenset(range(HANDOFF_BEGIN, HANDOFF_START + 1))


class Request(NamedTuple):
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


class Response(NamedTuple):
    """One decoded response."""

    request_id: int
    op: Op
    status: Status
    value: bytes = b""
    #: SCAN payload: (key, value) pairs.
    pairs: tuple[tuple[int, bytes], ...] = ()
    #: Shadows ``tuple.count``, harmlessly: a response is never searched
    #: as a sequence, so only the field is ever read.
    count: int = 0
    message: str = ""


# ----------------------------------------------------------------------
# Message shapes: one whole-message struct each, for both directions
# ----------------------------------------------------------------------

_LEN = struct.Struct(">I")
#: Request: request id | opcode (the whole of an empty-body request).
_REQ_HEAD = struct.Struct(">QB")
#: Traced request header: request id | opcode | trace id | parent span.
_TRACED_HEAD = struct.Struct(">QBQQ")
_REQ_KEY = struct.Struct(">QBQ")  # GET / DELETE / TRACE: key
_REQ_PUT = struct.Struct(">QBQI")  # key | vlen, value follows
_REQ_BATCH = struct.Struct(">QBI")  # count, items follow
_BATCH_ITEM = struct.Struct(">BQI")  # kind | key | vlen, value follows
_REQ_SCAN = struct.Struct(">QBQQI")  # lo | hi | limit
_REQ_SHARD = struct.Struct(">QBI")  # REPL_ACK: shard
#: REPLICATE: shard | seq | epoch, the WAL record follows.
_REQ_REPLICATE = struct.Struct(">QBIQQ")
#: HANDOFF: phase | shard | seq | epoch, the blob follows.
_REQ_HANDOFF = struct.Struct(">QBBIQQ")
#: Response: request id | opcode | status (the whole of an empty body).
_RESP_HEAD = struct.Struct(">QBB")
_RESP_U32 = struct.Struct(">QBBI")  # OK GET vlen / OK BATCH / OK SCAN count
_RESP_U64 = struct.Struct(">QBBQ")  # OK REPLICATE / REPL_ACK / HANDOFF applied
_PAIR = struct.Struct(">QI")  # SCAN pair: key | vlen, value follows

_REQ_SIZE = _REQ_HEAD.size
_RESP_SIZE = _RESP_HEAD.size


def _check_key(key: int) -> int:
    if not 0 <= key <= MAX_KEY:
        raise ProtocolError(f"key {key} out of u64 range")
    return key


def _wrong_size(what: str, head: int, want: int, have: int) -> ProtocolError:
    """The refusal for a part of a message ``have`` bytes long where
    ``want`` were due, counted from offset ``head`` where it starts."""
    if have < want:
        return ProtocolError(
            f"truncated payload: {what} wants {want - head} bytes, "
            f"has {max(have - head, 0)}"
        )
    return ProtocolError(
        f"{have - want} bytes of trailing garbage after {what}"
    )


def _field_error(
    record, what: str, fields, exc: struct.error
) -> ProtocolError:
    """The refusal for a record one of whose integers did not fit its
    struct: the first field out of its wire range, by name."""
    for name, bits in (("request_id", 64),) + fields:
        value = getattr(record, name)
        if not (isinstance(value, int) and 0 <= value < 1 << bits):
            return ProtocolError(f"{name} {value!r} out of u{bits} range")
    return ProtocolError(f"cannot encode {what}: {exc}")


# ----------------------------------------------------------------------
# Requests: one (encoder, decoder, integer fields) row per opcode
# ----------------------------------------------------------------------


def _encode_empty(req: Request) -> bytes:
    return _REQ_HEAD.pack(req.request_id, req.op)


def _decode_empty(payload: bytes, op: Op) -> Request:
    if len(payload) != _REQ_SIZE:
        raise _wrong_size(
            f"{op.name} body", _REQ_SIZE, _REQ_SIZE, len(payload)
        )
    return Request(_REQ_HEAD.unpack(payload)[0], op)


def _encode_key(req: Request) -> bytes:
    return _REQ_KEY.pack(req.request_id, req.op, req.key)


def _decode_key(payload: bytes, op: Op) -> Request:
    if len(payload) != _REQ_KEY.size:
        raise _wrong_size(
            f"{op.name} body", _REQ_SIZE, _REQ_KEY.size, len(payload)
        )
    request_id, _, key = _REQ_KEY.unpack(payload)
    return Request(request_id, op, key)


def _encode_put(req: Request) -> bytes:
    value = req.value
    return _REQ_PUT.pack(req.request_id, req.op, req.key, len(value)) + value


def _decode_put(payload: bytes, op: Op) -> Request:
    n = len(payload)
    size = _REQ_PUT.size
    if n < size:
        raise _wrong_size("PUT body", _REQ_SIZE, size, n)
    request_id, _, key, vlen = _REQ_PUT.unpack_from(payload)
    if n != size + vlen:
        raise _wrong_size("PUT body", _REQ_SIZE, size + vlen, n)
    return Request(request_id, op, key, payload[size:])


def _encode_batch(req: Request) -> bytes:
    parts = [_REQ_BATCH.pack(req.request_id, req.op, len(req.items))]
    for kind, key, value in req.items:
        if kind != KIND_PUT and kind != KIND_DELETE:
            raise ProtocolError(f"bad batch item kind {kind}")
        if kind == KIND_DELETE and value:
            raise ProtocolError("batch delete item carries a value")
        parts.append(_BATCH_ITEM.pack(kind, _check_key(key), len(value)))
        parts.append(value)
    return b"".join(parts)


def _decode_batch(payload: bytes, op: Op) -> Request:
    n = len(payload)
    pos = _REQ_BATCH.size
    if n < pos:
        raise _wrong_size("BATCH body", _REQ_SIZE, pos, n)
    request_id, _, count = _REQ_BATCH.unpack_from(payload)
    item = _BATCH_ITEM.size
    items = []
    for _ in range(count):
        if n - pos < item:
            raise _wrong_size("BATCH item", pos, pos + item, n)
        kind, key, vlen = _BATCH_ITEM.unpack_from(payload, pos)
        if kind != KIND_PUT and kind != KIND_DELETE:
            raise ProtocolError(f"bad batch item kind {kind}")
        if kind == KIND_DELETE and vlen:
            raise ProtocolError("batch delete item carries a value")
        pos += item
        end = pos + vlen
        if end > n:
            raise _wrong_size("BATCH item value", pos, end, n)
        items.append((kind, key, payload[pos:end]))
        pos = end
    if pos != n:
        raise _wrong_size("BATCH body", _REQ_SIZE, pos, n)
    return Request(request_id, op, items=tuple(items))


def _encode_scan(req: Request) -> bytes:
    return _REQ_SCAN.pack(req.request_id, req.op, req.lo, req.hi, req.limit)


def _decode_scan(payload: bytes, op: Op) -> Request:
    if len(payload) != _REQ_SCAN.size:
        raise _wrong_size(
            "SCAN body", _REQ_SIZE, _REQ_SCAN.size, len(payload)
        )
    request_id, _, lo, hi, limit = _REQ_SCAN.unpack(payload)
    return Request(request_id, op, lo=lo, hi=hi, limit=limit)


def _encode_shard(req: Request) -> bytes:
    return _REQ_SHARD.pack(req.request_id, req.op, req.shard)


def _decode_shard(payload: bytes, op: Op) -> Request:
    if len(payload) != _REQ_SHARD.size:
        raise _wrong_size(
            f"{op.name} body", _REQ_SIZE, _REQ_SHARD.size, len(payload)
        )
    request_id, _, shard = _REQ_SHARD.unpack(payload)
    return Request(request_id, op, shard=shard)


def _encode_replicate(req: Request) -> bytes:
    head = _REQ_REPLICATE.pack(
        req.request_id, req.op, req.shard, req.seq, req.epoch
    )
    return head + req.value


def _decode_replicate(payload: bytes, op: Op) -> Request:
    size = _REQ_REPLICATE.size
    if len(payload) < size:
        raise _wrong_size("REPLICATE body", _REQ_SIZE, size, len(payload))
    request_id, _, shard, seq, epoch = _REQ_REPLICATE.unpack_from(payload)
    return Request(
        request_id, op, value=payload[size:], shard=shard, seq=seq,
        epoch=epoch,
    )


def _encode_handoff(req: Request) -> bytes:
    if req.phase not in _HANDOFF_PHASES:
        raise ProtocolError(f"bad handoff phase {req.phase}")
    head = _REQ_HANDOFF.pack(
        req.request_id, req.op, req.phase, req.shard, req.seq, req.epoch
    )
    return head + req.value


def _decode_handoff(payload: bytes, op: Op) -> Request:
    size = _REQ_HANDOFF.size
    if len(payload) < size:
        raise _wrong_size("HANDOFF body", _REQ_SIZE, size, len(payload))
    request_id, _, phase, shard, seq, epoch = _REQ_HANDOFF.unpack_from(payload)
    if phase not in _HANDOFF_PHASES:
        raise ProtocolError(f"bad handoff phase {phase}")
    return Request(
        request_id, op, value=payload[size:], shard=shard, seq=seq,
        epoch=epoch, phase=phase,
    )


_KEY_FIELD = (("key", 64),)
_CLUSTER_FIELDS = (("shard", 32), ("seq", 64), ("epoch", 64))

#: op -> (encoder of its untraced message, decoder of that message,
#: the integer fields it carries besides the request id).
_REQUEST_CODEC: dict[Op, tuple[Callable, Callable, tuple]] = {
    Op.PING: (_encode_empty, _decode_empty, ()),
    Op.GET: (_encode_key, _decode_key, _KEY_FIELD),
    Op.PUT: (_encode_put, _decode_put, _KEY_FIELD),
    Op.DELETE: (_encode_key, _decode_key, _KEY_FIELD),
    Op.BATCH: (_encode_batch, _decode_batch, ()),
    Op.SCAN: (
        _encode_scan, _decode_scan, (("lo", 64), ("hi", 64), ("limit", 32))
    ),
    Op.STATS: (_encode_empty, _decode_empty, ()),
    Op.SHUTDOWN: (_encode_empty, _decode_empty, ()),
    Op.TRACE: (_encode_key, _decode_key, _KEY_FIELD),
    Op.REPLICATE: (_encode_replicate, _decode_replicate, _CLUSTER_FIELDS),
    Op.REPL_ACK: (_encode_shard, _decode_shard, (("shard", 32),)),
    Op.HANDOFF: (_encode_handoff, _decode_handoff, _CLUSTER_FIELDS),
    Op.CLUSTER_STATUS: (_encode_empty, _decode_empty, ()),
}
#: Indexed by opcode (KeyError at import if an op has no row).
_REQUEST_DECODERS = tuple(_REQUEST_CODEC[op][1] for op in _OPS)


def encode_request(req: Request) -> bytes:
    """Serialize a request payload (no frame header)."""
    row = _REQUEST_CODEC.get(req.op)
    if row is None:
        raise ProtocolError(f"unknown opcode {req.op!r}")
    try:
        payload = row[0](req)
    except struct.error as exc:
        raise _field_error(req, f"{req.op!r} request", row[2], exc) from None
    if not req.trace_id:
        return payload
    if not 0 < req.trace_id <= MAX_KEY:
        raise ProtocolError(f"trace id {req.trace_id} out of u64 range")
    if not 0 <= req.parent_span_id <= MAX_KEY:
        raise ProtocolError(
            f"parent span id {req.parent_span_id} out of u64 range"
        )
    return (
        _TRACED_HEAD.pack(
            req.request_id, req.op | TRACE_FLAG, req.trace_id,
            req.parent_span_id,
        )
        + payload[_REQ_SIZE:]
    )


def decode_request(payload: bytes) -> Request:
    """Parse a request payload; raises :class:`ProtocolError` on any
    violation (bad opcode, truncated body, trailing garbage)."""
    if len(payload) < _REQ_SIZE:
        raise _wrong_size("request header", 0, _REQ_SIZE, len(payload))
    raw = payload[8]
    traced = raw & TRACE_FLAG
    if traced:
        if len(payload) < _TRACED_HEAD.size:
            raise _wrong_size(
                "trace header", _REQ_SIZE, _TRACED_HEAD.size, len(payload)
            )
        _, _, trace_id, parent_span_id = _TRACED_HEAD.unpack_from(payload)
        if not trace_id:
            raise ProtocolError("trace header present but trace id is 0")
        # Decode the untraced message: context cut out, flag cleared.
        raw ^= TRACE_FLAG
        payload = payload[:8] + bytes((raw,)) + payload[_TRACED_HEAD.size :]
    if raw >= len(_OPS):
        raise ProtocolError(f"unknown opcode {raw}")
    request = _REQUEST_DECODERS[raw](payload, _OPS[raw])
    if traced:
        return request._replace(
            trace_id=trace_id, parent_span_id=parent_span_id
        )
    return request


# ----------------------------------------------------------------------
# Responses: a message status or NOT_FOUND is op-independent; an OK
# body has one (encoder, decoder, integer fields) row per opcode
# ----------------------------------------------------------------------


def _encode_ok_empty(resp: Response) -> bytes:
    return _RESP_HEAD.pack(resp.request_id, resp.op, _OK)


def _decode_ok_empty(payload: bytes, op: Op) -> Response:
    if len(payload) != _RESP_SIZE:
        raise _wrong_size(
            f"OK {op.name} body", _RESP_SIZE, _RESP_SIZE, len(payload)
        )
    return Response(_RESP_HEAD.unpack(payload)[0], op, _OK)


def _encode_ok_value(resp: Response) -> bytes:
    value = resp.value
    return _RESP_U32.pack(resp.request_id, resp.op, _OK, len(value)) + value


def _decode_ok_value(payload: bytes, op: Op) -> Response:
    n = len(payload)
    size = _RESP_U32.size
    if n < size:
        raise _wrong_size("OK GET body", _RESP_SIZE, size, n)
    request_id, _, _, vlen = _RESP_U32.unpack_from(payload)
    if n != size + vlen:
        raise _wrong_size("OK GET body", _RESP_SIZE, size + vlen, n)
    return Response(request_id, op, _OK, payload[size:])


def _encode_ok_u32(resp: Response) -> bytes:
    return _RESP_U32.pack(resp.request_id, resp.op, _OK, resp.count)


def _decode_ok_u32(payload: bytes, op: Op) -> Response:
    if len(payload) != _RESP_U32.size:
        raise _wrong_size(
            f"OK {op.name} body", _RESP_SIZE, _RESP_U32.size, len(payload)
        )
    request_id, _, _, count = _RESP_U32.unpack(payload)
    return Response(request_id, op, _OK, count=count)


def _encode_ok_u64(resp: Response) -> bytes:
    return _RESP_U64.pack(resp.request_id, resp.op, _OK, resp.count)


def _decode_ok_u64(payload: bytes, op: Op) -> Response:
    if len(payload) != _RESP_U64.size:
        raise _wrong_size(
            f"OK {op.name} body", _RESP_SIZE, _RESP_U64.size, len(payload)
        )
    request_id, _, _, count = _RESP_U64.unpack(payload)
    return Response(request_id, op, _OK, count=count)


def _encode_ok_scan(resp: Response) -> bytes:
    parts = [_RESP_U32.pack(resp.request_id, resp.op, _OK, len(resp.pairs))]
    for key, value in resp.pairs:
        parts.append(_PAIR.pack(_check_key(key), len(value)))
        parts.append(value)
    return b"".join(parts)


def _decode_ok_scan(payload: bytes, op: Op) -> Response:
    n = len(payload)
    pos = _RESP_U32.size
    if n < pos:
        raise _wrong_size("OK SCAN body", _RESP_SIZE, pos, n)
    request_id, _, _, count = _RESP_U32.unpack_from(payload)
    pair = _PAIR.size
    pairs = []
    for _ in range(count):
        if n - pos < pair:
            raise _wrong_size("SCAN pair", pos, pos + pair, n)
        key, vlen = _PAIR.unpack_from(payload, pos)
        pos += pair
        end = pos + vlen
        if end > n:
            raise _wrong_size("SCAN pair value", pos, end, n)
        pairs.append((key, payload[pos:end]))
        pos = end
    if pos != n:
        raise _wrong_size("OK SCAN body", _RESP_SIZE, pos, n)
    return Response(request_id, op, _OK, pairs=tuple(pairs))


def _encode_ok_blob(resp: Response) -> bytes:
    return _RESP_HEAD.pack(resp.request_id, resp.op, _OK) + resp.value


def _decode_ok_blob(payload: bytes, op: Op) -> Response:
    request_id = _RESP_HEAD.unpack_from(payload)[0]
    return Response(request_id, op, _OK, payload[_RESP_SIZE:])


_OK_EMPTY = (_encode_ok_empty, _decode_ok_empty, ())
_OK_BLOB = (_encode_ok_blob, _decode_ok_blob, ())
_OK_APPLIED = (_encode_ok_u64, _decode_ok_u64, (("count", 64),))

#: op -> (encoder of its OK response, decoder of that message, the
#: integer fields it carries besides the request id).
_RESPONSE_CODEC: dict[Op, tuple[Callable, Callable, tuple]] = {
    Op.PING: _OK_EMPTY,
    Op.GET: (_encode_ok_value, _decode_ok_value, ()),
    Op.PUT: _OK_EMPTY,
    Op.DELETE: _OK_EMPTY,
    Op.BATCH: (_encode_ok_u32, _decode_ok_u32, (("count", 32),)),
    Op.SCAN: (_encode_ok_scan, _decode_ok_scan, ()),
    Op.STATS: _OK_BLOB,
    Op.SHUTDOWN: _OK_EMPTY,
    Op.TRACE: _OK_BLOB,
    Op.REPLICATE: _OK_APPLIED,
    Op.REPL_ACK: _OK_APPLIED,
    Op.HANDOFF: _OK_APPLIED,
    Op.CLUSTER_STATUS: _OK_BLOB,
}
#: Indexed by opcode (KeyError at import if an op has no row).
_OK_DECODERS = tuple(_RESPONSE_CODEC[op][1] for op in _OPS)


def _encode_status(resp: Response) -> bytes:
    """NOT_FOUND (empty), or BUSY / ERROR / SHUTTING_DOWN (message)."""
    head = _RESP_HEAD.pack(resp.request_id, resp.op, resp.status)
    if resp.status == Status.NOT_FOUND:
        return head
    return head + resp.message.encode("utf-8")


def encode_response(resp: Response) -> bytes:
    """Serialize a response payload (no frame header)."""
    if resp.status == _OK:
        row = _RESPONSE_CODEC.get(resp.op)
        if row is None:
            raise ProtocolError(f"unknown opcode {resp.op!r}")
        encode, fields = row[0], row[2]
    else:
        encode, fields = _encode_status, ()
    try:
        return encode(resp)
    except struct.error as exc:
        raise _field_error(
            resp, f"{resp.op!r} response", fields, exc
        ) from None


def decode_response(payload: bytes) -> Response:
    """Parse a response payload (client side of :func:`encode_response`)."""
    if len(payload) < _RESP_SIZE:
        raise _wrong_size("response header", 0, _RESP_SIZE, len(payload))
    raw_op = payload[8]
    raw_status = payload[9]
    if raw_op >= len(_OPS):
        raise ProtocolError(f"unknown opcode {raw_op}")
    if raw_status >= len(_STATUSES):
        raise ProtocolError(f"unknown status {raw_status}")
    op = _OPS[raw_op]
    if raw_status == _OK:
        return _OK_DECODERS[raw_op](payload, op)
    status = _STATUSES[raw_status]
    request_id = _RESP_HEAD.unpack_from(payload)[0]
    if status is Status.NOT_FOUND:
        if len(payload) != _RESP_SIZE:
            raise _wrong_size(
                "NOT_FOUND body", _RESP_SIZE, _RESP_SIZE, len(payload)
            )
        return Response(request_id, op, status)
    message = payload[_RESP_SIZE:].decode("utf-8", errors="replace")
    return Response(request_id, op, status, message=message)


def frame(payload: bytes) -> bytes:
    """Wrap a payload in its length prefix."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"payload of {len(payload)} bytes exceeds MAX_FRAME_BYTES"
        )
    return _LEN.pack(len(payload)) + payload


class FrameAssembler:
    """Incremental frame splitter for a byte stream.

    Feed it arbitrary chunks as they arrive; it yields complete
    payloads and keeps partial frames buffered. A length prefix larger
    than :data:`MAX_FRAME_BYTES` raises :class:`ProtocolError`
    immediately — before the (possibly absurd) payload is buffered.
    With nothing buffered, complete frames are sliced straight out of
    the chunk and only its tail is kept.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        buf = self._buf
        if buf:
            buf += data
            data = buf
        frames: list[bytes] = []
        prefix = _LEN.size
        pos = 0
        end = len(data)
        while end - pos >= prefix:
            (length,) = _LEN.unpack_from(data, pos)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"frame of {length} bytes exceeds MAX_FRAME_BYTES"
                )
            start = pos + prefix
            if end - start < length:
                break
            pos = start + length
            frames.append(bytes(data[start:pos]))
        if data is buf:
            del buf[:pos]
        elif pos < end:
            buf += data[pos:]
        return frames

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards an incomplete frame."""
        return len(self._buf)
