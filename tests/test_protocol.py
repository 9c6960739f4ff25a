"""Wire protocol: encode/decode round-trips, malformed-frame rejection,
and the incremental frame assembler."""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server import protocol
from repro.server.protocol import (
    HANDOFF_BEGIN,
    HANDOFF_START,
    KIND_DELETE,
    KIND_PUT,
    MAX_FRAME_BYTES,
    FrameAssembler,
    Op,
    ProtocolError,
    Request,
    Response,
    Status,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    frame,
)
from tests import reference_protocol as reference


def sample_requests(rng):
    """One request of every shape, with randomized fields."""
    key = rng.randrange(1 << 64)
    rid = rng.randrange(1 << 64)
    value = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
    items = tuple(
        (KIND_DELETE, rng.randrange(1 << 64), b"")
        if rng.random() < 0.3
        else (KIND_PUT, rng.randrange(1 << 64), bytes([rng.randrange(256)]))
        for _ in range(rng.randrange(8))
    )
    return [
        Request(rid, Op.PING),
        Request(rid, Op.GET, key=key),
        Request(rid, Op.PUT, key=key, value=value),
        Request(rid, Op.DELETE, key=key),
        Request(rid, Op.BATCH, items=items),
        Request(rid, Op.SCAN, lo=key // 2, hi=key, limit=rng.randrange(100)),
        Request(rid, Op.STATS),
        Request(rid, Op.SHUTDOWN),
    ]


def sample_responses(rng):
    rid = rng.randrange(1 << 64)
    value = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
    pairs = tuple(
        (rng.randrange(1 << 64), bytes([rng.randrange(256)]))
        for _ in range(rng.randrange(6))
    )
    return [
        Response(rid, Op.PING, Status.OK),
        Response(rid, Op.GET, Status.OK, value=value),
        Response(rid, Op.GET, Status.NOT_FOUND),
        Response(rid, Op.PUT, Status.OK),
        Response(rid, Op.PUT, Status.BUSY, message="server overloaded"),
        Response(rid, Op.DELETE, Status.OK),
        Response(rid, Op.BATCH, Status.OK, count=rng.randrange(1000)),
        Response(rid, Op.SCAN, Status.OK, pairs=pairs),
        Response(rid, Op.STATS, Status.OK, value=b'{"server": {}}'),
        Response(rid, Op.SHUTDOWN, Status.OK),
        Response(rid, Op.GET, Status.ERROR, message="KeyError: boom"),
        Response(rid, Op.PUT, Status.SHUTTING_DOWN, message="draining"),
    ]


class TestRequestRoundTrip:
    def test_every_op_round_trips(self):
        rng = random.Random(7)
        for _ in range(50):
            for req in sample_requests(rng):
                assert decode_request(encode_request(req)) == req

    def test_request_id_is_preserved_verbatim(self):
        for rid in (0, 1, (1 << 64) - 1):
            req = Request(rid, Op.GET, key=42)
            assert decode_request(encode_request(req)).request_id == rid

    def test_empty_and_large_values(self):
        for value in (b"", b"x" * 10_000):
            req = Request(1, Op.PUT, key=9, value=value)
            assert decode_request(encode_request(req)).value == value

    def test_key_out_of_u64_range_rejected_at_encode(self):
        with pytest.raises(ProtocolError):
            encode_request(Request(1, Op.GET, key=1 << 64))
        with pytest.raises(ProtocolError):
            encode_request(Request(1, Op.GET, key=-1))

    def test_batch_delete_with_value_rejected(self):
        with pytest.raises(ProtocolError):
            encode_request(
                Request(1, Op.BATCH, items=((KIND_DELETE, 5, b"v"),))
            )

    def test_batch_bad_kind_rejected(self):
        with pytest.raises(ProtocolError):
            encode_request(Request(1, Op.BATCH, items=((9, 5, b""),)))


class TestResponseRoundTrip:
    def test_every_shape_round_trips(self):
        rng = random.Random(11)
        for _ in range(50):
            for resp in sample_responses(rng):
                assert decode_response(encode_response(resp)) == resp

    def test_error_message_survives(self):
        resp = Response(3, Op.GET, Status.ERROR, message="ValueError: bad")
        assert decode_response(encode_response(resp)).message == resp.message


class TestMalformedPayloads:
    """A bad payload must raise ProtocolError — never IndexError,
    struct.error, or a silent partial parse."""

    def test_truncated_everywhere(self):
        rng = random.Random(23)
        for req in sample_requests(rng):
            payload = encode_request(req)
            for cut in range(len(payload)):
                if cut == len(payload):
                    continue
                with pytest.raises(ProtocolError):
                    decode_request(payload[:cut])

    def test_truncated_responses(self):
        rng = random.Random(29)
        for resp in sample_responses(rng):
            payload = encode_response(resp)
            # Statuses that carry a free-form message treat the whole
            # tail as the message, so any prefix >= the header parses.
            if resp.status in (
                Status.BUSY, Status.ERROR, Status.SHUTTING_DOWN
            ):
                continue
            if resp.op is Op.STATS and resp.status is Status.OK:
                continue  # STATS body is also take-the-rest
            for cut in range(len(payload)):
                with pytest.raises(ProtocolError):
                    decode_response(payload[:cut])

    def test_trailing_garbage_rejected(self):
        payload = encode_request(Request(1, Op.GET, key=5))
        with pytest.raises(ProtocolError):
            decode_request(payload + b"\x00")

    def test_unknown_opcode_rejected(self):
        payload = struct.pack(">QB", 1, 200)
        with pytest.raises(ProtocolError):
            decode_request(payload)

    def test_zero_trace_id_rejected(self):
        payload = struct.pack(">QBQQ", 1, int(Op.GET) | 0x80, 0, 5)
        with pytest.raises(ProtocolError, match="trace id is 0"):
            decode_request(payload + struct.pack(">Q", 9))

    def test_unknown_status_rejected(self):
        payload = struct.pack(">QBB", 1, int(Op.GET), 99)
        with pytest.raises(ProtocolError):
            decode_response(payload)

    def test_batch_count_lies_about_items(self):
        # count says 3 items but only 1 follows
        body = struct.pack(">I", 3) + bytes([KIND_PUT]) + struct.pack(
            ">QI", 1, 0
        )
        payload = struct.pack(">QB", 1, int(Op.BATCH)) + body
        with pytest.raises(ProtocolError):
            decode_request(payload)

    def test_put_vlen_exceeds_payload(self):
        payload = struct.pack(">QB", 1, int(Op.PUT)) + struct.pack(
            ">QI", 5, 1000
        ) + b"short"
        with pytest.raises(ProtocolError):
            decode_request(payload)

    def test_pure_garbage(self):
        rng = random.Random(31)
        for _ in range(200):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(40)))
            try:
                decode_request(blob)
            except ProtocolError:
                pass  # the only acceptable exception


def _encodings(seed: int) -> list[bytes]:
    rng = random.Random(seed)
    return [encode_request(r) for r in sample_requests(rng)] + [
        encode_response(r) for r in sample_responses(rng)
    ]


def _decode_or_refuse(decode, payload: bytes):
    """The decoded message, or ``None`` on ProtocolError; any other
    exception escapes and fails the caller."""
    try:
        return decode(payload)
    except ProtocolError:
        return None


class TestHostilePayloads:
    """Arbitrary bytes into either decoder give a message or
    ProtocolError — never ``struct.error``, ``IndexError``,
    ``ValueError`` or ``UnicodeDecodeError``."""

    @settings(max_examples=500)
    @given(st.binary(max_size=64))
    def test_arbitrary_bytes(self, payload):
        req = _decode_or_refuse(decode_request, payload)
        if req is not None:
            # Whatever parses is canonical: it re-encodes to its bytes.
            assert encode_request(req) == payload
        _decode_or_refuse(decode_response, payload)

    @settings(max_examples=500)
    @given(
        st.integers(0, 2**64 - 1),
        st.integers(0, 255),
        st.integers(0, 255),
        st.binary(max_size=48),
    )
    def test_every_op_and_status_with_an_arbitrary_body(
        self, rid, op, status, body
    ):
        """A well-formed header reaches every op's body decoder."""
        req = _decode_or_refuse(decode_request, struct.pack(">QB", rid, op) + body)
        if req is not None:
            assert encode_request(req) == struct.pack(">QB", rid, op) + body
        _decode_or_refuse(
            decode_response, struct.pack(">QBB", rid, op, status) + body
        )

    @settings(max_examples=300)
    @given(st.integers(0, 2**32), st.data())
    def test_mutated_encodings(self, seed, data):
        for payload in _encodings(seed):
            mutated = bytearray(payload)
            for _ in range(data.draw(st.integers(0, 3))):
                if mutated:
                    mutated[data.draw(st.integers(0, len(mutated) - 1))] = (
                        data.draw(st.integers(0, 255))
                    )
            mutated = bytes(mutated[: data.draw(st.integers(0, len(mutated)))])
            _decode_or_refuse(decode_request, mutated)
            _decode_or_refuse(decode_response, mutated)


class TestFraming:
    def test_frame_prefixes_length(self):
        payload = b"hello"
        framed = frame(payload)
        assert framed == struct.pack(">I", 5) + payload

    def test_frame_rejects_oversize(self):
        with pytest.raises(ProtocolError):
            frame(b"x" * (MAX_FRAME_BYTES + 1))


class TestFrameAssembler:
    def test_single_frame(self):
        asm = FrameAssembler()
        assert asm.feed(frame(b"abc")) == [b"abc"]
        assert asm.pending_bytes == 0

    def test_byte_at_a_time(self):
        payloads = [b"", b"x", b"hello world", b"\x00" * 100]
        stream = b"".join(frame(p) for p in payloads)
        asm = FrameAssembler()
        got = []
        for i in range(len(stream)):
            got.extend(asm.feed(stream[i : i + 1]))
        assert got == payloads
        assert asm.pending_bytes == 0

    def test_many_frames_in_one_chunk(self):
        payloads = [encode_request(Request(i, Op.PING)) for i in range(20)]
        stream = b"".join(frame(p) for p in payloads)
        asm = FrameAssembler()
        assert asm.feed(stream) == payloads

    def test_random_chunking(self):
        rng = random.Random(41)
        payloads = [
            bytes(rng.randrange(256) for _ in range(rng.randrange(50)))
            for _ in range(30)
        ]
        stream = b"".join(frame(p) for p in payloads)
        asm = FrameAssembler()
        got = []
        pos = 0
        while pos < len(stream):
            step = rng.randrange(1, 17)
            got.extend(asm.feed(stream[pos : pos + step]))
            pos += step
        assert got == payloads

    def test_oversize_length_prefix_raises_before_buffering(self):
        asm = FrameAssembler()
        with pytest.raises(ProtocolError):
            asm.feed(struct.pack(">I", MAX_FRAME_BYTES + 1))

    def test_partial_frame_stays_pending(self):
        asm = FrameAssembler()
        framed = frame(b"abcdef")
        assert asm.feed(framed[:7]) == []
        assert asm.pending_bytes == 7
        assert asm.feed(framed[7:]) == [b"abcdef"]


class TestFrameAssemblerTail:
    def test_whole_frames_plus_a_partial_tail_in_one_chunk(self):
        payloads = [b"first", b"", b"third payload"]
        tail = frame(b"fourth")
        asm = FrameAssembler()
        chunk = b"".join(frame(p) for p in payloads) + tail[:6]
        assert asm.feed(chunk) == payloads
        assert asm.pending_bytes == 6
        assert asm.feed(tail[6:] + frame(b"fifth")[:2]) == [b"fourth"]
        assert asm.pending_bytes == 2
        assert asm.feed(frame(b"fifth")[2:]) == [b"fifth"]
        assert asm.pending_bytes == 0

    def test_oversize_prefix_in_the_tail_is_refused(self):
        chunk = frame(b"fine") + struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="MAX_FRAME_BYTES"):
            FrameAssembler().feed(chunk + b"x" * 10)
        # Also when the prefix completes a tail buffered by an earlier feed.
        asm = FrameAssembler()
        assert asm.feed(frame(b"fine") + b"\x7f\xff") == [b"fine"]
        with pytest.raises(ProtocolError, match="MAX_FRAME_BYTES"):
            asm.feed(b"\xff\xff")


# ----------------------------------------------------------------------
# The encoders refuse out-of-range integers by name
# ----------------------------------------------------------------------

#: The integer fields each op's request carries, with their wire widths.
REQUEST_INT_FIELDS = {
    Op.PING: (),
    Op.GET: (("key", 64),),
    Op.PUT: (("key", 64),),
    Op.DELETE: (("key", 64),),
    Op.BATCH: (),
    Op.SCAN: (("lo", 64), ("hi", 64), ("limit", 32)),
    Op.STATS: (),
    Op.SHUTDOWN: (),
    Op.TRACE: (("key", 64),),
    Op.REPLICATE: (("shard", 32), ("seq", 64), ("epoch", 64)),
    Op.REPL_ACK: (("shard", 32),),
    Op.HANDOFF: (("shard", 32), ("seq", 64), ("epoch", 64)),
    Op.CLUSTER_STATUS: (),
}

#: The integer fields each op's OK response carries.
RESPONSE_INT_FIELDS = {op: () for op in Op} | {
    Op.BATCH: (("count", 32),),
    Op.REPLICATE: (("count", 64),),
    Op.REPL_ACK: (("count", 64),),
    Op.HANDOFF: (("count", 64),),
}


def _out_of_range(bits):
    return (("neg", -1), ("wide", 1 << bits))


REQUEST_RANGE_CASES = [
    pytest.param(op, field, bad, id=f"{op.name}-{field}-{tag}")
    for op in Op
    for field, bits in (("request_id", 64),) + REQUEST_INT_FIELDS[op]
    + (("trace_id", 64), ("parent_span_id", 64))
    for tag, bad in _out_of_range(bits)
]

RESPONSE_RANGE_CASES = [
    pytest.param(
        op, status, field, bad, id=f"{op.name}-{status.name}-{field}-{tag}"
    )
    for op in Op
    for status in Status
    for field, bits in (("request_id", 64),)
    + (RESPONSE_INT_FIELDS[op] if status is Status.OK else ())
    for tag, bad in _out_of_range(bits)
]


def _field_pattern(field):
    """A ProtocolError names its field (``trace_id`` as "trace id")."""
    return field.replace("_", "[_ ]")


class TestEncoderRanges:
    @pytest.mark.parametrize("op,field,bad", REQUEST_RANGE_CASES)
    def test_request_field_out_of_range(self, op, field, bad):
        fields = {field: bad}
        if field == "parent_span_id":
            fields["trace_id"] = 1  # the span id travels only when traced
        req = Request(1, op)._replace(**fields)
        with pytest.raises(ProtocolError, match=_field_pattern(field)):
            encode_request(req)

    @pytest.mark.parametrize("op,status,field,bad", RESPONSE_RANGE_CASES)
    def test_response_field_out_of_range(self, op, status, field, bad):
        resp = Response(1, op, status)._replace(**{field: bad})
        with pytest.raises(ProtocolError, match=_field_pattern(field)):
            encode_response(resp)

    @pytest.mark.parametrize("bad", [-1, 1 << 64])
    def test_batch_item_and_scan_pair_keys(self, bad):
        with pytest.raises(ProtocolError, match="key"):
            encode_request(Request(1, Op.BATCH, items=((KIND_PUT, bad, b"v"),)))
        with pytest.raises(ProtocolError, match="key"):
            encode_response(Response(1, Op.SCAN, Status.OK, pairs=((bad, b"v"),)))


# ----------------------------------------------------------------------
# Differential oracle: the cursor-parser codec this one replaced
# ----------------------------------------------------------------------

U64 = st.integers(0, 2**64 - 1)
U32 = st.integers(0, 2**32 - 1)
BLOB = st.binary(max_size=24)
BATCH_ITEM = st.one_of(
    st.tuples(st.just(KIND_PUT), U64, BLOB),
    st.tuples(st.just(KIND_DELETE), U64, st.just(b"")),
)

#: Each op's request fields, drawn over their whole wire range.
REQUEST_FIELDS = {
    Op.PING: {},
    Op.GET: {"key": U64},
    Op.PUT: {"key": U64, "value": BLOB},
    Op.DELETE: {"key": U64},
    Op.BATCH: {"items": st.lists(BATCH_ITEM, max_size=4).map(tuple)},
    Op.SCAN: {"lo": U64, "hi": U64, "limit": U32},
    Op.STATS: {},
    Op.SHUTDOWN: {},
    Op.TRACE: {"key": U64},
    Op.REPLICATE: {"shard": U32, "seq": U64, "epoch": U64, "value": BLOB},
    Op.REPL_ACK: {"shard": U32},
    Op.HANDOFF: {
        "phase": st.integers(HANDOFF_BEGIN, HANDOFF_START),
        "shard": U32, "seq": U64, "epoch": U64, "value": BLOB,
    },
    Op.CLUSTER_STATUS: {},
}
TRACE_CONTEXT = st.one_of(
    st.just({}),
    st.fixed_dictionaries(
        {"trace_id": st.integers(1, 2**64 - 1), "parent_span_id": U64}
    ),
)

#: Each op's OK response fields.
OK_FIELDS = {op: {} for op in Op} | {
    Op.GET: {"value": BLOB},
    Op.BATCH: {"count": U32},
    Op.SCAN: {"pairs": st.lists(st.tuples(U64, BLOB), max_size=4).map(tuple)},
    Op.STATS: {"value": BLOB},
    Op.TRACE: {"value": BLOB},
    Op.CLUSTER_STATUS: {"value": BLOB},
    Op.REPLICATE: {"count": U64},
    Op.REPL_ACK: {"count": U64},
    Op.HANDOFF: {"count": U64},
}
MESSAGE = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=16
)


@st.composite
def any_request(draw):
    op = draw(st.sampled_from(list(Op)))
    fields = draw(st.fixed_dictionaries(REQUEST_FIELDS[op]))
    fields.update(draw(TRACE_CONTEXT))
    return Request(draw(U64), op, **fields)


@st.composite
def any_response(draw):
    op = draw(st.sampled_from(list(Op)))
    status = draw(st.sampled_from(list(Status)))
    if status is Status.OK:
        fields = draw(st.fixed_dictionaries(OK_FIELDS[op]))
    elif status is Status.NOT_FOUND:
        fields = {}
    else:
        fields = {"message": draw(MESSAGE)}
    return Response(draw(U64), op, status, **fields)


def _outcome(decode, fields, payload):
    """A decoder's verdict on ``payload``: its field values, or
    ``ProtocolError``. Any other exception fails the caller."""
    try:
        record = decode(payload)
    except ProtocolError:
        return ProtocolError
    return tuple(getattr(record, name) for name in fields)


def _same_verdicts(payload):
    assert _outcome(decode_request, Request._fields, payload) == _outcome(
        reference.decode_request, Request._fields, payload
    )
    assert _outcome(decode_response, Response._fields, payload) == _outcome(
        reference.decode_response, Response._fields, payload
    )


def _mutate(data, payload):
    mutated = bytearray(payload)
    for _ in range(data.draw(st.integers(0, 3))):
        if mutated:
            mutated[data.draw(st.integers(0, len(mutated) - 1))] = data.draw(
                st.integers(0, 255)
            )
    return bytes(mutated[: data.draw(st.integers(0, len(mutated)))])


class TestReferenceOracle:
    """The table-driven codec against the cursor-parser codec it
    replaced (``tests/reference_protocol.py``): identical bytes out of
    every encoder, the same fields or the same refusal out of every
    decoder."""

    def test_field_tables_cover_every_op(self):
        assert set(REQUEST_FIELDS) == set(OK_FIELDS) == set(Op)
        assert set(REQUEST_INT_FIELDS) == set(RESPONSE_INT_FIELDS) == set(Op)

    @settings(max_examples=600)
    @given(any_request())
    def test_request_bytes_are_the_reference_bytes(self, req):
        payload = encode_request(req)
        assert payload == reference.encode_request(reference.Request(*req))
        assert decode_request(payload) == req
        _same_verdicts(payload)

    @settings(max_examples=600)
    @given(any_response())
    def test_response_bytes_are_the_reference_bytes(self, resp):
        payload = encode_response(resp)
        assert payload == reference.encode_response(reference.Response(*resp))
        _same_verdicts(payload)

    @settings(max_examples=500)
    @given(st.binary(max_size=64))
    def test_arbitrary_bytes(self, payload):
        _same_verdicts(payload)

    @settings(max_examples=500)
    @given(any_request(), st.data())
    def test_mutated_and_truncated_requests(self, req, data):
        _same_verdicts(_mutate(data, encode_request(req)))

    @settings(max_examples=500)
    @given(any_response(), st.data())
    def test_mutated_and_truncated_responses(self, resp, data):
        _same_verdicts(_mutate(data, encode_response(resp)))


def every_shape(rng):
    """One encoding of every request op (untraced and traced) and of
    every response op x status, with randomized fields. Batches and
    scans carry one put and one delete item / two pairs."""
    key = rng.randrange(1 << 64)
    value = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 6)))
    fields = {
        Op.GET: {"key": key},
        Op.PUT: {"key": key, "value": value},
        Op.DELETE: {"key": key},
        Op.BATCH: {"items": ((KIND_PUT, key, value), (KIND_DELETE, key, b""))},
        Op.SCAN: {"lo": key // 2, "hi": key, "limit": rng.randrange(1 << 32)},
        Op.TRACE: {"key": key},
        Op.REPLICATE: {"shard": 3, "seq": key, "epoch": 2, "value": value},
        Op.REPL_ACK: {"shard": rng.randrange(1 << 32)},
        Op.HANDOFF: {
            "phase": rng.randrange(HANDOFF_START + 1), "shard": 1,
            "seq": key, "epoch": 4, "value": value,
        },
    }
    ok = {
        Op.GET: {"value": value},
        Op.BATCH: {"count": rng.randrange(1 << 32)},
        Op.SCAN: {"pairs": ((key, value), (key // 3, b""))},
        Op.STATS: {"value": b"{}"},
        Op.TRACE: {"value": value},
        Op.CLUSTER_STATUS: {"value": b"{}"},
        Op.REPLICATE: {"count": key},
        Op.REPL_ACK: {"count": key},
        Op.HANDOFF: {"count": key},
    }
    rid = rng.randrange(1 << 64)
    out = []
    for op in Op:
        req = Request(rid, op, **fields.get(op, {}))
        out.append(encode_request(req))
        traced = req._replace(trace_id=1, parent_span_id=key)
        out.append(encode_request(traced))
        for status in Status:
            if status is Status.OK:
                resp = Response(rid, op, status, **ok.get(op, {}))
            else:
                message = "é" if status != Status.NOT_FOUND else ""
                resp = Response(rid, op, status, message=message)
            out.append(encode_response(resp))
    return out


#: Byte values a one-byte edit writes: the opcode, status, kind and
#: phase boundaries, the trace flag, and the extremes.
EDIT_BYTES = (0, 1, 2, 3, 4, 5, 6, 7, 12, 13, 0x7F, 0x80, 0x81, 0xFF)


class TestReferenceOracleEdits:
    """Every encoding of every shape, edited at every byte: each of
    :data:`EDIT_BYTES` written in place, truncated there, or one byte
    appended. Random mutation seldom writes the one byte that turns a
    put item into a delete carrying a value; this does, everywhere."""

    def test_every_one_byte_edit(self):
        for payload in every_shape(random.Random(43)):
            _same_verdicts(payload + b"\x00")
            for pos in range(len(payload)):
                _same_verdicts(payload[:pos])
                for byte in EDIT_BYTES:
                    edited = bytearray(payload)
                    edited[pos] = byte
                    _same_verdicts(bytes(edited))


class TestRecords:
    def test_decoded_request_is_immutable_and_hashable(self):
        sent = Request(5, Op.BATCH, items=((KIND_PUT, 1, b"v"),), trace_id=9)
        req = decode_request(encode_request(sent))
        assert req == sent and hash(req) == hash(sent)
        with pytest.raises(AttributeError):
            req.key = 3
        resp = decode_response(
            encode_response(Response(5, Op.BATCH, Status.OK, count=4))
        )
        assert resp.count == 4  # the field, not tuple.count
        with pytest.raises(AttributeError):
            resp.status = Status.ERROR

    def test_every_op_and_status_has_a_decode_table_entry(self):
        assert protocol._OPS == tuple(Op)
        assert protocol._STATUSES == tuple(Status)
        for op in Op:
            assert protocol._OPS[op] is op
            assert callable(protocol._REQUEST_DECODERS[op])
            assert callable(protocol._OK_DECODERS[op])
        for status in Status:
            assert protocol._STATUSES[status] is status
        assert len(protocol._REQUEST_DECODERS) == len(Op)
        assert len(protocol._OK_DECODERS) == len(Op)
