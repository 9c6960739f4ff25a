"""Wire protocol: encode/decode round-trips, malformed-frame rejection,
and the incremental frame assembler."""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server.protocol import (
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
