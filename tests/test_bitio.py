"""Bit-level I/O: the foundation the bucket codec and persistence rest on."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.bitio import BitReader, BitWriter


class TestBitWriter:
    def test_starts_empty(self):
        w = BitWriter()
        assert w.bit_length == 0
        assert w.getvalue() == 0
        assert w.to_bytes() == b""

    def test_single_field(self):
        w = BitWriter()
        w.write(0b101, 3)
        assert w.bit_length == 3
        assert w.getvalue() == 0b101

    def test_fields_concatenate_msb_first(self):
        w = BitWriter()
        w.write(0b1, 1)
        w.write(0b0101, 4)
        assert w.getvalue() == 0b10101
        assert w.bit_length == 5

    def test_zero_width_write_is_noop(self):
        w = BitWriter()
        w.write(0, 0)
        assert w.bit_length == 0

    def test_value_too_wide_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write(0b100, 2)

    def test_negative_value_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write(-1, 4)

    def test_negative_width_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write(0, -1)

    def test_to_bytes_pads_right(self):
        w = BitWriter()
        w.write(0b1, 1)
        assert w.to_bytes() == bytes([0b10000000])


class TestBitReader:
    def test_read_back(self):
        r = BitReader(0b10101, 5)
        assert r.read(1) == 1
        assert r.read(4) == 0b0101
        assert r.remaining == 0

    def test_read_past_end_raises(self):
        r = BitReader(0, 4)
        r.read(4)
        with pytest.raises(EOFError):
            r.read(1)

    def test_value_wider_than_length_rejected(self):
        with pytest.raises(ValueError):
            BitReader(0b1111, 3)

    def test_skip(self):
        r = BitReader(0b1010, 4)
        r.skip(2)
        assert r.read(2) == 0b10

    def test_skip_past_end_raises(self):
        r = BitReader(0, 2)
        with pytest.raises(EOFError):
            r.skip(3)

    def test_from_bytes(self):
        r = BitReader.from_bytes(bytes([0xAB, 0xCD]))
        assert r.read(8) == 0xAB
        assert r.read(8) == 0xCD


@given(st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 33)), max_size=40))
def test_roundtrip_many_fields(fields):
    """Property: any sequence of (value mod 2^width, width) fields reads
    back exactly."""
    w = BitWriter()
    expected = []
    for value, width in fields:
        value &= (1 << width) - 1
        w.write(value, width)
        expected.append((value, width))
    r = BitReader(w.getvalue(), w.bit_length)
    for value, width in expected:
        assert r.read(width) == value
    assert r.remaining == 0


@given(st.integers(0, 2**64 - 1), st.integers(0, 64))
def test_bytes_roundtrip(value, extra_pad):
    w = BitWriter()
    w.write(value, 64)
    w.write(0, extra_pad)
    r = BitReader.from_bytes(w.to_bytes())
    assert r.read(64) == value


#: One writer call: (value, width). Widths up to 80 cross the writer's
#: chunk boundary and the reader's byte windows at every alignment;
#: enough fields fill several 4096-bit chunks.
FIELDS = st.lists(
    st.tuples(st.integers(0, 2**80 - 1), st.integers(0, 80)),
    max_size=160,
)


def _drive_writer(writer, fields):
    for value, width in fields:
        writer.write(value & ((1 << width) - 1), width)
    return writer


class TestAgainstTheReference:
    """The chunked writer and the windowed reader are the one-int
    reference (``tests/reference_bitio.py``), bit for bit."""

    @given(FIELDS)
    def test_writer_output_matches(self, fields):
        from tests.reference_bitio import ReferenceBitWriter

        fast = _drive_writer(BitWriter(), fields)
        ref = _drive_writer(ReferenceBitWriter(), fields)
        assert fast.bit_length == ref.bit_length
        assert fast.getvalue() == ref.getvalue()
        assert fast.to_bytes() == ref.to_bytes()

    @given(st.binary(max_size=200), st.lists(
        st.tuples(st.sampled_from(["read", "skip"]), st.integers(0, 90)),
        max_size=60,
    ))
    def test_reader_matches(self, data, ops):
        from tests.reference_bitio import ReferenceBitReader

        fast, ref = BitReader.from_bytes(data), ReferenceBitReader.from_bytes(data)
        for op, width in ops:
            if width > ref.remaining:
                with pytest.raises(EOFError):
                    getattr(fast, op)(width)
                continue
            assert getattr(fast, op)(width) == getattr(ref, op)(width)
            assert fast.remaining == ref.remaining
