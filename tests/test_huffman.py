"""Huffman coding: optimality, prefix-freedom, and the paper's worked
examples."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.coding.huffman import huffman_code_lengths
from repro.coding.kraft import CanonicalCode, kraft_sum


def entropy(weights: dict) -> float:
    total = sum(weights.values())
    return -sum(
        (w / total) * math.log2(w / total) for w in weights.values() if w > 0
    )


class TestHuffmanLengths:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            huffman_code_lengths({})

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            huffman_code_lengths({"a": -1.0})

    def test_single_symbol_gets_one_bit(self):
        """The ACL cannot drop below one bit per symbol (section 4.2)."""
        assert huffman_code_lengths({"only": 1.0}) == {"only": 1}

    def test_two_symbols(self):
        lengths = huffman_code_lengths({"a": 0.9, "b": 0.1})
        assert lengths == {"a": 1, "b": 1}

    def test_classic_example(self):
        lengths = huffman_code_lengths({"a": 45, "b": 13, "c": 12, "d": 16, "e": 9, "f": 5})
        acl = sum(lengths[s] * w for s, w in
                  {"a": 45, "b": 13, "c": 12, "d": 16, "e": 9, "f": 5}.items()) / 100
        assert lengths["a"] == 1
        assert acl == pytest.approx(2.24)

    def test_more_probable_never_longer(self):
        weights = {i: 2.0**-i for i in range(1, 10)}
        lengths = huffman_code_lengths(weights)
        for i in range(1, 9):
            assert lengths[i] <= lengths[i + 1]

    def test_dyadic_distribution_hits_entropy(self):
        weights = {"a": 0.5, "b": 0.25, "c": 0.125, "d": 0.125}
        lengths = huffman_code_lengths(weights)
        acl = sum(lengths[s] * w for s, w in weights.items())
        assert acl == pytest.approx(entropy(weights))

    def test_deterministic_for_equal_weights(self):
        w = {i: 1.0 for i in range(7)}
        assert huffman_code_lengths(w) == huffman_code_lengths(dict(w))


@given(
    st.dictionaries(
        st.integers(0, 200),
        st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=60,
    )
)
def test_lengths_satisfy_kraft(weights):
    """Property: Huffman lengths always admit a prefix code."""
    lengths = huffman_code_lengths(weights)
    assert kraft_sum(lengths) <= 1


@given(
    st.dictionaries(
        st.integers(0, 200),
        st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=60,
    )
)
def test_acl_within_one_bit_of_entropy(weights):
    """Property: H <= ACL < H + 1 (the paper's section 4.2 bound)."""
    lengths = huffman_code_lengths(weights)
    total = sum(weights.values())
    acl = sum(lengths[s] * w / total for s, w in weights.items())
    h = entropy(weights)
    assert h - 1e-9 <= acl < h + 1 + 1e-9


@given(
    st.dictionaries(
        st.integers(0, 100),
        st.floats(min_value=1e-6, max_value=1e3, allow_nan=False),
        min_size=1,
        max_size=40,
    ),
    st.data(),
)
def test_huffman_code_encode_decode(weights, data):
    """Property: encoding a random symbol stream and decoding it symbol
    by symbol recovers the stream (prefix-freedom in action)."""
    code = CanonicalCode(huffman_code_lengths(weights))
    symbols = data.draw(
        st.lists(st.sampled_from(sorted(weights)), min_size=1, max_size=20)
    )
    bits = 0
    length = 0
    for s in symbols:
        cw, l = code.encode(s)
        bits = (bits << l) | cw
        length += l
    out = []
    pos = 0
    while pos < length:
        sym, used = code.decode_prefix(
            (bits >> 0) & ((1 << (length - pos)) - 1), length - pos
        )
        out.append(sym)
        pos += used
    assert out == symbols

