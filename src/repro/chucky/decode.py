"""Precomputed decode tables and pack/unpack plans for the bucket codec.

The seed decoded combination codes with the canonical first-code/offset
loop (O(#distinct lengths) integer compares per bucket) and then pulled
fingerprints out bit-field-by-bit-field through a bit reader. Both
are pure per-probe CPU cost the paper never modelled — its cached
Huffman tree is assumed CPU-cache resident and effectively free. This
module makes that assumption real for the Python implementation:

* :class:`PrefixDecodeTable` — a byte-at-a-time lookup table over a
  :class:`~repro.coding.kraft.CanonicalCode`. The root table is indexed
  by the leading ``TABLE_BITS`` bits of a bucket; codes longer than one
  chunk chain through subtables. Frequent combination codes are short,
  so almost every bucket decodes in a single list index.
* :class:`BucketFastTables` — per-frequent-combination pack/unpack
  plans: the codeword, its length, and the (LID, shift, mask, digest
  shift) field layout, so packing/unpacking — and matching a probe's
  digest against a bucket — is pure shift/mask arithmetic with no
  bit-stream objects.

Everything here is *derived* state, built once per codebook rebuild
(i.e. once per LSM-tree geometry change) and bit-identical to the
bit-serial reference codec by construction — a property the test suite
asserts exhaustively (``tests/reference_codec.py`` holds the reference
and installs it under the same workloads).
"""

from __future__ import annotations

from repro.coding.kraft import CanonicalCode
from repro.common.errors import FilterError

#: Bits consumed by the first (root) decode-table lookup. Sixteen bits
#: cover every frequent combination code of realistic geometries, so the
#: common decode is exactly one list index. Capped by the code's max
#: length so tiny codes get proportionally tiny roots.
ROOT_BITS = 16
#: Bits per lookup in the subtables that long (escape) codes chain
#: through. Kept small: the chains exist only under the rare block, and
#: 256-entry subtables stay cheap however many prefixes that block spans.
SUB_BITS = 8
_SUB_SIZE = 1 << SUB_BITS


class PrefixDecodeTable:
    """Byte-at-a-time decoder for a canonical prefix code.

    Decoding semantics are identical to
    :meth:`CanonicalCode.decode_prefix`: same (symbol, bits-consumed)
    results, and ``ValueError`` on exactly the same non-matching inputs.

    Terminal entries optionally carry a caller-supplied payload so a hot
    path can fuse decode + payload lookup into the single table walk
    (the bucket codec stores its per-combination unpack plan there).
    """

    __slots__ = ("root", "root_bits", "_root_mask", "max_length")

    def __init__(self, code: CanonicalCode, payloads=None) -> None:
        self.max_length = code.max_length
        #: Width of the root index; ``root[value >> (bit_length -
        #: root_bits)]`` is a terminal tuple for every codeword of at
        #: most ``root_bits`` bits, a subtable (list) or ``None``.
        self.root_bits = min(ROOT_BITS, code.max_length)
        self._root_mask = (1 << self.root_bits) - 1
        get_payload = (payloads or {}).get
        root: list = [None] * (1 << self.root_bits)
        for sym, (codeword, length) in code.codewords().items():
            entry = (length, sym, get_payload(sym))
            self._insert(root, entry, codeword, length, self.root_bits)
        self.root = root

    @staticmethod
    def _insert(
        table: list, entry: tuple, codeword: int, rem_len: int, bits: int
    ) -> None:
        if rem_len <= bits:
            # Terminal: every index sharing this prefix resolves to it.
            base = codeword << (bits - rem_len)
            for i in range(base, base + (1 << (bits - rem_len))):
                table[i] = entry
            return
        prefix = codeword >> (rem_len - bits)
        sub = table[prefix]
        if not isinstance(sub, list):
            # A prefix code can't have a terminal here: a shorter codeword
            # that filled this index would be a prefix of this one.
            sub = [None] * _SUB_SIZE
            table[prefix] = sub
        PrefixDecodeTable._insert(
            sub,
            entry,
            codeword & ((1 << (rem_len - bits)) - 1),
            rem_len - bits,
            SUB_BITS,
        )

    def decode_entry(self, value: int, bit_length: int) -> tuple:
        """The full terminal entry ``(length, symbol, payload)`` for the
        codeword at the front of ``value`` (MSB-first, ``bit_length``
        bits). Raises ``ValueError`` when nothing matches."""
        table = self.root
        bits = self.root_bits
        mask = self._root_mask
        consumed = 0
        while True:
            shift = bit_length - consumed - bits
            if shift >= 0:
                idx = (value >> shift) & mask
            elif shift > -bits:
                # Tail chunk shorter than the lookup width: zero-pad right.
                idx = (value << -shift) & mask
            else:
                idx = 0
            entry = table[idx]
            if type(entry) is tuple:
                if entry[0] > bit_length:
                    break  # padding zeros matched a too-long codeword
                return entry
            if entry is None:
                break
            consumed += bits
            table = entry
            bits = SUB_BITS
            mask = _SUB_SIZE - 1
        raise ValueError(
            f"no codeword matches the leading bits of {value:#x} ({bit_length} bits)"
        )

    def decode_prefix(self, value: int, bit_length: int):
        """Decode the symbol at the front of ``value`` (MSB-first,
        ``bit_length`` bits). Returns (symbol, bits consumed)."""
        entry = self.decode_entry(value, bit_length)
        return entry[1], entry[0]


def _pack_overflow(fields, ordered):
    """Raise the FilterError that names the overflowing slot.

    The specialized pack functions guard all fingerprints with one
    combined check; only when it fires do we pay this per-slot walk to
    identify the offender."""
    for (lid, _shift, flen), (_, fp) in zip(fields, ordered):
        if fp >> flen:
            raise FilterError(
                f"fingerprint {fp:#x} wider than {flen} bits for LID {lid}"
            )
    raise FilterError(  # pragma: no cover - guard implies an offender
        "combined overflow guard fired with no overflowing fingerprint"
    )


def _compile_pack(base, fields):
    """Build a specialized pack function for one frequent combination.

    ``fields`` is the ``((lid, shift, fp_len), ...)`` plan with absolute
    shifts (FAC exact fill). The generated function takes the LID-sorted
    ``[(lid, fp), ...]`` slot list and returns the packed bucket as one
    straight-line OR expression — no loop, no per-slot branch; all
    fingerprint-width checks fuse into a single combined guard that
    falls back to :func:`_pack_overflow` for the error."""
    n = len(fields)
    loads = "".join(f"    fp{i} = ordered[{i}][1]\n" for i in range(n))
    guard = (
        " | ".join(f"(fp{i} >> {flen})" for i, (_, _, flen) in enumerate(fields))
        or "0"
    )
    terms = [str(base)]
    for i, (_lid, shift, _flen) in enumerate(fields):
        terms.append(f"(fp{i} << {shift})" if shift else f"fp{i}")
    source = (
        "def _pack(ordered):\n"
        f"{loads}"
        f"    if {guard}:\n"
        "        _overflow(_fields, ordered)\n"
        f"    return {' | '.join(terms)}\n"
    )
    namespace = {"_overflow": _pack_overflow, "_fields": fields}
    exec(source, namespace)
    # ``_pack.__globals__`` is ``namespace``: popping the function out
    # breaks the function <-> dict cycle, so a codebook rebuild frees
    # the old tables by refcount instead of leaving them to the cyclic
    # collector.
    return namespace.pop("_pack")


class BucketFastTables:
    """Derived hot-path state for one codebook: the decode table, whose
    frequent terminals carry their unpack field plan, and one compiled
    pack function per frequent combination."""

    __slots__ = ("decode_table", "pack_fns")

    def __init__(self, codebook) -> None:
        # Per frequent combo: the exact field layout of its bucket, with
        # *absolute* shifts — under FAC, code + fingerprints fill the
        # bucket exactly, so every field's position is fixed.
        # unpack plan: ((lid, shift, fp_mask, 64 - fp_len), ...) — the
        # last field slices the same-length prefix of a 64-bit digest,
        # so a probe compares fields without unpacking the bucket;
        # pack fields: ((lid, shift, fp_len), ...) over codeword << c_FP.
        unpack_plans: dict = {}
        pack_fns: dict = {}
        if codebook.mode == "mf_fac":
            for combo in codebook.frequent:
                codeword, length = codebook.code.encode(combo)
                rem = codebook.bucket_bits - length
                base = codeword << rem
                upk = []
                pk = []
                for lid in combo:
                    flen = codebook.fp_length(lid)
                    rem -= flen
                    upk.append((lid, rem, (1 << flen) - 1, 64 - flen))
                    pk.append((lid, rem, flen))
                unpack_plans[combo] = tuple(upk)
                # Insert-path specialization: one compiled straight-line
                # pack function per frequent combination, with the
                # per-slot width checks fused into a single guard.
                pack_fns[combo] = _compile_pack(base, tuple(pk))
        else:
            # Analysis-only modes have no exact-fill layout; keep only
            # the frequent/rare distinction for the decode accounting.
            for combo in codebook.frequent:
                unpack_plans[combo] = True
        self.pack_fns = pack_fns
        # Frequent terminals carry their unpack plan (rare ones carry
        # None — that *is* the rare test on the decode hot path, since
        # only rare combinations lack an inline-fingerprint layout).
        self.decode_table = PrefixDecodeTable(codebook.code, payloads=unpack_plans)
