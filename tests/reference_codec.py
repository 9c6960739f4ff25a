"""The bit-serial reference bucket codec.

The runtime has one codec — the table-driven one of
:mod:`repro.chucky.decode`. This is the seed's implementation it
replaced, kept as the reference the identity tests compare against:
combination codes decode through the canonical first-code/offset loop
(:meth:`CanonicalCode.decode_prefix`), rarity is a set lookup, and
fingerprints move field by field through ``BitReader`` / ``BitWriter``.
Every counted I/O, packed word and error is the runtime codec's, bit for
bit — that is what ``test_hotpath_identity.py`` asserts.

The two classes subclass the runtime ones and override exactly the
methods that used to fork on ``decode.FAST_PATH``; :func:`reference_codec`
installs them where :class:`~repro.chucky.filter.ChuckyFilter` looks its
codec up, so whole filters, stores and crash campaigns built inside the
block run on the reference.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator
from unittest import mock

from repro.chucky.bucket import BucketCodec, Slot
from repro.chucky.tables import CodecTables
from repro.coding.distributions import Combination
from repro.common.bitio import BitReader, BitWriter
from repro.common.errors import FilterError


class ReferenceCodecTables(CodecTables):
    """Decode by the canonical-code loop; rarity by set membership."""

    def decode_prefix(self, packed: int, bit_length: int) -> tuple[Combination, int]:
        combo, used = self.codebook.code.decode_prefix(packed, bit_length)
        if not self.codebook.is_frequent(combo):
            self.charge_rare_decode()
        return combo, used


class ReferenceBucketCodec(BucketCodec):
    """Pack / unpack one bit field at a time."""

    def pack(self, slots: list[Slot]) -> tuple[int, list[int] | None]:
        if len(slots) != self.codebook.slots:
            raise FilterError(
                f"bucket must hold exactly {self.codebook.slots} slots, "
                f"got {len(slots)}"
            )
        ordered = sorted(slots)
        combo: Combination = tuple([lid for lid, _ in ordered])
        code, length = self.tables.encode(combo)
        if length == self.codebook.bucket_bits:
            return code, [fp for _, fp in ordered]
        writer = BitWriter()
        writer.write(code, length)
        for lid, fp in ordered:
            writer.write(fp, self.codebook.fp_length(lid))
        if writer.bit_length != self.codebook.bucket_bits:
            raise FilterError(
                f"bucket misaligned: packed {writer.bit_length} bits into a "
                f"{self.codebook.bucket_bits}-bit bucket for combo {combo}"
            )
        return writer.getvalue(), None

    def unpack(
        self, packed: int, overflow_fps: list[int] | None = None
    ) -> list[Slot]:
        bucket_bits = self.codebook.bucket_bits
        combo, used = self.tables.decode_prefix(packed, bucket_bits)
        if used == bucket_bits:
            return self._overflow_slots(combo, overflow_fps)
        reader = BitReader(packed, bucket_bits)
        reader.skip(used)
        return [(lid, reader.read(self.codebook.fp_length(lid))) for lid in combo]

    def matching_lids(self, packed: int, digest: int) -> None:
        """Never match from a plan: every probe decodes the whole bucket
        through :meth:`unpack`, so the identity tests hold the runtime's
        plan matching to this bit-serial decode."""
        return None

    def root_entry(self, packed: int) -> None:
        """Never edit from a plan: every maintenance edit decodes
        the bucket through :meth:`unpack` and re-encodes it through
        :meth:`pack`, so the identity tests hold the runtime's plan
        edits to this bit-serial codec."""
        return None

    def is_rare(self, packed: int) -> bool:
        _combo, used = self.codebook.code.decode_prefix(
            packed, self.codebook.bucket_bits
        )
        return used == self.codebook.bucket_bits


@contextmanager
def reference_codec() -> Iterator[None]:
    """Filters constructed inside the block get the reference codec."""
    with (
        mock.patch("repro.chucky.filter.BucketCodec", ReferenceBucketCodec),
        mock.patch("repro.chucky.filter.CodecTables", ReferenceCodecTables),
    ):
        yield
