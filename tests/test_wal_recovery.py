"""Write-ahead log and full-store crash recovery (paper section 4.5)."""

import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chucky.policy import ChuckyPolicy
from repro.engine import EngineConfig, build_store, recover_store
from repro.engine.kvstore import KVStore
from repro.filters.policy import BloomFilterPolicy, NoFilterPolicy
from repro.lsm.config import lazy_leveling
from repro.lsm.entry import KEY, SEQNO, TOMBSTONE
from repro.lsm.wal import (
    WalCorruption,
    WriteAheadLog,
    _checksum,
    parse_wal_record,
)


class TestWal:
    def test_roundtrip(self):
        wal = WriteAheadLog()
        wal.append_put(1, "hello", 10)
        wal.append_delete(2, 11)
        wal.append_put(3, "x" * 100, 12)
        records = list(wal.replay())
        assert records[0] == ("put", 1, "hello", 10)
        assert records[1] == ("delete", 2, TOMBSTONE, 11)
        assert records[2][1:] == (3, "x" * 100, 12)

    def test_truncate(self):
        wal = WriteAheadLog()
        wal.append_put(1, "a", 1)
        wal.truncate()
        assert list(wal.replay()) == []
        assert wal.size_bytes == 0

    def test_torn_tail_tolerated(self):
        wal = WriteAheadLog()
        wal.append_put(1, "a", 1)
        wal.append_put(2, "b", 2)
        torn = WriteAheadLog(data=bytearray(wal.data[:-3]))
        records = list(torn.replay())
        assert records == [("put", 1, "a", 1)]

    def test_mid_log_corruption_raises(self):
        wal = WriteAheadLog()
        wal.append_put(1, "a", 1)
        wal.append_put(2, "b", 2)
        corrupted = bytearray(wal.data)
        corrupted[12] ^= 0xFF  # flip a bit inside the first payload
        with pytest.raises(WalCorruption):
            list(WriteAheadLog(data=corrupted).replay())

    def test_key_range_validation(self):
        with pytest.raises(ValueError):
            WriteAheadLog().append_put(-1, "a", 1)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2**63),
                st.one_of(st.none(), st.text(max_size=20)),
            ),
            max_size=50,
        )
    )
    def test_replay_matches_appends(self, records):
        wal = WriteAheadLog()
        for seqno, (key, value) in enumerate(records, start=1):
            if value is None:
                wal.append_delete(key, seqno)
            else:
                wal.append_put(key, value, seqno)
        replayed = list(wal.replay())
        assert len(replayed) == len(records)
        for (kind, key, value, seqno), (okey, ovalue) in zip(replayed, records):
            assert key == okey
            if ovalue is None:
                assert kind == "delete"
            else:
                assert (kind, value) == ("put", ovalue)


class TestWalBatch:
    def test_batch_roundtrip(self):
        wal = WriteAheadLog()
        wal.append_put(1, "before", 1)
        wal.append_batch([(10, "a", 2), (11, TOMBSTONE, 3), (12, "c", 4)])
        wal.append_put(2, "after", 5)
        records = list(wal.replay())
        assert records == [
            ("put", 1, "before", 1),
            ("put", 10, "a", 2),
            ("delete", 11, TOMBSTONE, 3),
            ("put", 12, "c", 4),
            ("put", 2, "after", 5),
        ]

    def test_batch_is_one_record(self):
        """The whole batch shares one length+checksum header, so a torn
        tail can never surface a prefix of it."""
        single = WriteAheadLog()
        for i in range(20):
            single.append_put(i, "v", i + 1)
        batched = WriteAheadLog()
        batched.append_batch([(i, "v", i + 1) for i in range(20)])
        assert batched.appended == single.appended == 20
        assert batched.size_bytes < single.size_bytes

    def test_torn_batch_is_all_or_nothing(self):
        wal = WriteAheadLog()
        wal.append_put(1, "intact", 1)
        first_record_len = wal.size_bytes
        wal.append_batch([(10, "a", 2), (11, "b", 3), (12, "c", 4)])
        batch_record_len = wal.size_bytes - first_record_len
        for cut in range(1, batch_record_len + 1):
            torn = WriteAheadLog(data=bytearray(wal.data[:-cut]))
            records = list(torn.replay())
            # Any tear inside the batch record drops the whole batch —
            # never a prefix of it — while earlier records survive.
            batch_keys = [key for _, key, _, _ in records if key >= 10]
            assert batch_keys == []
            assert records == [("put", 1, "intact", 1)]

    def test_empty_batch_is_noop(self):
        wal = WriteAheadLog()
        wal.append_batch([])
        assert wal.size_bytes == 0
        assert list(wal.replay()) == []


class TestWalFormat:
    """A record is ``u32 length | u32 CRC-32(payload) | payload``; the
    payload is the item header ``<BQQBI`` (kind, key, seqno,
    value-kind, value-length) plus the value, a batch payload the
    ``<BI`` header (kind 2, item count) plus its items."""

    @given(st.binary(max_size=300))
    def test_checksum_is_crc32(self, payload):
        assert _checksum(payload) == zlib.crc32(payload)

    def test_golden_put(self):
        wal = WriteAheadLog()
        wal.append_put(1, "hello", 10)
        assert bytes(wal.data) == bytes.fromhex(
            "1b000000" "7f254755"
            "00" "0100000000000000" "0a00000000000000" "00" "05000000"
            "68656c6c6f"
        )

    def test_golden_delete(self):
        wal = WriteAheadLog()
        wal.append_delete(2, 11)
        assert bytes(wal.data) == bytes.fromhex(
            "16000000" "9e38ccc6"
            "01" "0200000000000000" "0b00000000000000" "02" "00000000"
        )

    def test_golden_batch(self):
        wal = WriteAheadLog()
        wal.append_batch([(3, b"\xff", 12), (4, TOMBSTONE, 13)])
        assert bytes(wal.data) == bytes.fromhex(
            "32000000" "f07f1013"
            "02" "02000000"
            "00" "0300000000000000" "0c00000000000000" "01" "01000000" "ff"
            "01" "0400000000000000" "0d00000000000000" "02" "00000000"
        )


#: One logged operation: a put (str or bytes), a delete, or a batch.
_values = st.one_of(st.text(max_size=12), st.binary(max_size=12))
_ops = st.one_of(
    st.tuples(st.just("put"), st.integers(0, 2**64 - 1), _values),
    st.tuples(st.just("delete"), st.integers(0, 2**64 - 1)),
    st.tuples(
        st.just("batch"),
        st.lists(
            st.tuples(
                st.integers(0, 2**64 - 1), st.one_of(_values, st.just(TOMBSTONE))
            ),
            min_size=1,
            max_size=4,
        ),
    ),
)


def _logged(ops) -> WriteAheadLog:
    wal = WriteAheadLog()
    seqno = 0
    for op in ops:
        if op[0] == "batch":
            items = [(key, value, seqno + i) for i, (key, value) in
                     enumerate(op[1], 1)]
            wal.append_batch(items)
            seqno += len(items)
            continue
        seqno += 1
        if op[0] == "put":
            wal.append_put(op[1], op[2], seqno)
        else:
            wal.append_delete(op[1], seqno)
    return wal


def _record_spans(data: bytes) -> list[tuple[int, int]]:
    """(start, stop) of every framed record of a well-formed log."""
    spans, offset = [], 0
    while offset < len(data):
        stop = offset + 8 + int.from_bytes(data[offset : offset + 4], "little")
        spans.append((offset, stop))
        offset = stop
    return spans


def _replay_or_corruption(data: bytes):
    """Replay ``data``: its items, or ``None`` on WalCorruption. Any
    other exception escapes and fails the caller."""
    try:
        items = list(WriteAheadLog(data=bytearray(data)).replay())
    except WalCorruption:
        return None
    for kind, key, _value, seqno in items:
        assert kind in ("put", "delete")
        assert 0 <= key < 2**64 and 0 <= seqno < 2**64
    return items


def _parse_or_corruption(record: bytes):
    try:
        return parse_wal_record(record)
    except WalCorruption:
        return None


class TestBitFlips:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_ops, min_size=2, max_size=6), st.data())
    def test_any_single_bit_flip_before_the_tail_is_caught(self, ops, data):
        """CRC-32 detects every single-bit error, so a flip in the
        checksum or payload of any record but the last makes replay
        raise instead of truncating or yielding a wrong item."""
        log = bytes(_logged(ops).data)
        spans = _record_spans(log)
        start, stop = spans[data.draw(st.integers(0, len(spans) - 2))]
        bit = data.draw(st.integers((start + 4) * 8, stop * 8 - 1))
        flipped = bytearray(log)
        flipped[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(WalCorruption):
            list(WriteAheadLog(data=flipped).replay())
        with pytest.raises(WalCorruption):
            parse_wal_record(bytes(flipped[start:stop]))


class TestHostileLogs:
    """Whatever the bytes, replay and the strict record parser answer
    with items or :class:`WalCorruption` — never ``struct.error``,
    ``IndexError``, ``OverflowError`` or ``UnicodeDecodeError``."""

    @settings(max_examples=300)
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes(self, data):
        _replay_or_corruption(data)
        _parse_or_corruption(data)

    @settings(max_examples=300)
    @given(st.binary(max_size=120))
    def test_arbitrary_payload_under_a_valid_checksum(self, payload):
        """A payload that passes its checksum reaches the structural
        decoder, which must bound-check everything it reads."""
        record = (
            len(payload).to_bytes(4, "little")
            + zlib.crc32(payload).to_bytes(4, "little")
            + payload
        )
        assert _replay_or_corruption(record) == _parse_or_corruption(record)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_ops, min_size=1, max_size=5), st.data())
    def test_truncated_and_mutated_logs(self, ops, data):
        log = bytearray(_logged(ops).data)
        intact = _replay_or_corruption(bytes(log))
        cut = data.draw(st.integers(0, len(log)))
        truncated = _replay_or_corruption(bytes(log[:cut]))
        # A cut log replays a prefix of the intact one.
        assert truncated == intact[: len(truncated)]
        for _ in range(data.draw(st.integers(1, 4))):
            log[data.draw(st.integers(0, len(log) - 1))] = data.draw(
                st.integers(0, 255)
            )
        _replay_or_corruption(bytes(log))
        for start, stop in _record_spans(bytes(_logged(ops).data)):
            _parse_or_corruption(bytes(log[start:stop]))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_ops, min_size=1, max_size=3), st.data())
    def test_mutated_payloads_under_valid_checksums(self, ops, data):
        """Mutate a record's payload and re-frame it with a correct
        CRC, so the damage gets past the checksum into the decoder."""
        log = bytes(_logged(ops).data)
        start, stop = data.draw(st.sampled_from(_record_spans(log)))
        payload = bytearray(log[start + 8 : stop])
        for _ in range(data.draw(st.integers(1, 4))):
            payload[data.draw(st.integers(0, len(payload) - 1))] = data.draw(
                st.integers(0, 255)
            )
        payload = bytes(payload[: data.draw(st.integers(0, len(payload)))])
        record = (
            len(payload).to_bytes(4, "little")
            + zlib.crc32(payload).to_bytes(4, "little")
            + payload
        )
        assert _replay_or_corruption(record) == _parse_or_corruption(record)


class TestUnloggableValues:
    """A durable store logs str and bytes values only. Anything else
    would come back from replay as something else (``5`` as ``'5'``,
    ``None`` as ``'None'``), so the WAL encoder refuses it with
    TypeError before the seqno, the WAL or the memtable changes."""

    BAD = [5, None, 1.5, bytearray(b"x"), ("a",)]

    def make_store(self):
        cfg = lazy_leveling(3, buffer_entries=8, block_entries=4)
        kv = KVStore(
            cfg, filter_policy=ChuckyPolicy(bits_per_entry=10), durable=True
        )
        kv.put(1, "a")
        kv.put(2, b"b")
        return kv, cfg

    @staticmethod
    def state(kv):
        return (
            kv._seqno,
            kv.updates,
            bytes(kv.wal.data),
            kv.wal.appended,
            kv.memtable.sorted_entries(),
        )

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_put_refuses_before_anything_changes(self, bad):
        kv, cfg = self.make_store()
        before = self.state(kv)
        with pytest.raises(TypeError):
            kv.put(3, bad)
        with pytest.raises(TypeError):
            kv.put(3, bad, ttl=1000)
        assert self.state(kv) == before
        kv.put(3, "c")
        recovered = KVStore.recover(
            kv.crash(), cfg, filter_policy=ChuckyPolicy(bits_per_entry=10)
        )
        assert [recovered.get(k) for k in (1, 2, 3)] == ["a", b"b", "c"]
        assert recovered._seqno == 3

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_put_batch_refuses_the_whole_batch(self, bad):
        kv, cfg = self.make_store()
        before = self.state(kv)
        with pytest.raises(TypeError):
            kv.put_batch([(3, "c"), (4, bad), (5, "e")])
        assert self.state(kv) == before
        assert kv.get(3) is None
        recovered = KVStore.recover(
            kv.crash(), cfg, filter_policy=ChuckyPolicy(bits_per_entry=10)
        )
        assert [recovered.get(k) for k in (1, 2, 3, 5)] == ["a", b"b", None, None]

    def test_put_batch_over_several_groups_refuses_every_group(self):
        kv, cfg = self.make_store()
        before = self.state(kv)
        batch = [(10 + i, f"v{i}") for i in range(3 * 8)] + [(99, None)]
        with pytest.raises(TypeError):
            kv.put_batch(batch)
        assert self.state(kv) == before
        assert kv.get(10) is None

    def test_sharded_store_reads_back_what_it_wrote(self):
        """Before the check, ``put(1, 5)`` read ``5`` until a crash and
        ``'5'`` after ``recover_store``."""
        cfg = EngineConfig(
            size_ratio=3, buffer_entries=8, block_entries=4, shards=2,
            durable=True,
        )
        store = build_store(cfg)
        store.put(7, "seven")
        with pytest.raises(TypeError):
            store.put(1, 5)
        # 40 keys land in both shards: no shard's group may apply.
        batch = [(100 + k, f"v{k}") for k in range(40)] + [(3, None)]
        assert len({store.shard_for(k) for k, _ in batch}) == 2
        with pytest.raises(TypeError):
            store.put_batch(batch)
        recovered = recover_store(store.crash(), cfg)
        assert [recovered.get(k) for k in (1, 3, 7, 100, 139)] == [
            None, None, "seven", None, None
        ]


def populated_store(policy, durable=True, n=500, seed=0):
    cfg = lazy_leveling(3, buffer_entries=8, block_entries=4)
    kv = KVStore(cfg, filter_policy=policy, durable=durable)
    rng = random.Random(seed)
    ref = {}
    for i in range(n):
        key = rng.randrange(200)
        if rng.random() < 0.1:
            kv.delete(key)
            ref.pop(key, None)
        else:
            kv.put(key, f"v{i}")
            ref[key] = f"v{i}"
    return kv, ref, cfg


class TestCrashRecovery:
    @pytest.mark.parametrize(
        "policy_factory",
        [
            lambda: ChuckyPolicy(bits_per_entry=10),
            lambda: ChuckyPolicy(bits_per_entry=10, compressed=False),
            lambda: BloomFilterPolicy(10, "blocked", "optimal"),
            NoFilterPolicy,
        ],
        ids=["chucky", "uncompressed", "bloom", "none"],
    )
    def test_recovery_preserves_all_data(self, policy_factory):
        kv, ref, cfg = populated_store(policy_factory())
        state = kv.crash()
        recovered = KVStore.recover(state, cfg, filter_policy=policy_factory())
        for key in range(200):
            assert recovered.get(key) == ref.get(key), key

    def test_unflushed_writes_survive_via_wal(self):
        cfg = lazy_leveling(3, buffer_entries=64, block_entries=4)
        kv = KVStore(cfg, filter_policy=ChuckyPolicy(bits_per_entry=10), durable=True)
        kv.put(1, "flushed")
        kv.flush()
        kv.put(2, "only-in-wal")
        kv.delete(1)
        state = kv.crash()
        recovered = KVStore.recover(
            state, cfg, filter_policy=ChuckyPolicy(bits_per_entry=10)
        )
        assert recovered.get(2) == "only-in-wal"
        assert recovered.get(1) is None

    def test_chucky_recovers_from_fingerprints_without_data_scan(self):
        kv, ref, cfg = populated_store(ChuckyPolicy(bits_per_entry=10))
        kv.flush()
        state = kv.crash()
        assert state.filter_blob is not None
        recovered = KVStore.recover(
            state, cfg, filter_policy=ChuckyPolicy(bits_per_entry=10)
        )
        # Recovery read zero data blocks (manifests + fingerprints only).
        assert recovered.counters.storage.reads == 0
        # And the recovered filter is exactly consistent with the tree.
        for entry, sublevel in recovered.tree.iter_entries_with_sublevels():
            assert sublevel in recovered.policy.filter.query(entry[KEY])

    def test_recovery_reads_no_block(self, monkeypatch):
        """Runs reopen and the seqno resumes from the manifests alone:
        recovery of a committed state touches no block, counted or not."""
        kv, _, cfg = populated_store(ChuckyPolicy(bits_per_entry=10))
        kv.flush()
        state = kv.crash()
        assert state.filter_blob is not None
        reads = []
        for name in ("read_run", "read_block"):
            real = getattr(state.storage, name)

            def wrapped(*args, _real=real, _name=name):
                reads.append(_name)
                return _real(*args)

            monkeypatch.setattr(state.storage, name, wrapped)
        recovered = KVStore.recover(
            state, cfg, filter_policy=ChuckyPolicy(bits_per_entry=10)
        )
        assert reads == []
        assert recovered._seqno == kv._seqno

    def test_manifest_carries_each_runs_highest_seqno(self):
        kv, _, _ = populated_store(NoFilterPolicy())
        manifest = kv.tree.manifest()
        assert manifest
        for m in manifest:
            entries = kv.tree.storage.read_run(m.run_id)
            assert m.max_seqno == max(e[SEQNO] for block in entries for e in block)

    def test_bloom_recovery_scans_runs(self):
        kv, ref, cfg = populated_store(BloomFilterPolicy(10, "blocked", "optimal"))
        kv.flush()
        state = kv.crash()
        recovered = KVStore.recover(
            state, cfg, filter_policy=BloomFilterPolicy(10, "blocked", "optimal")
        )
        assert recovered.counters.storage.reads > 0

    def test_crash_requires_durability(self):
        kv, _, _ = populated_store(NoFilterPolicy(), durable=False)
        with pytest.raises(RuntimeError):
            kv.crash()

    def test_sequence_numbers_continue_after_recovery(self):
        kv, ref, cfg = populated_store(NoFilterPolicy())
        state = kv.crash()
        recovered = KVStore.recover(state, cfg)
        recovered.put(5, "after-recovery")
        assert recovered.get(5) == "after-recovery"

    def test_writes_continue_correctly_after_recovery(self):
        kv, ref, cfg = populated_store(ChuckyPolicy(bits_per_entry=10), n=300)
        state = kv.crash()
        recovered = KVStore.recover(
            state, cfg, filter_policy=ChuckyPolicy(bits_per_entry=10)
        )
        rng = random.Random(99)
        for i in range(300):
            key = rng.randrange(200)
            recovered.put(key, f"post{i}")
            ref[key] = f"post{i}"
        for key in range(200):
            assert recovered.get(key) == ref.get(key)

    def test_manifest_roundtrip_preserves_geometry(self):
        kv, _, cfg = populated_store(NoFilterPolicy())
        kv.flush()
        before = [(s, r.run_id, r.num_entries) for s, r in kv.tree.occupied_runs()]
        state = kv.crash()
        recovered = KVStore.recover(state, cfg)
        after = [
            (s, r.run_id, r.num_entries) for s, r in recovered.tree.occupied_runs()
        ]
        assert before == after


class TestCrashMidBatch:
    """Regression: ``put_batch`` must be all-or-nothing under a crash.

    Before the batch WAL record existed, a torn tail could replay a
    prefix of a batch — half the group visible after recovery."""

    def make_store(self, buffer_entries=64):
        cfg = lazy_leveling(3, buffer_entries=buffer_entries, block_entries=4)
        kv = KVStore(
            cfg, filter_policy=ChuckyPolicy(bits_per_entry=10), durable=True
        )
        return kv, cfg

    def test_torn_wal_drops_whole_batch(self):
        import dataclasses

        kv, cfg = self.make_store()
        kv.put(1, "pre-batch")
        kv.flush()  # pre-batch data reaches storage; WAL now empty
        kv.put_batch([(10 + i, f"b{i}") for i in range(8)])
        state = kv.crash()
        # Tear the tail anywhere inside the batch record: recovery must
        # see either the whole batch (no tear) or none of it.
        for cut in range(1, len(state.wal_data) + 1):
            torn = dataclasses.replace(
                state, wal_data=state.wal_data[:-cut]
            )
            recovered = KVStore.recover(
                torn, cfg, filter_policy=ChuckyPolicy(bits_per_entry=10)
            )
            survivors = [
                i for i in range(8) if recovered.get(10 + i) is not None
            ]
            assert survivors == [], f"partial batch after cut={cut}"
            assert recovered.get(1) == "pre-batch"

    def test_untorn_batch_fully_recovers(self):
        kv, cfg = self.make_store()
        kv.put_batch([(10 + i, f"b{i}") for i in range(8)])
        recovered = KVStore.recover(
            kv.crash(), cfg, filter_policy=ChuckyPolicy(bits_per_entry=10)
        )
        assert [recovered.get(10 + i) for i in range(8)] == [
            f"b{i}" for i in range(8)
        ]

    def test_batch_never_split_by_mid_batch_flush(self):
        """A batch that would overflow the memtable triggers a flush
        *before* the batch, so the whole group lands in one memtable
        generation (and one WAL record) — never half-flushed."""
        kv, cfg = self.make_store(buffer_entries=8)
        for i in range(6):
            kv.put(i, f"warm{i}")
        kv.put_batch([(100 + i, f"b{i}") for i in range(5)])  # 6+5 > 8
        assert len(kv.memtable) == 5  # pre-flush ran; batch intact
        assert all((100 + i) in kv.memtable for i in range(5))

    def test_oversized_batch_chunks_atomically(self):
        kv, cfg = self.make_store(buffer_entries=8)
        kv.put_batch([(i, f"v{i}") for i in range(30)])  # > capacity
        assert all(kv.get(i) == f"v{i}" for i in range(30))
        recovered = KVStore.recover(
            kv.crash(), cfg, filter_policy=ChuckyPolicy(bits_per_entry=10)
        )
        assert all(recovered.get(i) == f"v{i}" for i in range(30))


@settings(max_examples=10, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 40), st.one_of(st.none(), st.text(max_size=4))),
        min_size=1,
        max_size=150,
    ),
    st.integers(0, 10**6),
)
def test_crash_anywhere_loses_nothing(ops, crash_seed):
    """Property: crash after any prefix of operations; recovery always
    reproduces the reference dict exactly (WAL + manifests are a
    complete redundancy of the lost memtable + handles)."""
    cfg = lazy_leveling(3, buffer_entries=4, block_entries=2)
    kv = KVStore(cfg, filter_policy=ChuckyPolicy(bits_per_entry=10), durable=True)
    ref = {}
    for key, value in ops:
        if value is None:
            kv.delete(key)
            ref.pop(key, None)
        else:
            kv.put(key, value)
            ref[key] = value
    state = kv.crash()
    recovered = KVStore.recover(
        state, cfg, filter_policy=ChuckyPolicy(bits_per_entry=10)
    )
    for key in range(41):
        assert recovered.get(key) == ref.get(key)
