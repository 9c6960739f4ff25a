"""Fault injection, WAL byte-fuzzing, and crash-schedule exploration.

Covers this PR's bugfix class end to end: value-type fidelity through
WAL replay (the original ``bytes``-coercion bug), structured
``WalCorruption`` for every malformed record shape (never a bare
``IndexError`` / ``UnicodeDecodeError``), O(run) block-cache
invalidation, transient-I/O retry, torn WAL appends, partial run
writes, crash points across the whole engine stack, and the
``faultcheck`` explorer itself — including the canary check that
re-introducing the old replay bug makes the explorer fail.
"""

import asyncio
import random
from functools import partial

import pytest

from repro.chucky.policy import ChuckyPolicy
from repro.common.counters import MemoryIOCounter
from repro.common.errors import InjectedCrash, TransientIOError
from repro.engine.config import EngineConfig, build_store, recover_store
from repro.engine.kvstore import KVStore
from repro.faults import crashpoints
from repro.faults.crashpoints import CRASH_POINTS, activated, crash_point
from repro.faults.harness import (
    FaultcheckConfig,
    _drive_workload,
    _run_schedule,
    _StoreUnderTest,
    make_workload,
    run_faultcheck,
)
from repro.faults.injector import (
    CRASH_AT_POINT,
    CRASH_IN_RUN_WRITE,
    CRASH_IN_WAL_APPEND,
    FaultInjector,
    FaultPlan,
)
from repro.faults.invariants import InvariantChecker
from repro.lsm.block_cache import BlockCache
from repro.lsm.config import lazy_leveling
from repro.lsm.entry import TOMBSTONE
from repro.lsm.storage import MAX_IO_ATTEMPTS, StorageDevice
from repro.lsm.wal import WalCorruption, WriteAheadLog
from repro.workloads.ops import KeyModel, Op, apply


def durable_config(**kwargs) -> EngineConfig:
    defaults = dict(
        size_ratio=3,
        buffer_entries=8,
        block_entries=4,
        cache_blocks=8,
        durable=True,
        policy="chucky",
    )
    defaults.update(kwargs)
    return EngineConfig.leveled(**defaults)


# ----------------------------------------------------------------------
# Satellite 1: bytes values round-trip through the WAL
# ----------------------------------------------------------------------

class TestWalValueFidelity:
    """Regression for the replay bug that coerced every value to str:
    non-UTF-8 bytes either crashed replay or came back mangled."""

    NASTY = [b"\xff\xfe", b"\x80\x81\x82", b"\xc3(", bytes(range(256))]

    def test_bytes_roundtrip_in_wal(self):
        wal = WriteAheadLog()
        for seqno, raw in enumerate(self.NASTY, start=1):
            wal.append_put(seqno, raw, seqno)
        replayed = list(wal.replay())
        for (kind, _, value, _), raw in zip(replayed, self.NASTY):
            assert kind == "put"
            assert value == raw
            assert isinstance(value, bytes)

    def test_str_stays_str_bytes_stay_bytes(self):
        wal = WriteAheadLog()
        wal.append_put(1, "text", 1)
        wal.append_put(2, b"text", 2)
        (_, _, v1, _), (_, _, v2, _) = wal.replay()
        assert v1 == "text" and isinstance(v1, str)
        assert v2 == b"text" and isinstance(v2, bytes)

    def test_batch_bytes_roundtrip(self):
        wal = WriteAheadLog()
        wal.append_batch(
            [(1, b"\xff\xfe", 1), (2, "s", 2), (3, TOMBSTONE, 3)]
        )
        records = list(wal.replay())
        assert records == [
            ("put", 1, b"\xff\xfe", 1),
            ("put", 2, "s", 2),
            ("delete", 3, TOMBSTONE, 3),
        ]
        assert isinstance(records[0][2], bytes)

    @pytest.mark.parametrize("via_batch", [False, True], ids=["put", "put_batch"])
    def test_bytes_survive_crash_recovery(self, via_batch):
        cfg = lazy_leveling(3, buffer_entries=16, block_entries=4)
        kv = KVStore(
            cfg, filter_policy=ChuckyPolicy(bits_per_entry=10), durable=True
        )
        payloads = {100 + i: raw for i, raw in enumerate(self.NASTY)}
        if via_batch:
            kv.put_batch(list(payloads.items()))
        else:
            for key, raw in payloads.items():
                kv.put(key, raw)
        recovered = KVStore(
            cfg, filter_policy=ChuckyPolicy(bits_per_entry=10), state=kv.crash()
        )
        for key, raw in payloads.items():
            value = recovered.get(key)
            assert value == raw
            assert isinstance(value, bytes)


# ----------------------------------------------------------------------
# Satellite 2: corrupt batch interiors raise WalCorruption, with offset
# ----------------------------------------------------------------------

def _reframe(payload: bytes) -> bytes:
    """Frame ``payload`` with a *valid* checksum (corruption the
    checksum cannot catch — the structural checks must)."""
    from repro.lsm.wal import _checksum

    return (
        len(payload).to_bytes(4, "little")
        + _checksum(payload).to_bytes(4, "little")
        + payload
    )


class TestCorruptBatchInterior:
    def _batch_payload(self) -> bytes:
        wal = WriteAheadLog()
        wal.append_batch([(1, "a", 1), (2, b"\xff", 2), (3, TOMBSTONE, 3)])
        data = bytes(wal.data)
        length = int.from_bytes(data[:4], "little")
        return data[8 : 8 + length]

    def _expect_corruption(self, payload: bytes, trailing: bytes = b""):
        wal = WriteAheadLog(data=bytearray(b""))
        wal.data.extend(_reframe(payload))
        wal.data.extend(trailing)
        with pytest.raises(WalCorruption) as excinfo:
            list(wal.replay())
        # The offset of the bad record must be in the message.
        assert "offset 0" in str(excinfo.value)

    def test_overstated_batch_count(self):
        payload = bytearray(self._batch_payload())
        payload[1:5] = (99).to_bytes(4, "little")
        # A trailing record makes the bad one mid-log, not a torn tail.
        self._expect_corruption(bytes(payload), trailing=b"\x00" * 16)

    def test_understated_batch_count_leaves_trailing_bytes(self):
        payload = bytearray(self._batch_payload())
        payload[1:5] = (1).to_bytes(4, "little")
        self._expect_corruption(bytes(payload))

    def test_truncated_item_inside_valid_checksum(self):
        payload = self._batch_payload()
        self._expect_corruption(payload[:-3], trailing=b"\x00" * 16)

    def test_item_value_length_overruns_record(self):
        payload = bytearray(self._batch_payload())
        # First item's value length lives at offset 5 + 18.
        payload[23:27] = (10_000).to_bytes(4, "little")
        self._expect_corruption(bytes(payload), trailing=b"\x00" * 16)

    def test_unknown_item_kind(self):
        payload = bytearray(self._batch_payload())
        payload[5] = 0x7F  # first item's kind byte
        self._expect_corruption(bytes(payload), trailing=b"\x00" * 16)

    def test_unknown_record_kind(self):
        self._expect_corruption(b"\x09" + b"\x00" * 21, trailing=b"\x00" * 16)

    def test_empty_record(self):
        self._expect_corruption(b"", trailing=b"\x00" * 16)


# ----------------------------------------------------------------------
# Satellite 4: byte-level WAL fuzzing
# ----------------------------------------------------------------------

class TestWalFuzz:
    """Every truncation and every single-byte mutation of a realistic
    log must yield a clean replay prefix or WalCorruption — never an
    IndexError, UnicodeDecodeError, or silently wrong data."""

    def _log(self) -> WriteAheadLog:
        wal = WriteAheadLog()
        wal.append_put(1, "text", 1)
        wal.append_put(2, b"\xff\xfe\x80", 2)
        wal.append_delete(1, 3)
        wal.append_batch([(4, "a", 4), (5, b"\xc3(", 5), (6, TOMBSTONE, 6)])
        wal.append_put(7, "tail", 7)
        return wal

    def test_every_truncation_point(self):
        wal = self._log()
        full = list(wal.replay())
        data = bytes(wal.data)
        for cut in range(len(data) + 1):
            torn = WriteAheadLog(data=bytearray(data[:cut]))
            try:
                records = list(torn.replay())
            except WalCorruption:
                continue
            # A clean replay must be an exact prefix of the full one.
            assert records == full[: len(records)], f"cut={cut}"

    def test_every_single_byte_mutation(self):
        wal = self._log()
        full = list(wal.replay())
        data = bytes(wal.data)
        rng = random.Random(7)
        for pos in range(len(data)):
            mutated = bytearray(data)
            flip = rng.randrange(1, 256)
            mutated[pos] ^= flip
            try:
                records = list(WriteAheadLog(data=mutated).replay())
            except WalCorruption:
                continue
            # Only mutations the checksum legitimately cannot see may
            # replay cleanly: a tail-record corruption (tolerated as a
            # torn tail, dropping a suffix) or a length-prefix mutation
            # that hides the tail. Either way: a prefix, never garbage.
            assert records == full[: len(records)], (
                f"pos={pos} flip={flip:#x}"
            )

    def test_random_splices_never_raise_bare_errors(self):
        wal = self._log()
        data = bytes(wal.data)
        rng = random.Random(13)
        for _ in range(300):
            mutated = bytearray(data)
            for _ in range(rng.randrange(1, 5)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            cut = rng.randrange(len(mutated) + 1)
            try:
                list(WriteAheadLog(data=mutated[:cut]).replay())
            except WalCorruption:
                pass  # structured failure is the contract


# ----------------------------------------------------------------------
# Block-cache per-run invalidation
# ----------------------------------------------------------------------

def _cached_runs(cache, *block_counts):
    """A device holding one run per count, every block fetched once
    through ``cache``; returns (device, memory counter, run ids)."""
    device, memory = StorageDevice(), MemoryIOCounter()
    run_ids = []
    for n, count in enumerate(block_counts):
        run_id = device.write_run([(f"r{n}b{i}",) for i in range(count)])
        for index in range(count):
            cache.get(run_id, index, device, memory)
        run_ids.append(run_id)
    return device, memory, run_ids


class TestBlockCacheInvalidation:
    def test_invalidate_run_touches_only_that_run(self):
        cache = BlockCache(64)
        device, memory, (r1, r2, _) = _cached_runs(cache, 5, 5, 5)
        cache.get(r2, 0, device, memory)
        hits, misses = cache.hits, cache.misses
        cache.invalidate_run(r2, 5)
        assert len(cache) == 10
        # Counters are accounting state, not content: untouched.
        assert (cache.hits, cache.misses) == (hits, misses)
        reads = device.counter.reads
        for index in range(5):
            cache.get(r1, index, device, memory)
        assert (cache.hits, device.counter.reads) == (hits + 5, reads)
        cache.get(r2, 0, device, memory)
        assert (cache.misses, device.counter.reads) == (misses + 1, reads + 1)

    def test_eviction_maintains_run_index(self):
        cache = BlockCache(4)
        device, memory, (r1, r2) = _cached_runs(cache, 4, 1)  # evicts (r1, 0)
        assert len(cache) == 4
        cache.invalidate_run(r1, 4)
        assert len(cache) == 1
        hits = cache.hits
        assert cache.get(r2, 0, device, memory) == ("r1b0",)
        assert cache.hits == hits + 1

    def test_invalidate_missing_run_is_noop(self):
        cache = BlockCache(4)
        _cached_runs(cache, 1)
        cache.invalidate_run(99, 3)
        assert len(cache) == 1

    def test_clear_resets_index(self):
        cache = BlockCache(4)
        device, memory, (r1,) = _cached_runs(cache, 2)
        cache.clear()
        assert (len(cache), cache.hits, cache.misses) == (0, 0, 0)
        cache.get(r1, 1, device, memory)
        assert (len(cache), cache.hits, cache.misses) == (1, 0, 1)


# ----------------------------------------------------------------------
# Injector mechanics: transient errors, torn appends, partial writes
# ----------------------------------------------------------------------

class TestFaultInjector:
    def test_transient_errors_absorbed_by_retry(self):
        plan = FaultPlan(seed=1, transient_rate=0.6, max_consecutive_errors=2)
        injector = FaultInjector(plan)
        device = StorageDevice()
        device.faults = injector
        run_id = device.write_run([(("e",),)] * 3)
        for _ in range(50):
            device.read_block(run_id, 0)
        assert injector.transient_errors > 0
        assert device.io_retries == injector.transient_errors
        assert injector.backoffs == injector.transient_errors

    def test_persistent_fault_escalates_after_budget(self):
        class AlwaysFailing:
            def on_io(self, op, attempt):
                raise TransientIOError("stuck")

            def on_backoff(self, op, attempt):
                pass

            def partial_write(self, run_id, num_blocks):
                return None

        device = StorageDevice()
        device.faults = AlwaysFailing()
        with pytest.raises(TransientIOError, match="persisted past"):
            device.write_run([(("e",),)])
        assert device.io_retries == MAX_IO_ATTEMPTS

    def test_partial_write_keeps_prefix_and_stays_down(self):
        plan = FaultPlan(seed=3, crash_kind=CRASH_IN_RUN_WRITE, crash_occurrence=1)
        injector = FaultInjector(plan)
        device = StorageDevice()
        device.faults = injector
        with pytest.raises(InjectedCrash):
            device.write_run([(("a",),), (("b",),), (("c",),)])
        assert injector.crashed
        orphans = device.run_ids()
        assert len(orphans) == 1
        assert device.num_blocks(orphans[0]) < 3
        with pytest.raises(InjectedCrash, match="down"):
            device.read_run(orphans[0])

    def test_crash_point_occurrence_counting(self):
        plan = FaultPlan(
            seed=0,
            crash_kind=CRASH_AT_POINT,
            crash_point_name="demo.point",
            crash_occurrence=3,
        )
        injector = FaultInjector(plan)
        with activated(injector):
            crash_point("demo.point")
            crash_point("demo.point")
            with pytest.raises(InjectedCrash):
                crash_point("demo.point")
            with pytest.raises(InjectedCrash, match="down"):
                crash_point("other.point")
        assert injector.point_counts["demo.point"] == 3

    def test_crash_points_are_noops_when_inactive(self):
        crash_point("kvstore.put.after_wal")  # must not raise

    def test_registered_points_all_fire_in_campaigns(self):
        """Every documented crash point is reachable: the tiered and
        sharded smoke campaigns between them must fire each single-node
        point. The ``cluster.*`` points need a live multi-node cluster
        and are covered by the cluster campaign instead
        (tests/test_campaign_golden.py asserts each one fires there)."""
        from repro.cluster.faultcheck import CLUSTER_POINTS

        cluster_points = {
            p for p in CRASH_POINTS if p.startswith("cluster.")
        }
        assert cluster_points == set(CLUSTER_POINTS)
        seen = set()
        for preset, shards in (("tiered", 1), ("leveled", 2)):
            report = run_faultcheck(
                FaultcheckConfig(
                    seeds=5, shards=shards, preset=preset, ops=40
                )
            )
            assert report.ok, report.violations
            seen.update(report.counters["crash_points_seen"])
        missing = set(CRASH_POINTS) - cluster_points - seen
        assert not missing, f"crash points never fired: {missing}"


class TestTornWalAppend:
    def test_torn_append_writes_prefix_and_recovery_truncates(self):
        cfg = durable_config()
        for occurrence in (1, 3, 5):
            plan = FaultPlan(
                seed=occurrence,
                crash_kind=CRASH_IN_WAL_APPEND,
                crash_occurrence=occurrence,
            )
            injector = FaultInjector(plan)
            store = build_store(cfg)
            injector.install(store)
            acked = {}
            crashed_key = None
            with crashpoints.activated(injector):
                for i in range(10):
                    try:
                        store.put(i, f"v{i}")
                    except InjectedCrash:
                        crashed_key = i
                        break
                    acked[i] = f"v{i}"
            assert crashed_key is not None
            state = store.crash()
            assert state.storage.faults is None
            recovered = recover_store(state, cfg)
            for key, value in acked.items():
                assert recovered.get(key) == value
            # The torn record was never acked: absent is correct, and
            # replay must have truncated it cleanly (no exception).
            assert recovered.get(crashed_key) is None


class TestMidCascadeCrash:
    """Regression: before deferred run reclamation, a merge dropped its
    input runs *before* building the output — a crash between the two
    lost committed data. And before the committed-manifest fix, the
    persisted filter blob could describe the mid-cascade filter state
    while recovery reopened the pre-cascade tree."""

    @pytest.mark.parametrize(
        "point",
        [
            "tree.emplace.before_build",
            "tree.merge.before_build",
            "tree.merge.after_build",
            "tree.spill.before_place",
            "tree.flush.before_commit",
            "kvstore.flush.before_wal_truncate",
        ],
    )
    def test_crash_at_every_tree_point_preserves_acked_writes(self, point):
        cfg = durable_config()
        for occurrence in (1, 2):
            plan = FaultPlan(
                seed=0,
                crash_kind=CRASH_AT_POINT,
                crash_point_name=point,
                crash_occurrence=occurrence,
            )
            injector = FaultInjector(plan)
            store = build_store(cfg)
            injector.install(store)
            model = KeyModel()
            with crashpoints.activated(injector):
                for i in range(64):
                    op = Op("update", i % 16, f"gen{i}")
                    try:
                        apply(store, op)
                    except InjectedCrash:
                        model.unacked(op)
                        break
                    model.ack(op)
            if not injector.crashed:
                continue  # the point fired fewer times than `occurrence`
            state = store.crash()
            assert state.storage.faults is None
            recovered = recover_store(state, cfg)
            checker = InvariantChecker()
            expectations = model.expectations()
            reads = {key: recovered.get(key) for key in expectations}
            violations = checker.check_reads(reads, expectations)
            violations += checker.check_structure(recovered)
            assert not violations, [str(v) for v in violations]

    def test_mid_cascade_filter_blob_is_not_persisted(self):
        """The Chucky fingerprint blob reflects in-flight merge events;
        restoring it against the committed (pre-cascade) manifest would
        point keys at the wrong sub-levels. crash() must withhold it."""
        cfg = durable_config()
        plan = FaultPlan(
            seed=0,
            crash_kind=CRASH_AT_POINT,
            crash_point_name="tree.merge.after_build",
            crash_occurrence=1,
        )
        injector = FaultInjector(plan)
        store = build_store(cfg)
        injector.install(store)
        with crashpoints.activated(injector):
            with pytest.raises(InjectedCrash):
                for i in range(128):
                    store.put(i % 16, f"v{i}")
        state = store.crash()
        assert state.filter_blob is None
        # At rest, the blob IS persisted (fingerprint fast path intact).
        clean = build_store(cfg)
        for i in range(64):
            clean.put(i % 16, f"v{i}")
        assert clean.crash().filter_blob is not None

    def test_orphan_runs_never_reach_the_state(self):
        """A crash mid-cascade leaves orphan runs on the live device;
        the crash state snapshots only the committed manifest's runs,
        so no recovery ever has an orphan to sweep."""
        cfg = durable_config()
        plan = FaultPlan(
            seed=0,
            crash_kind=CRASH_AT_POINT,
            crash_point_name="tree.merge.after_build",
            crash_occurrence=1,
        )
        injector = FaultInjector(plan)
        store = build_store(cfg)
        injector.install(store)
        with crashpoints.activated(injector):
            with pytest.raises(InjectedCrash):
                for i in range(128):
                    store.put(i % 16, f"v{i}")
        state = store.crash()
        assert state.storage.faults is None
        referenced = [m.run_id for m in state.manifest]
        orphans = set(store.tree.storage.run_ids()) - set(referenced)
        assert orphans, "expected the crash to leave orphan runs"
        assert state.storage.run_ids() == referenced
        recovered = recover_store(state, cfg)
        violations = InvariantChecker().check_structure(recovered)
        assert not violations, [str(v) for v in violations]


# ----------------------------------------------------------------------
# Production-path purity: installed-but-idle faults change nothing
# ----------------------------------------------------------------------

class TestNoFaultIOIdentity:
    def test_counted_ios_identical_with_and_without_harness(self):
        cfg = durable_config()

        def drive(store):
            rng = random.Random(5)
            for i in range(120):
                store.put(rng.randrange(32), f"v{i}")
                if i % 7 == 0:
                    store.get(rng.randrange(32))
            return store.snapshot()

        plain = drive(build_store(cfg))
        instrumented_store = build_store(cfg)
        injector = FaultInjector(FaultPlan(seed=0, transient_rate=0.0))
        injector.install(instrumented_store)
        with crashpoints.activated(injector):
            instrumented = drive(instrumented_store)
        assert instrumented.as_dict() == plain.as_dict()


# ----------------------------------------------------------------------
# The explorer end to end, plus the canary
# ----------------------------------------------------------------------

class TestFaultcheckCampaigns:
    def test_single_shard_zero_violations(self):
        report = run_faultcheck(FaultcheckConfig(seeds=3, shards=1, ops=40))
        assert report.ok, report.violations
        assert report.counters["crashes_injected"] > 0
        assert report.counters["torn_wal_appends"] > 0
        assert report.counters["partial_run_writes"] > 0

    def test_multi_shard_zero_violations(self):
        report = run_faultcheck(
            FaultcheckConfig(seeds=3, shards=4, preset="lazy", ops=40)
        )
        assert report.ok, report.violations
        seen = report.counters["crash_points_seen"]
        assert "sharded.batch.between_shards" in seen

    def test_deterministic_reports(self):
        cfg = FaultcheckConfig(seeds=2, shards=1, ops=30)
        assert run_faultcheck(cfg).as_dict() == run_faultcheck(cfg).as_dict()

    def test_report_shape(self):
        report = run_faultcheck(
            FaultcheckConfig(seeds=1, ops=25, schedules_per_seed=2)
        )
        data = report.as_dict()
        assert data["ok"] is True
        assert data["schedules_run"] == len(data["results"])
        assert data["results"][0]["schedule"] == "trace"

    def test_migration_schedules_cover_all_crash_points(self):
        """Five seeds rotate through the four ``tuning.migrate.*``
        points plus the crashed merge-policy switch; every schedule must
        crash, recover cleanly (under the old config before the swap,
        the new config after) and match the model — the crash-safety
        contract of live retuning."""
        report = run_faultcheck(
            FaultcheckConfig(
                seeds=5, ops=30, schedules_per_seed=0, group_commit=False
            )
        )
        assert report.ok, report.violations
        migration = [
            r for r in report.results if r.schedule.startswith("migration")
        ]
        assert len(migration) == 5
        assert all(r.crashed for r in migration)
        for point in (
            "tuning.migrate.before_build",
            "tuning.migrate.mid_build",
            "tuning.migrate.before_swap",
            "tuning.migrate.after_swap",
            "tuning.switch.before_commit",
        ):
            assert point in report.counters["crash_points_seen"], point

    def test_migration_schedules_sharded_bloom_start(self):
        report = run_faultcheck(
            FaultcheckConfig(
                seeds=5,
                shards=3,
                policy="bloom",
                ops=30,
                schedules_per_seed=0,
                group_commit=False,
            )
        )
        assert report.ok, report.violations

    def test_migration_disabled_runs_no_migration_schedules(self):
        report = run_faultcheck(
            FaultcheckConfig(
                seeds=1,
                ops=25,
                schedules_per_seed=1,
                group_commit=False,
                migration=False,
            )
        )
        assert not any(
            r.schedule.startswith("migration") for r in report.results
        )

    def test_workload_is_deterministic_and_ends_with_bytes_put(self):
        first = make_workload(9, 40)
        assert first == make_workload(9, 40)
        final = first[-1]
        assert final.kind == "update" and isinstance(final.value, bytes)
        with pytest.raises(UnicodeDecodeError):
            final.value.decode("utf-8")

    def test_canary_reintroduced_replay_bug_is_caught(self, monkeypatch):
        """Re-introduce the shipped WAL bug (values coerced through a
        utf-8 str decode) and the explorer must report violations —
        proof that faultcheck guards this bug class."""
        original = WriteAheadLog.replay

        def buggy_replay(self):
            for kind, key, value, seqno in original(self):
                if isinstance(value, bytes):
                    value = value.decode("utf-8", errors="replace")
                yield kind, key, value, seqno

        monkeypatch.setattr(WriteAheadLog, "replay", buggy_replay)
        report = run_faultcheck(
            FaultcheckConfig(seeds=1, ops=30, group_commit=False)
        )
        assert not report.ok
        assert any("acked-durable" in v for v in report.violations)

    @pytest.mark.parametrize("system", ["store", "cluster"])
    def test_crash_that_never_fires_is_one_harness_violation(self, system):
        """The shared skeleton's "scheduled crash never fired" verdict,
        for both systems under test: the drive reaches the crash point,
        but never the scheduled occurrence, so the schedule is one
        ``[harness]`` violation and nothing is recovered or read."""
        if system == "store":
            sut = _StoreUnderTest(FaultcheckConfig().engine_config())
            point = "kvstore.put.after_wal"
            drive = partial(_drive_workload, make_workload(0, 20))
        else:
            from repro.cluster.faultcheck import (
                ClusterFaultcheckConfig,
                _ClusterUnderTest,
                _drive_replicate,
            )

            sut = _ClusterUnderTest(ClusterFaultcheckConfig(), seed=0)
            point = "cluster.replicate.before_send"
            drive = _drive_replicate
        plan = FaultPlan(
            seed=0,
            crash_kind=CRASH_AT_POINT,
            crash_point_name=point,
            crash_occurrence=10_000,
        )
        result, injector = asyncio.run(
            _run_schedule(sut, plan, "unreachable", drive)
        )
        assert injector.point_counts[point] > 0
        assert result.crashed is False
        assert len(result.violations) == 1, result.violations
        assert result.violations[0].startswith(
            "[harness] scheduled crash never fired"
        )

    def test_canary_strict_decode_bug_is_caught(self, monkeypatch):
        """The harsher variant: a strict decode raises during replay —
        the harness must convert the recovery crash into a violation,
        not die."""
        original = WriteAheadLog.replay

        def strict_replay(self):
            for kind, key, value, seqno in original(self):
                if isinstance(value, bytes):
                    value = value.decode("utf-8")
                yield kind, key, value, seqno

        monkeypatch.setattr(WriteAheadLog, "replay", strict_replay)
        report = run_faultcheck(
            FaultcheckConfig(seeds=1, ops=30, group_commit=False)
        )
        assert not report.ok
        assert any("recovery" in v for v in report.violations)
