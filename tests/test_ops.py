"""The one op vocabulary, applier and key model (repro.workloads.ops).

The key model's unacked-write rule, ``apply`` against the model on a
durable and on a 4-shard store over every op kind, ``apply_remote``
over a loopback server against ``apply`` in process, and both appliers
refusing a kind they do not know.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.config import EngineConfig, build_store, recover_store
from repro.faults.invariants import ABSENT, InvariantChecker
from repro.lsm.entry import TOMBSTONE
from repro.server import ReproServer, ServerConfig
from repro.server.client import AsyncClient
from repro.workloads.generators import request_stream
from repro.workloads.ops import (
    OP_KINDS,
    STREAM_KINDS,
    UNKNOWN,
    KeyModel,
    Op,
    apply,
    apply_remote,
)

#: Far past any clock a test reaches: a TTL'd put reads like a put.
FAR_TTL = 1 << 60


class TestUnackedRule:
    def test_never_written_key_of_an_empty_model_is_absent(self):
        model = KeyModel()
        assert model.allowed(7) == (ABSENT,)
        assert model.expectations() == {}
        assert model.acked_keys == 0

    def test_ack_fixes_the_value_and_a_delete_makes_it_absent(self):
        model = KeyModel()
        model.ack(Op("update", 1, "a"))
        assert model.allowed(1) == ("a",)
        model.ack(Op("delete", 1))
        assert model.allowed(1) == (ABSENT,)
        assert model.acked_keys == 1

    def test_one_unacked_write_allows_before_or_after(self):
        model = KeyModel()
        model.ack(Op("update", 1, "old"))
        model.unacked(Op("update", 1, "new"))
        assert model.allowed(1) == ("old", "new")
        model.unacked(Op("insert", 2, "fresh"))
        assert model.allowed(2) == (ABSENT, "fresh")
        assert model.expectations() == {1: ("old", "new"), 2: (ABSENT, "fresh")}
        # Only key 1 has an acked state behind its unacked write.
        assert model.acked_keys == 1

    def test_second_unacked_write_makes_the_key_unknown(self):
        model = KeyModel()
        model.ack(Op("update", 1, "old"))
        model.unacked(Op("update", 1, "new"))
        model.unacked(Op("delete", 1))
        assert model.allowed(1) is UNKNOWN
        assert 1 not in model.expectations()
        assert model.acked_keys == 0

    def test_an_ack_resolves_the_key(self):
        model = KeyModel()
        model.unacked(Op("update", 1, "a"))
        model.unacked(Op("update", 1, "b"))
        assert model.allowed(1) is UNKNOWN
        model.ack(Op("update", 1, "c"))
        assert model.allowed(1) == ("c",)
        model.unacked(Op("update", 1, "d"))
        model.ack(Op("delete", 1))
        assert model.allowed(1) == (ABSENT,)

    def test_preloaded_start_and_batch_effects(self):
        model = KeyModel({1: b"p1", 2: b"p2"})
        assert model.allowed(1) == (b"p1",)
        assert model.allowed(3) == (ABSENT,)
        # A batch is atomic: one unacked write per key, its last wins.
        batch = Op("batch", items=((1, b"x"), (1, b"y"), (2, TOMBSTONE)))
        model.unacked(batch)
        assert model.allowed(1) == (b"p1", b"y")
        assert model.allowed(2) == (b"p2", ABSENT)
        model.ack(batch)
        assert model.expectations() == {1: (b"y",), 2: (ABSENT,)}

    def test_reads_scans_and_flushes_write_nothing(self):
        model = KeyModel()
        for op in (Op("read", 1), Op("scan", 0, hi=9), Op("flush")):
            model.ack(op)
            model.unacked(op)
        assert model.expectations() == {}

    def test_expectations_list_acked_keys_first(self):
        model = KeyModel()
        model.ack(Op("update", 5, "a"))
        model.unacked(Op("update", 9, "b"))
        model.ack(Op("update", 3, "c"))
        model.ack(Op("update", 5, "d"))
        assert list(model.expectations()) == [5, 3, 9]


class TestUnknownKinds:
    def test_apply_rejects_an_unknown_kind_and_writes_nothing(self):
        store = build_store(EngineConfig(size_ratio=3, buffer_entries=8))
        with pytest.raises(ValueError, match="unknown op kind 'put'"):
            apply(store, Op("put", 1, "v"))
        assert store.get(1) is None
        assert store.snapshot().updates == 0

    @pytest.mark.parametrize("kind", ["put_ttl", "batch", "flush", "upsert"])
    def test_apply_remote_rejects_what_the_wire_does_not_carry(self, kind):
        class NoCalls:
            def __getattr__(self, name):
                raise AssertionError(f"{name} called")

        with pytest.raises(ValueError, match="cannot go on the wire"):
            asyncio.run(apply_remote(NoCalls(), Op(kind, 1, "v")))

    def test_kind_sets(self):
        assert set(STREAM_KINDS) < set(OP_KINDS)
        assert set(OP_KINDS) - set(STREAM_KINDS) == {"put_ttl", "batch", "flush"}


# ----------------------------------------------------------------------
# apply against the model, every kind
# ----------------------------------------------------------------------

_KEYS = st.integers(0, 23)
_VALUES = st.one_of(
    st.text(max_size=6), st.binary(max_size=6).map(lambda b: b"\xff" + b)
)
_OPS = st.one_of(
    st.builds(lambda key: Op("read", key), _KEYS),
    st.builds(
        lambda kind, key, value: Op(kind, key, value),
        st.sampled_from(["update", "insert", "rmw"]), _KEYS, _VALUES,
    ),
    st.builds(lambda key: Op("delete", key), _KEYS),
    st.builds(
        lambda lo, width: Op("scan", lo, hi=lo + width),
        _KEYS, st.integers(0, 12),
    ),
    st.builds(
        lambda key, value: Op("put_ttl", key, value, ttl=FAR_TTL),
        _KEYS, _VALUES,
    ),
    st.builds(
        lambda items: Op("batch", items=tuple(items)),
        st.lists(
            st.tuples(_KEYS, st.one_of(_VALUES, st.just(TOMBSTONE))),
            min_size=1, max_size=5,
        ),
    ),
    st.just(Op("flush")),
)

_STORES = {
    "durable": dict(durable=True),
    "4-shard": dict(durable=True, shards=4),
}


def _live(model: KeyModel, lo, hi) -> list:
    return sorted(
        (key, value)
        for key, (value,) in model.expectations().items()
        if lo <= key <= hi and value is not ABSENT
    )


@pytest.mark.parametrize("store_kind", sorted(_STORES))
@settings(max_examples=40, deadline=None)
@given(ops=st.lists(_OPS, max_size=80))
def test_apply_agrees_with_the_model(store_kind, ops):
    config = EngineConfig(
        size_ratio=3, buffer_entries=4, block_entries=2, **_STORES[store_kind]
    )
    store = build_store(config)
    model = KeyModel()
    checker = InvariantChecker()
    for op in ops:
        before = model.allowed(op.key) if op.key is not None else None
        result = apply(store, op)
        if op.kind in ("read", "rmw"):
            assert not checker.check_reads({op.key: result}, {op.key: before})
        elif op.kind == "scan":
            assert result == _live(model, op.key, op.hi)
        else:
            assert result is None
        model.ack(op)
    recovered = recover_store(store.crash(), config)
    expectations = model.expectations()
    reads = {key: recovered.get(key) for key in expectations}
    assert not checker.check_reads(reads, expectations)


# ----------------------------------------------------------------------
# apply_remote against apply
# ----------------------------------------------------------------------

def _stream(workload: str) -> list[Op]:
    keys = list(range(60))
    return [
        Op(kind, key, f"{workload}-{n}", hi=key + 8)
        for n, (kind, key) in enumerate(
            request_stream(workload, keys, 300, read_fraction=0.6, seed=4)
        )
    ]


def _wire(result):
    """An in-process answer as the wire returns it (values as bytes)."""
    if isinstance(result, list):
        return [(key, value.encode()) for key, value in result]
    return result.encode() if isinstance(result, str) else result


@pytest.mark.parametrize("workload", ["churn", "ycsb-a", "ycsb-e", "ycsb-f"])
def test_apply_remote_reads_what_apply_reads(workload):
    config = EngineConfig(size_ratio=3, buffer_entries=16, block_entries=4)
    ops = _stream(workload)
    local = build_store(config)
    expected = [_wire(apply(local, op)) for op in ops]

    async def remote() -> list:
        server = ReproServer(build_store(config), ServerConfig(port=0))
        port = await server.start()
        client = await AsyncClient.connect("127.0.0.1", port)
        try:
            return [await apply_remote(client, op) for op in ops]
        finally:
            await client.close()
            await server.drain()

    assert {op.kind for op in ops} <= set(STREAM_KINDS)
    assert asyncio.run(remote()) == expected
    assert any(answer for answer in expected)
