"""One key domain: every store takes the keys a run's key column holds.

A key is an integer in ``[0, 2**64)`` — what ``array('Q')``, the WAL and
the wire carry — or an object whose ``__index__`` is one (a ``bool``
is its integer). Durable, non-durable and sharded stores agree: a
valid key works through ``put``, ``get``, ``delete``, ``put_batch``,
``get_batch`` and ``scan``; a key outside the domain raises one error
before anything is logged or buffered.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig, build_store, shards_of

KEY_LIMIT = 1 << 64

KINDS = {
    "durable": dict(durable=True),
    "non-durable": dict(durable=False),
    "4 shards": dict(durable=True, shards=4),
}


class Index:
    """An int-like key: usable through ``__index__`` alone."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def make_store(kind):
    return build_store(
        EngineConfig(buffer_entries=8, block_entries=4, **KINDS[kind])
    )


def footprint(store):
    """Everything an operation would change: the store's scan count and
    per shard its op counters, seqno, buffer, WAL and tree."""
    return store.scans, [
        (
            shard.updates,
            shard.queries,
            shard.scans,
            shard._seqno,
            len(shard.memtable),
            None if shard.wal is None else bytes(shard.wal.data),
            shard.tree.num_entries,
        )
        for shard in shards_of(store)
    ]


#: Keys in the domain, spelled as an int, a bool or an ``__index__``
#: object; drawn from a few values so that writes overwrite.
VALID = st.one_of(
    st.sampled_from([0, 1, 2, 7, 1 << 40, KEY_LIMIT - 1]),
    st.integers(0, 30),
).flatmap(
    lambda k: st.sampled_from(
        [k, Index(k)] + ([bool(k)] if k in (0, 1) else [])
    )
)
#: Integer keys outside the domain.
INVALID = st.one_of(
    st.integers(max_value=-1), st.integers(min_value=KEY_LIMIT)
)


def as_int(key):
    return key.__index__() if isinstance(key, Index) else int(key)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(KINDS)),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "delete", "put_batch", "get", "get_batch"]),
            st.lists(VALID, min_size=1, max_size=4),
        ),
        max_size=40,
    ),
)
def test_valid_keys_agree_with_a_model(kind, ops):
    store = make_store(kind)
    model = {}
    for step, (op, keys) in enumerate(ops):
        if op == "put":
            store.put(keys[0], f"v{step}")
            model[as_int(keys[0])] = f"v{step}"
        elif op == "delete":
            store.delete(keys[0])
            model.pop(as_int(keys[0]), None)
        elif op == "put_batch":
            store.put_batch([(key, f"b{step}.{i}") for i, key in enumerate(keys)])
            for i, key in enumerate(keys):
                model[as_int(key)] = f"b{step}.{i}"
        elif op == "get":
            assert store.get(keys[0]) == model.get(as_int(keys[0]))
        else:
            assert store.get_batch(keys) == [model.get(as_int(k)) for k in keys]
    everything = list(store.scan(Index(0), KEY_LIMIT - 1))
    assert everything == sorted(model.items())
    assert all(type(key) is int for key, _ in everything)
    assert list(store.scan(False, True)) == [
        (k, v) for k, v in sorted(model.items()) if k <= 1
    ]


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(KINDS)),
    good=st.lists(VALID, min_size=1, max_size=5),
    bad=INVALID,
    op=st.sampled_from(
        ["put", "delete", "put_batch", "get", "get_batch", "scan-lo", "scan-hi"]
    ),
)
def test_out_of_domain_key_raises_before_anything_lands(kind, good, bad, op):
    store = make_store(kind)
    for i, key in enumerate(good):
        store.put(key, f"v{i}")
    before = footprint(store)
    calls = {
        "put": lambda: store.put(bad, "x"),
        "delete": lambda: store.delete(bad),
        # The bad key comes last: nothing before it may land either.
        "put_batch": lambda: store.put_batch(
            [(key, "y") for key in good] + [(bad, "z")]
        ),
        "get": lambda: store.get(bad),
        "get_batch": lambda: store.get_batch(good + [bad]),
        "scan-lo": lambda: store.scan(bad, 5),
        "scan-hi": lambda: store.scan(0, bad),
    }
    with pytest.raises(ValueError, match="out of 64-bit range"):
        calls[op]()
    assert footprint(store) == before


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("key", ["7", 7.0, None, b"\x07"])
def test_a_key_without_index_is_a_type_error(kind, key):
    store = make_store(kind)
    store.put(1, "one")
    before = footprint(store)
    for call in (
        lambda: store.put(key, "x"),
        lambda: store.delete(key),
        lambda: store.put_batch([(2, "y"), (key, "z")]),
        lambda: store.get(key),
        lambda: store.get_batch([1, key]),
        lambda: store.scan(key, 9),
    ):
        with pytest.raises(TypeError):
            call()
    assert footprint(store) == before
