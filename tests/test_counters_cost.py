"""I/O counters and the latency cost model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.cost import CostModel, LatencyBreakdown
from repro.common.counters import IOCounters, MemoryIOCounter, StorageIOCounter


class TestMemoryIOCounter:
    def test_add_and_get(self):
        c = MemoryIOCounter()
        c.add("filter", 3)
        c.add("filter")
        assert c.get("filter") == 4
        assert c.get("fence") == 0

    def test_total(self):
        c = MemoryIOCounter()
        c.add("a", 2)
        c.add("b", 5)
        assert c.total == 7

    def test_negative_rejected(self):
        c = MemoryIOCounter()
        with pytest.raises(ValueError):
            c.add("a", -1)

    def test_snapshot_diff(self):
        c = MemoryIOCounter()
        c.add("a", 2)
        snap = c.snapshot()
        c.add("a", 3)
        c.add("b", 1)
        assert c.diff(snap) == {"a": 3, "b": 1}

    def test_reset(self):
        c = MemoryIOCounter()
        c.add("a")
        c.reset()
        assert c.total == 0


#: One counter operation: ``("add", category, count)`` (a negative
#: count must be refused) or ``("reset",)``.
COUNTER_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.sampled_from(["filter", "memtable", "fence", "cache"]),
            st.integers(-3, 50),
        ),
        st.just(("reset",)),
    ),
    max_size=60,
)


class TestMaintainedTotal:
    """``total`` is an attribute ``add`` and ``reset`` keep up to date
    (the modelled clock reads it per read), never a stale sum."""

    @given(COUNTER_OPS)
    def test_total_is_the_sum_of_the_categories(self, ops):
        c = MemoryIOCounter()
        for op in ops:
            if op[0] == "reset":
                c.reset()
                continue
            _, category, count = op
            before = c.total
            if count < 0:
                with pytest.raises(ValueError):
                    c.add(category, count)
                assert c.total == before
            else:
                c.add(category, count)
                assert c.total == before + count
            assert c.total == sum(c.snapshot().values())
        assert c.total == sum(c.snapshot().values())


class TestStorageIOCounter:
    def test_reads_writes(self):
        c = StorageIOCounter()
        c.read(2)
        c.write()
        assert (c.reads, c.writes, c.total) == (2, 1, 3)

    def test_reset(self):
        c = StorageIOCounter()
        c.read()
        c.reset()
        assert c.total == 0


class TestCostModel:
    def test_paper_defaults(self):
        """Paper section 1: memory ~100 ns, Optane read ~10 us."""
        m = CostModel()
        assert m.memory_io_ns == 100.0
        assert m.storage_read_ns == 10_000.0

    def test_pricing(self):
        m = CostModel(memory_io_ns=10, storage_read_ns=1000, storage_write_ns=2000)
        assert m.memory_cost(3) == 30
        assert m.storage_cost(2, 1) == 4000


class TestLatencyBreakdown:
    def test_total(self):
        b = LatencyBreakdown(filter_ns=1, memtable_ns=2, fence_ns=3, storage_ns=4)
        assert b.total_ns == 10

    def test_add(self):
        a = LatencyBreakdown(filter_ns=1)
        a.add(LatencyBreakdown(filter_ns=2, storage_ns=5))
        assert a.filter_ns == 3
        assert a.storage_ns == 5

    def test_scaled(self):
        b = LatencyBreakdown(filter_ns=10, storage_ns=20).scaled(0.5)
        assert (b.filter_ns, b.storage_ns) == (5, 10)

    def test_as_dict_includes_total(self):
        d = LatencyBreakdown(filter_ns=1).as_dict()
        assert d["total_ns"] == 1


class TestIOCounters:
    def test_bundle_reset(self):
        c = IOCounters()
        c.memory.add("x")
        c.storage.read()
        c.reset()
        assert c.memory.total == 0
        assert c.storage.total == 0
