"""The load generator: one closed loop, two targets.

The single-server target runs against an in-process ``ReproServer``;
the cluster target against the ``LoopbackCluster`` fixture (real
sockets, one event loop) with a mid-run leader kill — tier-1 coverage
of what only the multi-process ``cluster-smoke`` CI job used to run.
"""

import asyncio
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from repro.cluster import (
    ClusterFaultcheckConfig,
    ClusterLoadgenConfig,
    ClusterTarget,
    LoopbackCluster,
)
from repro.cluster.node import ClusterError
from repro.engine.config import EngineConfig, build_store
from repro.server import LoadgenConfig, ReproServer, ServerConfig, run_loadgen
from repro.server.loadgen import ServerTarget, _summarize_op


class TestPercentiles:
    @pytest.mark.parametrize("n", range(1, 41))
    def test_summary_percentiles_are_nearest_rank(self, n):
        """Rank ``ceil(q * n)``, exactly. The helper this replaced
        computed ``round(q * n + 0.5)``, and Python rounds half to even:
        p50 of 2 samples was the max, of 6 the 4th, of 10 the 6th, of 14
        the 8th; p95 of 20 the 20th."""
        stats = _summarize_op([float(i) for i in range(n, 0, -1)])
        for name, q in (("p50_us", "0.50"), ("p95_us", "0.95"), ("p99_us", "0.99")):
            assert stats[name] == math.ceil(Fraction(q) * n), (name, n)
        assert stats["max_us"] == n and stats["count"] == n

    def test_empty_summary_is_all_zero(self):
        assert set(_summarize_op([]).values()) == {0, 0.0}


async def _serve_and_run(cfg_kwargs: dict) -> dict:
    store = build_store(
        EngineConfig.leveled(
            size_ratio=3, buffer_entries=32, durable=True, shards=2
        )
    )
    server = ReproServer(store, ServerConfig(port=0))
    port = await server.start()
    try:
        return await run_loadgen(LoadgenConfig(port=port, **cfg_kwargs))
    finally:
        await server.drain()


class TestServerTarget:
    def test_churn_reads_never_miss_a_live_key(self):
        summary = asyncio.run(
            _serve_and_run(
                dict(connections=3, ops=600, workload="churn", key_space=90)
            )
        )
        assert summary["bench"] == "serve"
        assert summary["errors"] == 0
        assert summary["latency_us"]["delete"]["count"] > 0
        assert summary["latency_us"]["insert"]["count"] > 0
        check = summary["verification"]
        assert check["verified_reads"] > 0
        assert check["false_negatives"] == 0
        assert check["stale_reads"] == 0

    def test_a_lost_update_is_a_stale_read(self):
        """Every put is acked but leaves the key's older value in place.
        A membership check saw a live key reading live and passed it; a
        value check sees the read of the older value."""
        cfg = LoadgenConfig(
            connections=2, ops=400, workload="churn", key_space=40
        )
        summary = asyncio.run(run_loadgen(cfg, _LosesUpdates(cfg)))
        check = summary["verification"]
        assert summary["errors"] == 0
        assert check["verified_reads"] > 0
        assert check["false_negatives"] == 0
        assert check["stale_reads"] > 0

    def test_invalid_configs_are_value_errors(self):
        with pytest.raises(ValueError, match="connections"):
            LoadgenConfig(connections=0)
        with pytest.raises(ValueError, match="key_space >= connections"):
            asyncio.run(
                run_loadgen(
                    LoadgenConfig(connections=8, key_space=4, workload="churn")
                )
            )


class _KeepsOlderValues:
    """A connection whose acked puts never replace a key's value (the
    preload value stays readable: a lost update); deletes land."""

    def __init__(self, data: dict, older: bytes) -> None:
        self.data = data
        self.older = older

    async def get(self, key):
        return self.data.get(key)

    async def put(self, key, value) -> None:
        self.data[key] = self.older

    async def delete(self, key) -> None:
        self.data.pop(key, None)

    async def close(self) -> None:
        pass


class _LosesUpdates(ServerTarget):
    """The single-server target over :class:`_KeepsOlderValues`."""

    async def preload(self) -> None:
        self.older = b"x" * self.cfg.value_size
        self.data = dict.fromkeys(range(self.cfg.key_space), self.older)

    async def connect(self, index: int):
        return _KeepsOlderValues(self.data, self.older)


async def _cluster_run(workload: str, seed: int, kill: str = "auto") -> tuple:
    cluster = LoopbackCluster(ClusterFaultcheckConfig())
    coordinator = await cluster.start()
    leader = coordinator.map.leader_of(0)
    cfg = LoadgenConfig(
        connections=3, ops=300, workload=workload, key_space=90, seed=seed
    )
    target = ClusterTarget(
        cfg, ClusterLoadgenConfig(kill=kill), coordinator, cluster.kill
    )
    try:
        return await run_loadgen(cfg, target), leader, cluster
    finally:
        await coordinator.close()
        await cluster.stop()


class TestClusterTarget:
    @pytest.mark.parametrize("seed", range(4))
    def test_leader_kill_loses_no_acked_write(self, seed):
        summary, leader, cluster = asyncio.run(_cluster_run("ycsb-a", seed))
        assert summary["bench"] == "cluster"
        assert summary["total_ops"] == 300
        # The fixture's kill is a coroutine function: it must have been
        # awaited, not just called.
        assert summary["killed"] == leader
        assert cluster.killed == {leader}
        assert summary["failovers"] >= 1
        assert summary["acked_writes"] >= 90
        assert summary["lost_acked"] == 0, summary["lost_keys"]
        assert summary["errors"] == 0
        assert summary["config"]["kill"] == "auto"
        assert {"all", "read", "update"} <= set(summary["latency_us"])

    @pytest.mark.parametrize("workload", ["churn", "denylist", "ycsb-d", "ycsb-f"])
    def test_every_issuable_op_class_reaches_the_coordinator(self, workload):
        """These died with ``KeyError: 'insert'`` / ``'rmw'`` when the
        cluster loop only had read / update buckets (and sent deletes as
        PUTs)."""
        summary, _, _ = asyncio.run(_cluster_run(workload, seed=1))
        assert summary["lost_acked"] == 0, summary["lost_keys"]
        assert summary["errors"] == 0
        issued = {
            op for op, s in summary["latency_us"].items() if s["count"]
        }
        expected = {
            "churn": {"insert", "delete"},
            "denylist": {"insert"},
            "ycsb-d": {"insert"},
            "ycsb-f": {"rmw"},
        }[workload]
        assert expected <= issued
        if "verification" in summary:
            assert summary["verification"]["false_negatives"] == 0
            assert summary["verification"]["stale_reads"] == 0

    def test_deletes_are_deletes(self):
        """A churned key's last acked op may be a delete; the read-back
        then demands it absent (it used to be PUT and demanded live)."""
        summary, _, _ = asyncio.run(_cluster_run("churn", seed=2, kill=""))
        assert summary["killed"] == "" and summary["failovers"] == 0
        assert summary["latency_us"]["delete"]["count"] > 0
        assert summary["lost_acked"] == 0

    def test_scan_workload_is_rejected_before_any_traffic(self):
        cfg = LoadgenConfig(workload="ycsb-e")
        target = ClusterTarget(cfg, ClusterLoadgenConfig(), None, None)
        with pytest.raises(ValueError, match="'scan'"):
            asyncio.run(run_loadgen(cfg, target))

    def test_too_few_keys_is_a_value_error(self):
        cfg = LoadgenConfig(connections=8, key_space=4)
        target = ClusterTarget(cfg, ClusterLoadgenConfig(), None, None)
        with pytest.raises(ValueError, match="key_space >= connections"):
            asyncio.run(run_loadgen(cfg, target))

    @pytest.mark.parametrize("fraction", [-0.1, 1.0, 1.5])
    def test_kill_that_cannot_fire_is_rejected(self, fraction):
        with pytest.raises(ValueError, match=r"kill_after_fraction .* \[0, 1\)"):
            ClusterLoadgenConfig(kill="auto", kill_after_fraction=fraction)

    def test_kill_that_raises_names_no_victim_and_is_not_retried(self):
        calls = []

        def kill_fn(name):
            calls.append(name)
            raise ClusterError(f"spec has no pid for node {name!r}")

        target = ClusterTarget(
            LoadgenConfig(ops=4),
            ClusterLoadgenConfig(kill="n1", kill_after_fraction=0.0),
            None,
            kill_fn,
        )

        async def drive():
            with pytest.raises(ClusterError):
                await target.before_request()
            await target.before_request()

        asyncio.run(drive())
        assert calls == ["n1"]
        assert target.killed == ""


class _AppliesThenRaises:
    """A coordinator whose every ``fail_every``-th PUT lands and *then*
    raises: the leader died between shipping the write and
    acknowledging it."""

    read_mode = "leader"
    failovers = refreshes = retries = 0
    map = SimpleNamespace(epoch=1)

    def __init__(self) -> None:
        self.data: dict[int, bytes] = {}
        self.puts = 0
        self.fail_every = 0

    async def refresh_map(self) -> None:
        pass

    async def get(self, key):
        return self.data.get(key)

    async def put(self, key, value) -> None:
        self.data[key] = value
        self.puts += 1
        if self.fail_every and self.puts % self.fail_every == 0:
            raise ClusterError("connection lost before the ack")

    async def delete(self, key) -> None:
        self.data.pop(key, None)


class TestUnackedIsNotUnapplied:
    def test_applied_but_unacked_write_is_not_a_lost_write(self):
        """Comparing the read-back with the last *acked* value reported
        every such key as lost (1+ here); the expectation is
        before-or-after, as in both crash campaigns."""
        cfg = LoadgenConfig(
            connections=2, ops=120, workload="ycsb-a", key_space=40,
            preload=False,
        )
        coordinator = _AppliesThenRaises()
        target = ClusterTarget(cfg, ClusterLoadgenConfig(), coordinator, None)
        # Seed acked values so an unacked write has a "before".
        asyncio.run(target.preload())
        coordinator.fail_every = 5
        summary = asyncio.run(run_loadgen(cfg, target))
        assert summary["op_errors"]["update"] > 0
        # Some key ended the run holding an unacknowledged value...
        after = [
            key
            for index, model in target.models.items()
            for key, (before, *unacked) in model.expectations().items()
            if unacked and coordinator.data[key * 2 + index] == unacked[0]
        ]
        assert after
        # ...and that is allowed.
        assert summary["lost_acked"] == 0, summary["lost_keys"]

    def test_a_really_lost_acked_write_is_still_caught(self):
        cfg = LoadgenConfig(
            connections=2, ops=60, workload="ycsb-a", key_space=40,
        )
        coordinator = _AppliesThenRaises()
        target = ClusterTarget(cfg, ClusterLoadgenConfig(), coordinator, None)

        async def run():
            await target.preload()
            coordinator.data[7] = b"rolled-back"
            del coordinator.data[8]
            return await run_loadgen(
                LoadgenConfig(**{**cfg.__dict__, "preload": False}), target
            )

        # Keys 7 and 8 are only lost if the run never rewrites them.
        summary = asyncio.run(run())
        rewritten = {
            key * 2 + index
            for index, model in target.models.items()
            for key, values in model.expectations().items()
            if values != (f"pre-{key * 2 + index}".encode(),)
        }
        assert set(summary["lost_keys"]) == {7, 8} - rewritten
        assert summary["lost_acked"] == len({7, 8} - rewritten) > 0
