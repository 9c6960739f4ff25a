"""Multi-process cluster bring-up for the CLI and CI.

``repro cluster`` spawns one **worker subprocess per node** — each a
full :class:`~repro.cluster.node.ClusterNode` serving its shard subset
over TCP — and writes a *spec file* (JSON) describing the cluster:
node names, addresses, pids, the initial shard map, and the engine
geometry every worker builds its stores from. The spec file is the
single rendezvous point:

* workers read it at startup (``repro cluster --worker --name n1``)
  to learn their peers and the map;
* ``repro loadgen --cluster spec.json`` reads it to route, and to find
  a leader's **pid** when asked to kill one mid-run;
* ``repro rebalance --cluster spec.json`` reads it to reach the
  current leader of a shard.

Everything here is plain ``subprocess`` + JSON — no extra deps — so
the same path runs in CI (the ``cluster-smoke`` job) and on a laptop.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace

from repro.cluster.node import ClusterError, ClusterNode
from repro.cluster.shardmap import ShardMap, even_map
from repro.engine.config import EngineConfig
from repro.obs import Observability
from repro.server.server import ServerConfig

#: EngineConfig fields carried through the spec file (everything a
#: worker needs to rebuild identical per-shard stores).
_ENGINE_KEYS = (
    "size_ratio",
    "runs_per_level",
    "runs_at_last_level",
    "buffer_entries",
    "block_entries",
    "policy",
    "bits_per_entry",
    "cache_blocks",
)


@dataclass
class ClusterSpec:
    """Everything needed to reach (or rebuild) a running cluster."""

    nodes: dict[str, dict]  # name -> {"host", "port", "pid"}
    map: dict  # ShardMap.to_dict()
    engine: dict = field(default_factory=dict)
    commit_batch: int = 64

    def addresses(self) -> dict[str, tuple[str, int]]:
        return {
            name: (info["host"], int(info["port"]))
            for name, info in self.nodes.items()
        }

    def shard_map(self) -> ShardMap:
        return ShardMap.from_dict(self.map)

    def engine_config(self) -> EngineConfig:
        fields = {k: v for k, v in self.engine.items() if k in _ENGINE_KEYS}
        return EngineConfig(durable=True, shards=1, **fields)

    def pid_of(self, name: str) -> int | None:
        info = self.nodes.get(name)
        pid = info.get("pid") if info else None
        return int(pid) if pid else None

    def to_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "map": self.map,
            "engine": self.engine,
            "commit_batch": self.commit_batch,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterSpec":
        return cls(
            nodes=dict(data["nodes"]),
            map=dict(data["map"]),
            engine=dict(data.get("engine", {})),
            commit_batch=int(data.get("commit_batch", 64)),
        )


def write_spec(spec: ClusterSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_spec(path: str) -> ClusterSpec:
    with open(path, encoding="utf-8") as fh:
        return ClusterSpec.from_dict(json.load(fh))


# ----------------------------------------------------------------------
# Worker (runs inside each spawned process)
# ----------------------------------------------------------------------

async def run_worker(name: str, spec: ClusterSpec) -> int:
    """Run one cluster node to completion (drain on SIGINT/SIGTERM).

    This is the body of ``repro cluster --worker``; it can also be
    called directly (e.g. from tests) with a hand-built spec.
    """
    addresses = spec.addresses()
    if name not in addresses:
        raise ClusterError(f"node {name!r} is not in the spec")
    host, port = addresses[name]
    peers = {n: addr for n, addr in addresses.items() if n != name}
    node = ClusterNode(
        name,
        spec.shard_map(),
        spec.engine_config(),
        peers=peers,
        server_config=ServerConfig(
            host=host, port=port, group_commit_batch=spec.commit_batch
        ),
        # Like ``repro serve``: sampled traces only, no untraced ring.
        observability=Observability(trace_ring=0),
    )
    bound = await node.server.start()
    print(
        f"repro cluster[{name}]: serving {sorted(node.store.local)} "
        f"on {host}:{bound} (leads {sorted(node.logs)}, "
        f"epoch {node.map.epoch})",
        flush=True,
    )
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(
                signum,
                lambda: loop.create_task(node.server.drain("signal")),
            )
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-unix loop; SHUTDOWN over the wire still drains
    await node.server.serve_until_drained()
    await node.peers.close()
    print(
        f"repro cluster[{name}]: drained "
        f"({node.server.requests} requests, epoch {node.map.epoch})",
        flush=True,
    )
    return 0


# ----------------------------------------------------------------------
# Launcher (parent process)
# ----------------------------------------------------------------------

class ClusterLauncher:
    """Spawn, watch and tear down a local multi-process cluster."""

    def __init__(
        self,
        nodes: int = 3,
        num_shards: int = 6,
        replication: int = 2,
        host: str = "127.0.0.1",
        port_base: int = 7651,
        spec_path: str = "cluster.json",
        engine_config: EngineConfig | None = None,
        commit_batch: int = 64,
    ) -> None:
        if nodes < replication:
            raise ClusterError(
                f"need >= {replication} nodes for replication="
                f"{replication}, got {nodes}"
            )
        self.names = [f"n{i}" for i in range(nodes)]
        self.host = host
        self.port_base = port_base
        self.spec_path = spec_path
        engine = engine_config or EngineConfig(
            buffer_entries=64, cache_blocks=16, durable=True
        )
        engine = replace(engine, durable=True, shards=1)
        self.spec = ClusterSpec(
            nodes={
                name: {"host": host, "port": port_base + i, "pid": 0}
                for i, name in enumerate(self.names)
            },
            map=even_map(self.names, num_shards, replication).to_dict(),
            engine={k: getattr(engine, k) for k in _ENGINE_KEYS},
            commit_batch=commit_batch,
        )
        self.procs: dict[str, subprocess.Popen] = {}

    def spawn(self) -> ClusterSpec:
        """Write the spec, start every worker, record pids."""
        write_spec(self.spec, self.spec_path)
        env = dict(os.environ)
        for name in self.names:
            proc = subprocess.Popen(  # noqa: S603 — our own CLI
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "cluster",
                    "--worker",
                    "--name",
                    name,
                    "--spec",
                    self.spec_path,
                ],
                env=env,
            )
            self.procs[name] = proc
            self.spec.nodes[name]["pid"] = proc.pid
        write_spec(self.spec, self.spec_path)
        return self.spec

    async def wait_ready(self, timeout: float = 15.0) -> None:
        """Block until every worker accepts TCP connections."""
        deadline = time.monotonic() + timeout
        loop = asyncio.get_running_loop()
        for name, (host, port) in self.spec.addresses().items():
            while True:
                proc = self.procs.get(name)
                if proc is not None and proc.poll() is not None:
                    raise ClusterError(
                        f"worker {name} exited with {proc.returncode} "
                        "before becoming ready"
                    )
                try:
                    transport, _ = await loop.create_connection(
                        asyncio.Protocol, host, port
                    )
                    transport.close()
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise ClusterError(
                            f"worker {name} not ready on "
                            f"{host}:{port} after {timeout}s"
                        ) from None
                    await asyncio.sleep(0.05)

    def shutdown(self, timeout: float = 10.0) -> dict[str, int]:
        """SIGTERM every live worker and reap; returns exit codes."""
        codes: dict[str, int] = {}
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.terminate()
        for name, proc in self.procs.items():
            try:
                codes[name] = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                codes[name] = proc.wait()
        return codes
