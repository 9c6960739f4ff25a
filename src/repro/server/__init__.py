"""The serving layer: TCP front-end, wire protocol, clients, loadgen.

A new layer of the stack on top of the engine: ``repro serve`` exposes
a (sharded) :class:`~repro.engine.kvstore.KVStore` over a small
length-prefixed binary protocol with pipelining, group commit for
writes, admission control with BUSY load shedding, graceful drain, and
full observability. ``repro loadgen`` drives it closed-loop over N
connections and emits a ``BENCH_serve.json`` throughput/latency
artifact.

The layer is *pure addition*: nothing in the engine's hot paths
changes when no server is running, and counted I/Os stay bit-identical
to a build without this package.
"""

from repro.server.client import (
    AsyncClient,
    ClientTraceConfig,
    ServerBusy,
    ServerError,
    ServerShuttingDown,
)
from repro.server.group_commit import GroupCommitWriter
from repro.server.loadgen import LoadgenConfig, ServerTarget, run_loadgen
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    FrameAssembler,
    Op,
    ProtocolError,
    Request,
    Response,
    Status,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    frame,
)
from repro.server.server import ReproServer, ServerConfig

__all__ = [
    "AsyncClient",
    "ClientTraceConfig",
    "FrameAssembler",
    "GroupCommitWriter",
    "LoadgenConfig",
    "MAX_FRAME_BYTES",
    "Op",
    "ProtocolError",
    "ReproServer",
    "Request",
    "Response",
    "ServerBusy",
    "ServerConfig",
    "ServerError",
    "ServerShuttingDown",
    "ServerTarget",
    "Status",
    "decode_request",
    "decode_response",
    "encode_request",
    "encode_response",
    "frame",
    "run_loadgen",
]
