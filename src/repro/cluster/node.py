"""One cluster member: a :class:`ReproServer` over a shard subset, plus
the leader/follower machinery behind the four cluster wire ops.

A node plays both roles at once, per shard: for shards it leads it
serves reads *and* writes (read-your-writes — the leader applies before
it acks) and ships every group-commit WAL record to the shard's
followers before acknowledging; for shards it follows it applies
replicated records in strict sequence order and serves bounded-staleness
reads (stale by at most the records currently in flight, a lag the
``cluster_repl_*`` metrics export). Writes that
arrive at a non-leader bounce with an ``ERROR`` naming the epoch — the
coordinator's cue to refresh its shard map and retry — never silently
proxied, so a deposed leader cannot acknowledge anything.

Live shard handoff (:meth:`ClusterNode.handoff`) is the PR 5
build-then-swap pattern across processes: the target stages a fresh
store; the source streams an incremental snapshot (an *uncounted*
auxiliary pass, section 4.5 discipline) as framed WAL batch records,
then briefly parks new writes for the shard (``BUSY`` — never acked,
so nothing can be lost), drains in-flight groups, ships the WAL tail,
and commits by flipping the shard map atomically at the target, itself
and every peer. Promotion after a leader death is the same map-flip
fed by the coordinator's election (most-caught-up follower wins).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import replace

from repro.cluster.peers import ClusterError, PeerPool
from repro.cluster.replication import (
    ReplicatedGroupCommitWriter,
    ReplicationError,
    ReplicationLog,
)
from repro.cluster.shardmap import ShardMap, ShardMapError
from repro.cluster.store import ShardSubsetStore
from repro.engine.config import EngineConfig, build_shard
from repro.faults.crashpoints import crash_point
from repro.obs import NULL_OBS, Observability
from repro.server.client import AsyncClient
from repro.server.protocol import (
    HANDOFF_ABORT,
    HANDOFF_BEGIN,
    HANDOFF_CHUNK,
    HANDOFF_COMMIT,
    HANDOFF_PROMOTE,
    HANDOFF_START,
    HANDOFF_TAIL_DONE,
    Op,
    Request,
    Response,
    Status,
)
from repro.server.server import ReproServer, ServerConfig
from repro.lsm.wal import encode_batch_record


class ClusterNode:
    """State and protocol handlers of one cluster member."""

    def __init__(
        self,
        name: str,
        shard_map: ShardMap,
        engine_config: EngineConfig,
        peers: dict[str, tuple[str, int]] | None = None,
        server_config: ServerConfig | None = None,
        observability: Observability | None = None,
    ) -> None:
        if name not in shard_map.nodes():
            raise ClusterError(
                f"node {name!r} does not appear in the shard map "
                f"({shard_map.nodes()})"
            )
        self.name = name
        self.map = shard_map
        # Replication requires a WAL whatever the caller configured.
        self.engine_config = replace(engine_config, durable=True, shards=1)
        self.peers = PeerPool(peers)
        self.obs = observability if observability is not None else NULL_OBS
        shards = {
            shard_id: build_shard(
                self.engine_config, self.obs, f"shard{shard_id}_"
            )
            for shard_id in shard_map.shards_hosted_by(name)
        }
        self.store = ShardSubsetStore(
            shards, num_global=shard_map.num_shards, observability=self.obs
        )
        #: Leader state: per-led-shard record logs (epoch-scoped seqs).
        self.logs: dict[int, ReplicationLog] = {
            shard_id: ReplicationLog(shard_id)
            for shard_id in shard_map.shards_led_by(name)
        }
        #: Follower state: per-followed-shard applied record count.
        self.applied: dict[int, int] = {
            shard_id: 0
            for shard_id in shard_map.shards_hosted_by(name)
            if shard_id not in self.logs
        }
        #: Handoff target state: shard → (staging store, chunks applied).
        self.staging: dict[int, dict] = {}
        #: Shards mid-handoff at the source: writes bounce BUSY.
        self.migrating_out: set[int] = set()
        #: Followers marked unreachable (excluded from ack quorums and
        #: lag accounting until an operator re-adds them via handoff).
        self.dead: set[str] = set()
        #: Staleness accounting: ship rounds, and rounds that ended
        #: with a live follower still behind the log tail.
        self.ship_rounds = 0
        self.lagged_rounds = 0
        registry = self.obs.registry
        self._m_ship_rounds = registry.counter(
            "cluster_repl_ship_rounds_total",
            "replication ship rounds completed",
        )
        self._m_lagged_rounds = registry.counter(
            "cluster_repl_lagged_rounds_total",
            "ship rounds that left a live follower behind the log tail",
        )
        if self.obs.enabled:
            registry.add_collector(self._collect_gauges)
        self.server = ClusterServer(
            self, config=server_config, observability=self.obs
        )

    # ------------------------------------------------------------------
    # Roles
    # ------------------------------------------------------------------

    def leads(self, shard_id: int) -> bool:
        return self.map.leader_of(shard_id) == self.name

    def followers_of(self, shard_id: int) -> tuple[str, ...]:
        return self.map.followers_of(shard_id)

    def live_followers_of(self, shard_id: int) -> tuple[str, ...]:
        return tuple(
            f for f in self.map.followers_of(shard_id) if f not in self.dead
        )

    def _collect_gauges(self) -> None:
        registry = self.obs.registry
        registry.gauge("cluster_epoch", "current shard-map epoch").set(
            self.map.epoch
        )
        registry.gauge("cluster_shards_led", "shards this node leads").set(
            len(self.logs)
        )
        registry.gauge(
            "cluster_shards_hosted", "shards this node hosts"
        ).set(len(self.store.local))
        max_lag = 0
        for shard_id, log in self.logs.items():
            max_lag = max(max_lag, log.max_lag(self.live_followers_of(shard_id)))
        registry.gauge(
            "cluster_repl_lag_records",
            "worst live-follower lag across led shards, in records",
        ).set(max_lag)
        registry.gauge(
            "cluster_dead_followers", "peers marked unreachable"
        ).set(len(self.dead))

    # ------------------------------------------------------------------
    # Leader side: shipping
    # ------------------------------------------------------------------

    async def ship_shard(self, shard_id: int) -> int:
        """Push the shard's log to every live follower; returns how
        many follower acks cover the log's current tail. Unreachable
        followers are marked dead (and stop gating acks) rather than
        wedging the write path."""
        log = self.logs[shard_id]
        target = log.last_seq
        acks = 0
        lagged = False
        for follower in self.map.followers_of(shard_id):
            if follower in self.dead:
                continue
            try:
                applied = await self._ship_to(follower, shard_id, log)
            except (
                ReplicationError,
                ConnectionError,
                OSError,
                asyncio.IncompleteReadError,
            ):
                self.dead.add(follower)
                self.peers.drop(follower)
                continue
            if applied >= target:
                acks += 1
            else:
                lagged = True
        self.ship_rounds += 1
        self._m_ship_rounds.inc()
        if lagged:
            self.lagged_rounds += 1
            self._m_lagged_rounds.inc()
        return acks

    async def _ship_to(
        self, follower: str, shard_id: int, log: ReplicationLog
    ) -> int:
        client = await self.peers.get(follower)
        applied = log.acked.get(follower, 0)
        rounds = 0
        pushed_map = False
        while applied < log.last_seq:
            rounds += 1
            if rounds > 4:
                raise ReplicationError(
                    f"follower {follower!r} cannot converge on shard "
                    f"{shard_id} (applied {applied} of {log.last_seq})"
                )
            for seq, record in log.since(applied):
                resp = await client.request(
                    Request(
                        client._rid(),
                        Op.REPLICATE,
                        shard=shard_id,
                        seq=seq,
                        epoch=self.map.epoch,
                        value=record,
                    )
                )
                if resp.status is not Status.OK:
                    message = resp.message or resp.status.name
                    if message.startswith("behind epoch") and not pushed_map:
                        # The follower missed a best-effort map
                        # broadcast (tolerated by broadcast_map /
                        # failover for non-winners). Push our map, then
                        # resume from its *post-adoption* applied count
                        # — its old-epoch count is untrusted and
                        # adopt_map resets it when the leader changed.
                        pushed_map = True
                        applied = await self._push_map_to(
                            client, follower, shard_id
                        )
                        break
                    raise ReplicationError(
                        f"follower {follower!r} rejected shard {shard_id} "
                        f"seq {seq}: {message}"
                    )
                applied = resp.count
                if applied < seq:
                    break  # follower reported a gap: resend from there
        log.ack(follower, applied)
        return applied

    async def _push_map_to(
        self, client: AsyncClient, follower: str, shard_id: int
    ) -> int:
        """Hand a behind follower the current map, then return its
        authoritative applied count for ``shard_id`` at that epoch."""
        resp = await self.peers.push_map(follower, self.map)
        if resp.status is not Status.OK:
            raise ReplicationError(
                f"follower {follower!r} refused map epoch "
                f"{self.map.epoch}: {resp.message or resp.status.name}"
            )
        ack = await client.request(
            Request(client._rid(), Op.REPL_ACK, shard=shard_id)
        )
        if ack.status is not Status.OK:
            raise ReplicationError(
                f"follower {follower!r} lost shard {shard_id} after map "
                f"adoption: {ack.message or ack.status.name}"
            )
        return ack.count

    # ------------------------------------------------------------------
    # Follower side: the four cluster ops
    # ------------------------------------------------------------------

    def handle_replicate(self, request: Request) -> Response:
        # Applied counters (and the leader's log seqs they answer) are
        # scoped to a map epoch, so a count is only meaningful to a
        # leader at the *same* epoch — an OK here asserts exactly that,
        # because the epoch check and the count are produced atomically
        # within this handler. Both mismatch directions must bounce: a
        # stale *sender* is a deposed leader that may not ack anything,
        # and a stale *receiver* (this node missed a best-effort map
        # broadcast) would otherwise answer with its old-epoch applied
        # count, which the new leader would mistake for coverage of its
        # fresh log.
        rid, op = request.request_id, request.op
        if request.epoch < self.map.epoch:
            return Response(
                rid, op, Status.ERROR,
                message=(
                    f"stale epoch {request.epoch} < {self.map.epoch}"
                ),
            )
        if request.epoch > self.map.epoch:
            return Response(
                rid, op, Status.ERROR,
                message=(
                    f"behind epoch: request epoch {request.epoch} > "
                    f"local {self.map.epoch}"
                ),
            )
        shard_id = request.shard
        if shard_id in self.logs:
            return Response(
                rid, op, Status.ERROR,
                message=f"this node leads shard {shard_id}",
            )
        applied = self.applied.get(shard_id)
        if applied is None or not self.store.owns(shard_id):
            return Response(
                rid, op, Status.ERROR,
                message=f"shard {shard_id} not hosted here",
            )
        if request.seq == applied + 1:
            with self.obs.tracer.span(
                "repl_apply", shard=shard_id, seq=request.seq
            ):
                self.store.local[shard_id].apply_wal_record(
                    bytes(request.value)
                )
            self.applied[shard_id] = applied + 1
        # seq <= applied: an idempotent re-ship; seq > applied + 1: a
        # gap — either way the returned applied count tells the leader
        # exactly where to resume.
        return Response(rid, op, Status.OK, count=self.applied[shard_id])

    def handle_repl_ack(self, request: Request) -> Response:
        """Progress probe: the shard's durable record count here, in
        whatever role (follower applied / leader appended)."""
        rid, op = request.request_id, request.op
        shard_id = request.shard
        if shard_id in self.logs:
            return Response(
                rid, op, Status.OK, count=self.logs[shard_id].last_seq
            )
        if shard_id in self.applied:
            return Response(rid, op, Status.OK, count=self.applied[shard_id])
        return Response(
            rid, op, Status.ERROR, message=f"shard {shard_id} not hosted here"
        )

    def handle_handoff(self, request: Request) -> Response:
        rid, op = request.request_id, request.op
        phase = request.phase
        shard_id = request.shard
        if phase == HANDOFF_BEGIN:
            self._drop_staging(shard_id)
            self.staging[shard_id] = {
                "store": build_shard(
                    self.engine_config, self.obs,
                    self._staging_prefix(shard_id),
                ),
                "applied": 0,
            }
            return Response(rid, op, Status.OK, count=0)
        if phase == HANDOFF_ABORT:
            self._drop_staging(shard_id)
            return Response(rid, op, Status.OK, count=0)
        new_map = None
        if phase in (HANDOFF_COMMIT, HANDOFF_PROMOTE):
            try:
                new_map = ShardMap.from_json(bytes(request.value))
                if phase == HANDOFF_PROMOTE:
                    # Adopt the coordinator's post-election map (or a
                    # peer's committed one).
                    crash_point("cluster.promote.before_adopt")
                    self.adopt_map(new_map)
                    crash_point("cluster.promote.after_adopt")
                    return Response(rid, op, Status.OK, count=0)
                self._fence(new_map, commit=True)
            except ShardMapError as exc:
                return Response(rid, op, Status.ERROR, message=str(exc))
        stage = self.staging.get(shard_id)
        if stage is None and (
            new_map is None or new_map.leader_of(shard_id) == self.name
        ):
            # For a COMMIT: without a staged store, adopting this map
            # would seize leadership of a shard we hold no data for —
            # exactly what a COMMIT that raced an ABORT (torn-commit
            # resolution at the source) would otherwise do.
            return Response(
                rid, op, Status.ERROR,
                message=f"no staging for shard {shard_id}",
            )
        if phase == HANDOFF_CHUNK:
            if request.seq == stage["applied"] + 1:
                stage["store"].apply_wal_record(bytes(request.value))
                stage["applied"] += 1
            return Response(rid, op, Status.OK, count=stage["applied"])
        if phase == HANDOFF_TAIL_DONE:
            return Response(rid, op, Status.OK, count=stage["applied"])
        # HANDOFF_COMMIT
        if stage is not None and new_map.leader_of(shard_id) == self.name:
            del self.staging[shard_id]
            # Build-then-swap lands: the caught-up staging store
            # becomes the live shard in one swap. If this node was
            # already following the shard, its follower copy is
            # superseded (the staging store holds snapshot + full
            # tail, i.e. at least as much).
            if self.store.owns(shard_id):
                self.store.remove_shard(shard_id)
            self.store.add_shard(shard_id, stage["store"])
        else:
            self._drop_staging(shard_id)
        self.adopt_map(new_map)
        return Response(
            rid, op, Status.OK,
            count=stage["applied"] if stage is not None else 0,
        )

    def _staging_prefix(self, shard_id: int) -> str:
        """Instrument prefix of a new staging store: ``staging<i>_``,
        unless the shard's hosted copy already records under it (it came
        by an earlier handoff), then ``shard<i>_``. At most two stores of
        a shard live on a node, and sharing instruments would mix their
        metrics and let the first one released take the other's away."""
        prefix = f"staging{shard_id}_"
        hosted = self.store.local.get(shard_id)
        in_use = getattr(hosted.obs.registry, "prefix", None) if hosted else None
        return f"shard{shard_id}_" if in_use == prefix else prefix

    def _drop_staging(self, shard_id: int) -> None:
        """Abandon the shard's staging store, if any, releasing its
        instruments from the node's observability."""
        stage = self.staging.pop(shard_id, None)
        if stage is not None:
            stage["store"].obs.release()

    async def handle_handoff_start(self, request: Request) -> Response:
        """The operator trigger (HANDOFF_START): run a full handoff of
        ``request.shard`` to the node named in the value, answering
        only once the map flip committed (count = the new epoch)."""
        rid, op = request.request_id, request.op
        target = bytes(request.value).decode("utf-8")
        try:
            new_map = await self.handoff(request.shard, target)
        except (ClusterError, ReplicationError, OSError, ConnectionError) as exc:
            return Response(rid, op, Status.ERROR, message=str(exc))
        return Response(rid, op, Status.OK, count=new_map.epoch)

    # ------------------------------------------------------------------
    # Map adoption
    # ------------------------------------------------------------------

    def _fence(self, new_map: ShardMap, commit: bool = False) -> None:
        """The one map fence — every adoption and every HANDOFF_COMMIT
        goes through it: raise :class:`ShardMapError` unless
        ``new_map`` may replace the local map. Epochs only move forward
        and the global shard count is immutable. A same-epoch map is
        accepted only when identical (an idempotent retried PROMOTE),
        and never by a COMMIT, whose ``with_moved`` map must advance."""
        at = self.map
        if new_map.epoch < at.epoch or (
            new_map.epoch == at.epoch
            and (commit or new_map.replicas != at.replicas)
        ):
            what = "commit map" if commit else "map"
            raise ShardMapError(
                f"refusing {what} epoch {new_map.epoch} (at {at.epoch})"
            )
        if new_map.num_shards != at.num_shards:
            raise ShardMapError(
                ("refusing commit: " if commit else "")
                + "the global shard count is immutable "
                f"({at.num_shards} != {new_map.num_shards})"
            )

    def adopt_map(self, new_map: ShardMap) -> None:
        """Switch to a newer shard map (past :meth:`_fence`),
        reconciling local roles.

        Per shard: dropped from the replica list → detach and discard
        the local copy; newly leading → fresh :class:`ReplicationLog`
        (replication seqs are epoch-scoped); newly following (or the
        shard's leader changed) → applied counter resets.
        """
        self._fence(new_map)
        old_map = self.map
        self.map = new_map
        for shard_id in list(self.store.local):
            if self.name not in new_map.replicas[shard_id]:
                self.store.remove_shard(shard_id)
                self.logs.pop(shard_id, None)
                self.applied.pop(shard_id, None)
        for shard_id in self.store.local:
            leader_changed = (
                old_map.leader_of(shard_id) != new_map.leader_of(shard_id)
            )
            if new_map.leader_of(shard_id) == self.name:
                if shard_id not in self.logs or leader_changed:
                    self.logs[shard_id] = ReplicationLog(shard_id)
                self.applied.pop(shard_id, None)
            else:
                self.logs.pop(shard_id, None)
                if shard_id not in self.applied or leader_changed:
                    self.applied[shard_id] = 0
        self.migrating_out &= set(self.logs)
        # Promoted/demoted shards may change which WALs need sinks.
        self.server.commit.install_sinks()

    # ------------------------------------------------------------------
    # Live shard handoff (source side)
    # ------------------------------------------------------------------

    async def handoff(self, shard_id: int, target: str) -> ShardMap:
        """Migrate a led shard to ``target`` without losing a write:
        snapshot stream → write park (BUSY, unacked) → tail drain →
        atomic map flip. Returns the committed map."""
        if not self.leads(shard_id):
            raise ClusterError(
                f"cannot hand off shard {shard_id}: this node does not "
                f"lead it"
            )
        if target == self.name:
            raise ClusterError("cannot hand a shard to its current leader")
        client = await self.peers.get(target)
        log = self.logs[shard_id]
        await self._handoff_req(
            client, HANDOFF_BEGIN, shard_id, epoch=self.map.epoch
        )
        in_commit = False
        try:
            crash_point("cluster.handoff.before_snapshot")
            with self.obs.tracer.span("repl_handoff_snapshot", shard=shard_id):
                tail_from = log.last_seq
                entries = self.store.local[shard_id].export_entries()
            chunk = max(1, min(256, self.engine_config.buffer_entries))
            seq = 0
            for start in range(0, len(entries), chunk):
                record = encode_batch_record(entries[start : start + chunk])
                seq += 1
                await self._handoff_req(
                    client, HANDOFF_CHUNK, shard_id, seq=seq, value=record
                )
                crash_point("cluster.handoff.mid_stream")
            # Park new writes (they bounce BUSY — never acknowledged,
            # so nothing can be lost) and let the shard's in-flight
            # groups land.
            self.migrating_out.add(shard_id)
            await self._drain_commits(shard_id)
            for _tseq, record in log.since(tail_from):
                seq += 1
                await self._handoff_req(
                    client, HANDOFF_CHUNK, shard_id, seq=seq, value=record
                )
            await self._handoff_req(
                client, HANDOFF_TAIL_DONE, shard_id, seq=seq
            )
            crash_point("cluster.handoff.before_commit")
            new_map = self.map.with_moved(shard_id, self.name, target)
            blob = new_map.to_json().encode("utf-8")
            in_commit = True
            await self._handoff_req(
                client, HANDOFF_COMMIT, shard_id,
                epoch=new_map.epoch, value=blob,
            )
        except BaseException as exc:
            if not in_commit or isinstance(exc, ClusterError):
                # Nothing landed: the COMMIT was never sent, or the
                # target *answered* it (a rejection is an answer, so
                # even a bounced COMMIT provably did not land). Abort
                # the staging and resume leadership.
                self.migrating_out.discard(shard_id)
                try:
                    await self._handoff_req(client, HANDOFF_ABORT, shard_id)
                except Exception:  # noqa: BLE001 — target may be gone
                    pass
                raise
            # The COMMIT send died without an answer: the target may
            # already be authoritative. Resuming blindly here would let
            # this node keep acking writes the cluster routes to the
            # target once anyone sees its higher epoch — resolve the
            # outcome instead.
            committed = await self._torn_commit_outcome(
                shard_id, target, new_map
            )
            if committed:
                return await self._finish_handoff(shard_id, target, new_map)
            if committed is None:
                # Unknown: the shard stays parked (writes keep bouncing
                # BUSY — never falsely acked) until a retried handoff
                # or an operator resolves it.
                raise ClusterError(
                    f"handoff of shard {shard_id} torn at commit: "
                    f"target {target!r} unreachable, outcome unknown "
                    f"— shard stays parked"
                ) from exc
            # Provably not committed (and, staging destroyed, it never
            # can be): resume leadership.
            self.migrating_out.discard(shard_id)
            raise
        crash_point("cluster.handoff.after_commit")
        return await self._finish_handoff(shard_id, target, new_map)

    async def _finish_handoff(
        self, shard_id: int, target: str, new_map: ShardMap
    ) -> ShardMap:
        """The target is authoritative from here; our copy is garbage.
        Adopt before un-parking: a map the fence refuses leaves the
        shard parked, never acking beside the target."""
        self.adopt_map(new_map)
        self.migrating_out.discard(shard_id)
        await self.broadcast_map(new_map, exclude=(target,))
        return new_map

    async def _handoff_req(
        self,
        client: AsyncClient,
        phase: int,
        shard_id: int,
        seq: int = 0,
        epoch: int = 0,
        value: bytes = b"",
    ) -> Response:
        resp = await client.request(
            Request(
                client._rid(), Op.HANDOFF, phase=phase, shard=shard_id,
                seq=seq, epoch=epoch, value=value,
            )
        )
        if resp.status is not Status.OK:
            raise ClusterError(
                f"handoff phase {phase} rejected: "
                f"{resp.message or resp.status.name}"
            )
        if phase == HANDOFF_CHUNK and resp.count != seq:
            raise ClusterError(
                f"handoff chunk {seq} not applied (target at {resp.count})"
            )
        return resp

    async def _torn_commit_outcome(
        self, shard_id: int, target: str, new_map: ShardMap
    ) -> bool | None:
        """Learn whether a torn HANDOFF_COMMIT landed at the target.

        Freeze first, then read: an ABORT on a fresh connection
        destroys the target's staging, and the commit handler refuses
        a map that names the target leader without staging — so a
        COMMIT frame still buffered on the dead connection can no
        longer apply after our ABORT is processed. One status probe on
        the *same* connection (requests are strictly sequential: each
        awaits its response) then reads the frozen outcome.

        True = the commit landed (the target leads the shard at the
        new epoch or beyond); False = it provably did not and never
        can; None = the target never answered, outcome unknown.
        """
        for attempt in range(5):
            if attempt:
                await asyncio.sleep(0.05)
            self.peers.drop(target)
            try:
                client = await self.peers.get(target)
                await client.request(
                    Request(
                        client._rid(), Op.HANDOFF,
                        phase=HANDOFF_ABORT, shard=shard_id,
                    )
                )
                resp = await client.request(
                    Request(client._rid(), Op.CLUSTER_STATUS)
                )
                if resp.status is not Status.OK:
                    continue
                status = json.loads(bytes(resp.value))
            except Exception:  # noqa: BLE001 — any failure = retry
                self.peers.drop(target)
                continue
            if status["epoch"] < new_map.epoch:
                return False
            observed = ShardMap.from_dict(status["map"])
            if observed.leader_of(shard_id) == target:
                return True
            # A map newer than ours moved the shard somewhere else:
            # this node's claim is stale either way — treat as
            # unresolved and keep the shard parked.
            return None
        return None

    async def _drain_commits(self, shard_id: int) -> None:
        """Wait out the migrating shard's queued and in-flight group-
        commit writes. Scoped to that shard on purpose: only its
        writes bounce BUSY while parked, so draining the *global*
        queue would stall the handoff for as long as other shards this
        node leads keep taking traffic. The shard's own write set is
        finite once parked (route_check rejects new ones), so this
        terminates under sustained foreign load. A write clears
        route_check and is enqueued in one synchronous step, so once
        parked no write of the shard can still be on its way in."""
        commit = self.server.commit
        is_ours = lambda key: self.store.shard_id_of(key) == shard_id  # noqa: E731
        while waiters := commit.waiters_for(is_ours):
            await asyncio.wait(waiters)

    async def broadcast_map(
        self, new_map: ShardMap, exclude: tuple[str, ...] = ()
    ) -> None:
        """Best-effort map push to every other peer (anyone missed
        learns from routing errors / status probes instead)."""
        for peer_name in new_map.nodes():
            if peer_name == self.name or peer_name in exclude:
                continue
            try:
                await self.peers.push_map(peer_name, new_map)
            except Exception:  # noqa: BLE001 — gossip is best-effort
                continue

    # ------------------------------------------------------------------
    # Routing enforcement (ClusterServer's per-request routing hook)
    # ------------------------------------------------------------------

    def route_check(self, request: Request) -> Response | None:
        """None = the request is correctly routed; else the BUSY/ERROR
        response to send instead. The ``not leader`` / ``wrong node``
        message prefixes are the coordinator's refresh signal."""
        op = request.op
        rid = request.request_id
        if op in (Op.PUT, Op.DELETE):
            return self._check_write(rid, op, (request.key,))
        if op is Op.BATCH:
            return self._check_write(
                rid, op, tuple(key for _, key, _ in request.items)
            )
        if op is Op.GET:
            shard_id = self.store.shard_id_of(request.key)
            if not self.store.owns(shard_id):
                return Response(
                    rid, op, Status.ERROR,
                    message=(
                        f"wrong node: shard {shard_id} not hosted "
                        f"(epoch {self.map.epoch})"
                    ),
                )
        return None

    def _check_write(
        self, rid: int, op: Op, keys: tuple[int, ...]
    ) -> Response | None:
        for key in keys:
            shard_id = self.store.shard_id_of(key)
            if shard_id in self.migrating_out:
                return Response(
                    rid, op, Status.BUSY,
                    message=f"shard {shard_id} is migrating",
                )
            if not self.leads(shard_id):
                return Response(
                    rid, op, Status.ERROR,
                    message=(
                        f"not leader: shard {shard_id} is led by "
                        f"{self.map.leader_of(shard_id)!r} "
                        f"(epoch {self.map.epoch})"
                    ),
                )
        return None

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------

    def status(self) -> dict:
        """The CLUSTER_STATUS payload."""
        shards = {}
        for shard_id in self.store.shard_ids:
            if shard_id in self.logs:
                log = self.logs[shard_id]
                live = self.live_followers_of(shard_id)
                shards[str(shard_id)] = {
                    "role": "leader",
                    "seq": log.last_seq,
                    # Seqs are epoch-scoped: consumers (failover
                    # election) must only compare same-epoch seqs.
                    "epoch": self.map.epoch,
                    "followers": {
                        f: log.acked.get(f, 0)
                        for f in self.map.followers_of(shard_id)
                    },
                    "lag": log.max_lag(live),
                }
            else:
                shards[str(shard_id)] = {
                    "role": "follower",
                    "seq": self.applied.get(shard_id, 0),
                    "epoch": self.map.epoch,
                }
        return {
            "node": self.name,
            "epoch": self.map.epoch,
            "map": self.map.to_dict(),
            "shards": shards,
            "staging": sorted(self.staging),
            "migrating": sorted(self.migrating_out),
            "dead_followers": sorted(self.dead),
            "ship_rounds": self.ship_rounds,
            "lagged_rounds": self.lagged_rounds,
            "entries": self.store.num_entries,
        }


class ClusterServer(ReproServer):
    """A :class:`ReproServer` that speaks the cluster ops and enforces
    shard-map routing before the base data ops."""

    def __init__(
        self,
        node: ClusterNode,
        config: ServerConfig | None = None,
        observability: Observability | None = None,
    ) -> None:
        super().__init__(node.store, config=config, observability=observability)
        self.node = node
        # Shard-map routing runs on every request before it executes.
        self._route_check = node.route_check
        # Swap in the replicated writer: acks now wait for followers.
        self.commit = ReplicatedGroupCommitWriter(
            node.store,
            node.logs,
            node.ship_shard,
            node.live_followers_of,
            max_batch=self.config.group_commit_batch,
            observability=self.obs,
        )

    async def _execute(self, request: Request) -> Response:
        # The cluster ops are intercepted here: the base class answers
        # them ERROR ("not served here").
        op = request.op
        if op is Op.REPLICATE:
            return self.node.handle_replicate(request)
        if op is Op.REPL_ACK:
            return self.node.handle_repl_ack(request)
        if op is Op.HANDOFF:
            if request.phase == HANDOFF_START:
                return await self.node.handle_handoff_start(request)
            return self.node.handle_handoff(request)
        if op is Op.CLUSTER_STATUS:
            payload = json.dumps(self.node.status(), sort_keys=True)
            return Response(
                request.request_id, op, Status.OK,
                value=payload.encode("utf-8"),
            )
        return await super()._execute(request)

    def stats(self) -> dict:
        out = super().stats()
        out["cluster"] = self.node.status()
        return out
