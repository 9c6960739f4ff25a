"""The cluster's routing truth: which node leads and replicates each shard.

A :class:`ShardMap` is an immutable epoch-stamped assignment of every
global shard to an ordered replica list — first name is the leader,
the rest are followers. Every change (failover promotion, live shard
handoff, rebalance) produces a *new* map with the epoch bumped, and the
epoch is what makes routing safe without consensus machinery: a node
rejects work stamped with an older epoch than its own, and a client
whose write bounces refreshes its map and retries. Shard *identity* is
global and permanent — ``shard_of(key, num_shards)`` with the same
:data:`~repro.engine.sharded.SHARD_SEED` everywhere — so moving a
shard between nodes never rehashes a key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.common.errors import ReproError


class ShardMapError(ReproError):
    """An inconsistent shard map or an illegal transition."""


@dataclass(frozen=True)
class ShardMap:
    """Epoch-stamped shard → ordered replica-list assignment."""

    epoch: int
    num_shards: int
    #: Per shard: (leader, follower, ...) node names.
    replicas: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ShardMapError(
                f"num_shards must be >= 1, got {self.num_shards}"
            )
        if len(self.replicas) != self.num_shards:
            raise ShardMapError(
                f"{len(self.replicas)} replica lists for "
                f"{self.num_shards} shards"
            )
        for shard, names in enumerate(self.replicas):
            if not names:
                raise ShardMapError(f"shard {shard} has no replicas")
            if len(set(names)) != len(names):
                raise ShardMapError(
                    f"shard {shard} lists a node twice: {names}"
                )

    # -- queries --------------------------------------------------------

    def leader_of(self, shard: int) -> str:
        return self.replicas[shard][0]

    def followers_of(self, shard: int) -> tuple[str, ...]:
        return self.replicas[shard][1:]

    def nodes(self) -> tuple[str, ...]:
        """Every node name appearing in the map, sorted."""
        seen: set[str] = set()
        for names in self.replicas:
            seen.update(names)
        return tuple(sorted(seen))

    def shards_led_by(self, node: str) -> tuple[int, ...]:
        return tuple(
            shard
            for shard in range(self.num_shards)
            if self.replicas[shard][0] == node
        )

    def shards_hosted_by(self, node: str) -> tuple[int, ...]:
        """Shards the node replicates, as leader or follower."""
        return tuple(
            shard
            for shard in range(self.num_shards)
            if node in self.replicas[shard]
        )

    # -- the handoff transition (bumps the epoch) -----------------------

    def with_moved(self, shard: int, source: str, target: str) -> "ShardMap":
        """Hand leadership of ``shard`` from ``source`` to ``target``
        (the live-handoff commit): the target becomes leader, the
        source leaves the replica list, other followers stay. When
        dropping the source would shrink the replica list (the target
        already replicated the shard), the source — which holds a full
        copy by construction — stays on as a trailing follower
        instead: a handoff never reduces the replication factor."""
        names = self.replicas[shard]
        if names[0] != source:
            raise ShardMapError(
                f"{source!r} does not lead shard {shard} ({names[0]!r} does)"
            )
        rest = tuple(n for n in names if n not in (source, target))
        new = (target,) + rest
        if len(new) < len(names):
            new = new + (source,)
        replicas = list(self.replicas)
        replicas[shard] = new
        return ShardMap(
            epoch=self.epoch + 1,
            num_shards=self.num_shards,
            replicas=tuple(replicas),
        )

    # -- wire form ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "num_shards": self.num_shards,
            "replicas": [list(names) for names in self.replicas],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ShardMap":
        return cls(
            epoch=int(data["epoch"]),
            num_shards=int(data["num_shards"]),
            replicas=tuple(
                tuple(str(n) for n in names) for names in data["replicas"]
            ),
        )

    @classmethod
    def from_json(cls, text: str | bytes) -> "ShardMap":
        try:
            return cls.from_dict(json.loads(text))
        except (ValueError, KeyError, TypeError) as exc:
            raise ShardMapError(f"malformed shard map: {exc}") from None


def even_map(
    nodes: list[str], num_shards: int, replication: int = 2
) -> ShardMap:
    """Round-robin initial assignment: shard ``s`` is led by
    ``nodes[s % N]`` and followed by the next ``replication - 1``
    nodes. ``replication`` is clamped to the node count."""
    if not nodes:
        raise ShardMapError("even_map needs at least one node")
    if len(set(nodes)) != len(nodes):
        raise ShardMapError(f"duplicate node names: {nodes}")
    replication = max(1, min(replication, len(nodes)))
    replicas = tuple(
        tuple(nodes[(shard + r) % len(nodes)] for r in range(replication))
        for shard in range(num_shards)
    )
    return ShardMap(epoch=1, num_shards=num_shards, replicas=replicas)
