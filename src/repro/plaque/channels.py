"""Runtime channels: tagged tuples on a sharded edge.

:class:`ShardedChannel` is the runtime realization of one sharded edge:
producers put tuples tagged with a destination shard; consumers get a
per-shard stream plus the :class:`~repro.plaque.progress.ProgressTracker`
completion signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.sim import Event, Simulator, Store

from repro.plaque.progress import ProgressTracker

__all__ = ["ShardedChannel"]


@dataclass(frozen=True)
class _Tuple:
    """One tagged data tuple on a sharded edge."""

    producer: int
    dst_shard: int
    payload: Any
    nbytes: int = 0


class ShardedChannel:
    """Tagged-tuple transport for one sharded edge."""

    def __init__(
        self,
        sim: Simulator,
        n_dst_shards: int,
        producers: int,
        name: str = "",
    ):
        self.sim = sim
        self.name = name or "edge"
        self.progress = ProgressTracker(sim, n_dst_shards, producers, name=self.name)
        self._stores = [
            Store(sim, name=f"{self.name}:shard{i}") for i in range(n_dst_shards)
        ]

    def put(
        self,
        producer: int,
        dst_shard: int,
        payload: Any,
        nbytes: int = 0,
        final: bool = True,
    ) -> None:
        """Deliver a tuple to ``dst_shard`` (instantaneous: transport cost
        is paid by the caller via DCN/ICI before calling put)."""
        self._stores[dst_shard].put(_Tuple(producer, dst_shard, payload, nbytes))
        self.progress.deliver(producer, dst_shard, final=final)

    def punctuate(self, producer: int) -> None:
        """``producer`` sends nothing more to any destination shard."""
        self.progress.punctuate_all(producer)

    def get(self, dst_shard: int) -> Event:
        """Event yielding the next tuple for ``dst_shard``."""
        return self._stores[dst_shard].get()

    def drain(self, dst_shard: int) -> list[Any]:
        """Non-blocking: all currently queued payloads for a shard."""
        out = []
        while True:
            ok, item = self._stores[dst_shard].try_get()
            if not ok:
                return out
            out.append(item.payload)

    def shard_complete(self, dst_shard: int) -> Event:
        return self.progress.shard_complete(dst_shard)
