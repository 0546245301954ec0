"""Runtime channels: tagged tuples on a sharded edge.

:class:`ShardedChannel` is the runtime realization of one sharded edge:
producers put tuples tagged with a destination shard; each destination
shard keeps its payloads in a FIFO deque, which consumers :meth:`drain`
once the :class:`~repro.plaque.progress.ProgressTracker` completion
signal says every producer has delivered or punctuated for it.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim import Event, Simulator

from repro.plaque.progress import ProgressTracker

__all__ = ["ShardedChannel"]


class ShardedChannel:
    """Tagged-tuple transport for one sharded edge."""

    def __init__(
        self,
        sim: Simulator,
        n_dst_shards: int,
        producers: int,
        name: str = "",
    ):
        self.name = name or "edge"
        self.progress = ProgressTracker(sim, n_dst_shards, producers, name=self.name)
        self._queues: list[deque[Any]] = [deque() for _ in range(n_dst_shards)]

    def put(
        self,
        producer: int,
        dst_shard: int,
        payload: Any,
        final: bool = True,
    ) -> None:
        """Deliver a tuple to ``dst_shard`` (instantaneous: transport cost
        is paid by the caller via DCN/ICI before calling put)."""
        self._queues[dst_shard].append(payload)
        self.progress.deliver(producer, dst_shard, final=final)

    def punctuate(self, producer: int) -> None:
        """``producer`` sends nothing more to any destination shard."""
        self.progress.punctuate_all(producer)

    def drain(self, dst_shard: int) -> list[Any]:
        """Non-blocking: all currently queued payloads for a shard, in
        put order."""
        queue = self._queues[dst_shard]
        out = list(queue)
        queue.clear()
        return out

    def shard_complete(self, dst_shard: int) -> Event:
        return self.progress.shard_complete(dst_shard)
