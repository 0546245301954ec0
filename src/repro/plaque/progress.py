"""Progress tracking for sparse sharded data exchange.

Messages on a sharded edge may come from a *dynamically chosen subset*
of source shards (paper §4.3: MoE-style routing).  A consumer shard must
still learn, promptly, when its inputs are complete.  Following MillWheel
/ Naiad, each producer shard emits *punctuation* ("I will send nothing
more for output batch t"); a shard's inputs are complete when every
producer has either delivered or punctuated.

:class:`ProgressTracker` keeps, per destination shard, the set of
producers still outstanding and the count of delivered tuples, and
exposes a completion event.
"""

from __future__ import annotations


from repro.sim import Event, Simulator

__all__ = ["ProgressTracker"]


class ProgressTracker:
    """Tracks input completeness for the shards of one consumer node."""

    def __init__(
        self,
        sim: Simulator,
        n_dst_shards: int,
        producers: int,
        name: str = "",
    ):
        if n_dst_shards < 1 or producers < 1:
            raise ValueError("tracker needs >=1 shard and >=1 producer")
        self.sim = sim
        self.name = name or "progress"
        self.n_dst_shards = n_dst_shards
        self.producers = producers
        self._outstanding: list[set[int]] = [
            set(range(producers)) for _ in range(n_dst_shards)
        ]
        self._delivered: list[int] = [0] * n_dst_shards
        self._complete_events: list[Event] = [
            sim.event(name=lambda i=i: f"{self.name}:shard{i}_complete")
            for i in range(n_dst_shards)
        ]

    def _check_shard(self, shard: int) -> None:
        if not self._outstanding[shard] and not self._complete_events[shard].triggered:
            self._complete_events[shard].succeed(self._delivered[shard])

    def deliver(self, producer: int, dst_shard: int, final: bool = True) -> None:
        """Record a tuple from ``producer`` to ``dst_shard``.

        ``final=True`` (the common dense case) also punctuates: the
        producer promises nothing more for this shard.
        """
        self._validate(producer, dst_shard)
        self._delivered[dst_shard] += 1
        if final:
            self._outstanding[dst_shard].discard(producer)
            self._check_shard(dst_shard)

    def punctuate(self, producer: int, dst_shard: int) -> None:
        """Producer declares it will send nothing (more) to ``dst_shard``."""
        self._validate(producer, dst_shard)
        self._outstanding[dst_shard].discard(producer)
        self._check_shard(dst_shard)

    def punctuate_all(self, producer: int) -> None:
        """Producer finishes every destination shard it hasn't sent to."""
        for shard in range(self.n_dst_shards):
            self.punctuate(producer, shard)

    def shard_complete(self, dst_shard: int) -> Event:
        """Event triggering when ``dst_shard``'s inputs are complete.

        The event value is the number of tuples delivered — dynamically
        determined under sparse routing.
        """
        return self._complete_events[dst_shard]

    def _validate(self, producer: int, dst_shard: int) -> None:
        if not 0 <= producer < self.producers:
            raise IndexError(f"{self.name}: producer {producer} out of range")
        if not 0 <= dst_shard < self.n_dst_shards:
            raise IndexError(f"{self.name}: shard {dst_shard} out of range")
