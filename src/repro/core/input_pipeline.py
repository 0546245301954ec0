"""CPU-based input processing on Pathways workers (paper Appendix C).

Pathways instantiates a CPU-based TensorFlow executor on each host so
user programs can distribute input processing across the workers and
overlap it with accelerator compute.  This module models that: each host
runs a producer that preprocesses its shard of every global batch
(``batch_preprocess_us / n_hosts`` of serial host CPU per batch), an
assembler gathers one shard per host into a ready batch, and a bounded
prefetch buffer decouples production from the training consumer.

The property of interest (asserted by tests): when the sharded per-batch
cost is below the step time, input processing is fully hidden (zero
consumer stalls after warm-up); above it, training becomes input-bound
and throughput degrades to the pipeline rate ``n_hosts /
batch_preprocess_us``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.hw.host import Host
from repro.sim import Event, Simulator, Store

__all__ = ["InputPipeline", "InputPipelineStats", "run_training_with_input"]


@dataclass
class InputPipelineStats:
    batches_produced: int = 0
    batches_consumed: int = 0
    consumer_stall_us: float = 0.0  # time training waited on input


class InputPipeline:
    """Distributed input preprocessing with a bounded prefetch buffer."""

    def __init__(
        self,
        sim: Simulator,
        hosts: list[Host],
        batch_preprocess_us: float,
        prefetch_depth: int = 2,
        name: str = "input",
    ):
        if not hosts:
            raise ValueError("input pipeline needs at least one host")
        if batch_preprocess_us < 0:
            raise ValueError("negative preprocess cost")
        if prefetch_depth < 1:
            raise ValueError("prefetch depth must be >= 1")
        self.sim = sim
        self.hosts = hosts
        self.batch_preprocess_us = batch_preprocess_us
        self.buffer: Store = Store(sim, capacity=prefetch_depth, name=f"{name}:buf")
        self.stats = InputPipelineStats()
        self._stop = False
        #: One stream of preprocessed shards per host.
        self._shards = [
            Store(sim, capacity=prefetch_depth, name=f"{name}:shards@{h.name}")
            for h in hosts
        ]
        for host, store in zip(hosts, self._shards):
            self._produce(host, store)
        self._assemble()

    @property
    def shard_cost_us(self) -> float:
        """Per-host serial CPU time per global batch."""
        return self.batch_preprocess_us / len(self.hosts)

    @property
    def steady_state_period_us(self) -> float:
        """Minimum time between ready batches (hosts work in parallel)."""
        return self.shard_cost_us

    def _produce(self, host: Host, out: Store) -> None:
        """One shard: hold the host CPU for the shard cost, put the
        shard, then start the next (until stopped)."""
        if not self._stop:
            host.prep_request(
                self.shard_cost_us, lambda exc: self._on_shard(host, out, exc)
            )

    def _on_shard(self, host: Host, out: Store, exc: Optional[BaseException]) -> None:
        if exc is None:  # a crashed host's producer stops
            out.put(object()).add_callback(lambda ev: self._produce(host, out))

    def _assemble(self) -> None:
        """A global batch is ready when every host's shard arrived."""
        if not self._stop:
            self.sim.all_of([s.get() for s in self._shards]).add_callback(
                self._on_shards
            )

    def _on_shards(self, ev: Event) -> None:
        self.buffer.put(object()).add_callback(self._on_buffered)

    def _on_buffered(self, ev: Event) -> None:
        self.stats.batches_produced += 1
        self._assemble()

    def next_batch(self) -> Generator:
        """Consume one batch; accounts stall time.  ``yield from`` this."""
        start = self.sim.now
        yield self.buffer.get()
        self.stats.batches_consumed += 1
        self.stats.consumer_stall_us += self.sim.now - start

    def stop(self) -> None:
        self._stop = True


def run_training_with_input(
    sim: Simulator,
    pipeline: InputPipeline,
    step_time_us: float,
    n_steps: int,
) -> Event:
    """Drive ``n_steps`` of input-consume + train-step; returns process."""

    def driver() -> Generator:
        for _ in range(n_steps):
            yield from pipeline.next_batch()
            yield sim.timeout(step_time_us)
        pipeline.stop()

    return sim.process(driver(), name="train_with_input")
