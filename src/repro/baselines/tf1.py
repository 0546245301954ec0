"""TensorFlow-v1-style single-controller runtime (paper §2, Figure 1b/c).

Models the three costs the paper attributes to TF1:

1. **Materialized sharded graphs** — the client serializes a graph with
   one node *per shard* (M+N nodes, M x N edges for an M->N sharded
   edge).  OpByOp pays this serialization every ``session.run``; chained
   execution amortizes it across the chain.
2. **Centralized control-edge barrier** — gang scheduling is enforced by
   a barrier through the coordinator over DCN, serialized per node and
   growing with the number of participating hosts.
3. **No device object store** — results return to the client through
   host memory (device -> DRAM -> DCN), charged per fetch.

The cost constants live in :class:`repro.config.SystemConfig`; the
structure (what is paid per-op vs. amortized) is what Figure 5 tests.
"""

from __future__ import annotations

from typing import Generator

from repro.config import SystemConfig
from repro.core.placement import DeviceGroup
from repro.hw.cluster import Cluster
from repro.hw.device import Kernel
from repro.sim import Simulator
from repro.xla.computation import CompiledFunction

__all__ = ["TfOneRuntime"]


class TfOneRuntime:
    """A TF1-style coordinator over one island."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        config: SystemConfig,
    ):
        self.sim = sim
        self.cluster = cluster
        self.config = config
        island = cluster.islands[0]
        self.group = DeviceGroup.representative(island, island.n_devices)
        #: Fetches ride the shared cross-host transport's cost model.
        self.transport = cluster.transport

    # -- cost components ---------------------------------------------------
    def graph_serialization_us(self, n_nodes: int) -> float:
        """Fixed session.run cost + the fully materialized sharded graph.

        The graph carries one node *per shard*; serialization is paid per
        ``session.run``, so chained execution amortizes it over the chain
        while OpByOp pays it every computation.
        """
        shards = self.group.n_logical
        return (
            self.config.tf_session_overhead_us
            + self.config.tf_graph_cost_per_shard_us * shards
        )

    def barrier_us(self) -> float:
        """Per-node centralized barrier via control edges over DCN."""
        return (
            self.config.tf_barrier_base_us
            + 30.0 * self.group.n_hosts_logical  # per-host control round
        )

    def fetch_us(self, nbytes: int) -> float:
        """Returning fetched outputs to the client over DCN: one
        transport transfer plus the request latency."""
        return self.config.dcn_latency_us + self.transport.transfer_time_us(nbytes)

    def device_time_us(self, fn: CompiledFunction) -> float:
        return fn.compute_time_us(self.config) + self.group.collective_us(fn)

    # -- drivers -----------------------------------------------------------
    def run_op_by_op(self, fn: CompiledFunction, n_steps: int) -> Generator:
        """One ``session.run`` per computation, graph rebuilt every time."""
        dev = self.group.devices[0]
        for _ in range(n_steps):
            yield self.sim.timeout(self.graph_serialization_us(1))
            yield self.sim.timeout(self.barrier_us())
            kernel = Kernel(self.sim, duration_us=self.device_time_us(fn), tag=fn.name)
            dev.enqueue(kernel)
            yield kernel.done
            yield self.sim.timeout(self.fetch_us(fn.out_specs[0].nbytes))

    def run_chained(self, fn: CompiledFunction, chain_len: int, n_calls: int) -> Generator:
        """One ``session.run`` executes a chain; graph cost amortized,
        barrier still paid per node."""
        dev = self.group.devices[0]
        for _ in range(n_calls):
            yield self.sim.timeout(self.graph_serialization_us(chain_len))
            for _ in range(chain_len):
                yield self.sim.timeout(self.barrier_us())
                kernel = Kernel(self.sim, duration_us=self.device_time_us(fn), tag=fn.name)
                dev.enqueue(kernel)
                yield kernel.done
            yield self.sim.timeout(self.fetch_us(fn.out_specs[0].nbytes))

    # -- closed form ----------------------------------------------------------
    def expected_throughput(self, fn: CompiledFunction) -> float:
        """OpByOp computations/second, for cross-checking the simulation."""
        per_call = self.graph_serialization_us(1) + self.fetch_us(
            fn.out_specs[0].nbytes
        )
        return 1e6 / (per_call + self.barrier_us() + self.device_time_us(fn))
