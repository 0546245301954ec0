"""JAX-style multi-controller SPMD runtime (paper §2, Figure 1a).

One controller per host runs identical user code; each step it pays the
Python dispatch overhead, enqueues over PCIe, and the devices execute
the gang-scheduled computation with its fused collective.  Because the
computation is a *collective*, every step runs at the pace of the
slowest host's dispatch — the straggler term, sampled as the max of
per-host jitter.  This is the mechanism that bends the JAX-O curve
downward as hosts grow in Figure 5.

The runtime executes on the same simulated devices as Pathways, via a
representative-host aggregation identical to the one
:mod:`repro.core.placement` uses (SPMD hosts are symmetric).
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.config import SystemConfig
from repro.core.placement import DeviceGroup
from repro.hw.cluster import Cluster
from repro.hw.device import CollectiveRendezvous, Kernel, enqueue_gang
from repro.sim import Event, Resource, Simulator
from repro.xla.computation import CompiledFunction

__all__ = ["MultiControllerJax"]


class MultiControllerJax:
    """Multi-controller execution over one island's devices.

    Every :meth:`run_steps` process is one client.  Clients of one
    runtime share the hosts' Python dispatch thread (serialized, the
    mechanism limiting JAX's aggregate throughput for tiny computations
    in §5.2) and its straggler draws, while their enqueued work
    pipelines on the devices.
    """

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
        self.rng = np.random.default_rng(0)
        #: The hosts' Python dispatch thread.
        self.dispatch_thread = Resource(sim, name="python")

    # -- dispatch cost model --------------------------------------------------
    def dispatch_overhead_us(self) -> float:
        """Python dispatch time for one user-level call, including the
        max-over-hosts straggler effect of gang-scheduled collectives."""
        n = max(1, self.group.n_hosts_logical)
        base = self.config.python_dispatch_us
        sigma = self.config.jax_straggler_sigma_us
        if sigma <= 0 or n == 1:
            return base
        jitter = self.rng.exponential(sigma, size=n).max()
        return base + jitter

    def device_time_us(self, fn: CompiledFunction) -> float:
        return fn.compute_time_us(self.config) + self.group.collective_us(fn)

    # -- driver processes -------------------------------------------------
    def run_steps(
        self, fn: CompiledFunction, n_steps: int, max_in_flight: int = 8
    ) -> Generator:
        """Simulate ``n_steps`` back-to-back executions of ``fn``.

        Asynchronous dispatch (Appendix A.2): the controller enqueues up
        to ``max_in_flight`` steps ahead of device completion, so small
        dispatch overheads are masked whenever device time dominates.
        Yields from a simulation process.
        """
        sim = self.sim
        cfg = self.config
        group = self.group
        thread = self.dispatch_thread
        in_flight: list[Event] = []
        for _ in range(n_steps):
            # Per-step Python dispatch on every controller (parallel
            # across hosts; straggler folded into the max), drawn before
            # the client waits for the dispatch thread.
            dispatch_us = self.dispatch_overhead_us()
            granted = sim.event()
            thread.acquire(granted.succeed_inline)
            yield granted
            try:
                yield sim.timeout(dispatch_us)
            finally:
                thread.release()
            yield sim.timeout(cfg.pcie_latency_us + cfg.host_launch_work_us)
            collective = CollectiveRendezvous(
                sim, participants=len(group.devices), duration_us=group.collective_us(fn)
            )
            kernel = Kernel(
                sim,
                duration_us=fn.compute_time_us(cfg),
                collective=collective,
                tag=fn.name,
                program="jax",
            )
            enqueue_gang(group.devices, kernel)
            in_flight.append(kernel.done)
            if len(in_flight) >= max_in_flight:
                yield in_flight.pop(0)
        for ev in in_flight:
            yield ev

    # -- closed-form throughput (cross-checked against simulation in tests) --
    def expected_throughput(self, fn: CompiledFunction) -> float:
        """Computations/second in steady state, analytically."""
        n = max(1, self.group.n_hosts_logical)
        sigma = self.config.jax_straggler_sigma_us
        # E[max of n Exp(sigma)] = sigma * H_n.
        harmonic = sum(1.0 / k for k in range(1, n + 1))
        dispatch = self.config.python_dispatch_us + sigma * harmonic
        return 1e6 / max(dispatch, self.device_time_us(fn))
