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
from repro.hw.device import CollectiveRendezvous, Kernel
from repro.sim import Event, Simulator
from repro.xla.computation import CompiledFunction

__all__ = ["MultiControllerJax"]

#: Steps the controller enqueues ahead of device completion.
_MAX_IN_FLIGHT = 8


class MultiControllerJax:
    """Multi-controller execution over one island's devices."""

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
        self.group = DeviceGroup(
            island=island,
            devices=[island.devices[0]],
            n_logical=island.n_devices,
            n_hosts_logical=island.n_hosts,
        )
        self.rng = np.random.default_rng(0)

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
        compute = fn.compute_time_us(self.config)
        coll = 0.0
        if fn.collective is not None:
            coll = fn.collective.count * self.group.island.ici.allreduce_time_us(
                self.group.n_logical, fn.collective.nbytes
            )
        return compute + coll

    # -- driver processes -------------------------------------------------
    def run_steps(self, fn: CompiledFunction, n_steps: int) -> Generator:
        """Simulate ``n_steps`` back-to-back executions of ``fn``.

        Asynchronous dispatch (Appendix A.2): the controller enqueues up
        to ``_MAX_IN_FLIGHT`` steps ahead of device completion, so small
        dispatch overheads are masked whenever device time dominates.
        Yields from a simulation process.
        """
        cfg = self.config
        in_flight: list[Event] = []
        for _ in range(n_steps):
            # Per-step Python dispatch on every controller (parallel
            # across hosts; straggler folded into the max).
            yield self.sim.timeout(self.dispatch_overhead_us())
            yield self.sim.timeout(cfg.pcie_latency_us + cfg.host_launch_work_us)
            coll_us = 0.0
            if fn.collective is not None:
                coll_us = fn.collective.count * self.group.island.ici.allreduce_time_us(
                    self.group.n_logical, fn.collective.nbytes
                )
            collective = CollectiveRendezvous(
                self.sim,
                participants=len(self.group.devices),
                duration_us=coll_us,
            )
            kernels = [
                Kernel(
                    self.sim,
                    duration_us=fn.compute_time_us(cfg),
                    collective=collective,
                    tag=fn.name,
                    program="jax",
                )
                for _ in self.group.devices
            ]
            for d, k in zip(self.group.devices, kernels):
                d.enqueue(k)
            in_flight.append(self.sim.all_of([k.done for k in kernels]))
            if len(in_flight) >= _MAX_IN_FLIGHT:
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
