"""Interconnect model: the per-island ICI.

ICI is the dedicated accelerator interconnect (TPU mesh): device-to-device
transfers and fused collectives run here without host involvement.  The
DCN is the datacenter network: host-mediated, an order of magnitude
higher latency (paper §2, Figure 1).  Cross-host communication lives in
:mod:`repro.net` — a routed :class:`~repro.net.Transport` over a
topology-aware :class:`~repro.net.Fabric` (``Cluster.dcn`` is one).
"""

from __future__ import annotations

import math
from typing import Generator

from repro.config import SystemConfig
from repro.sim import Simulator

from repro.hw.device import CollectiveRendezvous, Device

__all__ = ["ICI"]


class ICI:
    """Inter-chip interconnect for one island (2-D mesh torus).

    Transfers and collectives are *not* contended in this model: TPU mesh
    bisection bandwidth is high enough that the paper's experiments never
    saturate it, and modeling per-link contention would add state without
    changing any reproduced shape.  Costs:

    * point-to-point: ``hops * ici_latency + bytes / link_bw``
    * all-reduce over n devices (ring): ``base + 2*(n-1)/n * bytes / bw``
    * all-gather / reduce-scatter: ``base + (n-1)/n * bytes / bw``
    """

    def __init__(self, sim: Simulator, config: SystemConfig, island_id: int):
        self.sim = sim
        self.config = config
        self.island_id = island_id

    # -- cost models -----------------------------------------------------
    def hops(self, src: Device, dst: Device) -> int:
        (x0, y0), (x1, y1) = src.coords, dst.coords
        return abs(x0 - x1) + abs(y0 - y1)

    def transfer_time_us(self, src: Device, dst: Device, nbytes: int) -> float:
        hops = max(1, self.hops(src, dst))
        return hops * self.config.ici_latency_us + nbytes / self.config.ici_bytes_per_us

    def allreduce_time_us(self, n_devices: int, nbytes: int) -> float:
        if n_devices <= 1:
            return self.config.allreduce_base_us
        ring = 2.0 * (n_devices - 1) / n_devices * nbytes / self.config.ici_bytes_per_us
        # Latency grows with the mesh diameter (reduce along rows, then
        # columns of the 2-D torus): ~2*sqrt(n) hops.
        lat = self.config.allreduce_base_us + 2.0 * math.sqrt(n_devices) * self.config.ici_latency_us
        return lat + ring

    def allgather_time_us(self, n_devices: int, nbytes: int) -> float:
        if n_devices <= 1:
            return self.config.allreduce_base_us / 2
        wire = (n_devices - 1) / n_devices * nbytes / self.config.ici_bytes_per_us
        return self.config.allreduce_base_us / 2 + wire

    # -- simulated actions -------------------------------------------------
    def transfer(self, src: Device, dst: Device, nbytes: int) -> Generator:
        """Simulate a device-to-device copy; completes after wire time."""
        if src.island_id != self.island_id or dst.island_id != self.island_id:
            raise ValueError("ICI transfer requires both devices on this island")
        yield self.sim.timeout(self.transfer_time_us(src, dst, nbytes))

    def make_allreduce(
        self, participants: int, nbytes: int, name: str = ""
    ) -> CollectiveRendezvous:
        """Create the rendezvous for one all-reduce instance."""
        return CollectiveRendezvous(
            self.sim,
            participants,
            self.allreduce_time_us(participants, nbytes),
            name=name
            or (
                f"allreduce[{participants}x{nbytes}B]"
                if self.sim.debug_names
                else ""
            ),
        )
