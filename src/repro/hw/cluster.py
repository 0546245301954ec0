"""Cluster assembly and the paper's evaluation configurations.

The paper evaluates on three TPU deployments (§5):

* **Configuration A** — 4 TPUs/host, up to 512 hosts (2048 TPUs, one ICI
  domain).
* **Configuration B** — 8 TPUs/host, up to 64 hosts (512 TPUs).
* **Configuration C** — four islands of 4 hosts x 8 TPUs (32 TPUs each),
  islands connected over DCN.

``make_cluster`` builds arbitrary layouts for scaled-down runs: every
benchmark accepts a host count and uses the same builder, so scaling
experiments sweep a single parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.net import Fabric, Transport
from repro.sim import Simulator

from repro.hw.device import Device
from repro.hw.host import Host
from repro.hw.topology import Island

__all__ = ["Cluster", "ClusterSpec", "config_a", "config_b", "config_c", "make_cluster"]


@dataclass(frozen=True)
class ClusterSpec:
    """Shape of a deployment: per-island (n_hosts, devices_per_host)."""

    islands: tuple[tuple[int, int], ...]
    name: str = "custom"

    @property
    def total_devices(self) -> int:
        return sum(h * d for h, d in self.islands)


def config_a() -> ClusterSpec:
    """Paper configuration A: 512 hosts of 4 TPUs, single island."""
    return ClusterSpec(islands=((512, 4),), name="A[512h]")


def config_b(n_hosts: int = 64) -> ClusterSpec:
    """Paper configuration B: 8 TPUs per host, single island."""
    return ClusterSpec(islands=((n_hosts, 8),), name=f"B[{n_hosts}h]")


def config_c() -> ClusterSpec:
    """Paper configuration C: 4 islands of 4 hosts x 8 TPUs (32 TPUs each)."""
    return ClusterSpec(islands=tuple((4, 8) for _ in range(4)), name="C")


class Cluster:
    """A set of islands plus the routed DCN fabric connecting their hosts."""

    def __init__(
        self,
        sim: Simulator,
        spec: ClusterSpec,
        config: SystemConfig = DEFAULT_CONFIG,
    ):
        self.sim = sim
        self.spec = spec
        self.config = config
        #: Topology-aware link set (host NIC tx/rx, island uplinks, spine).
        self.fabric = Fabric(sim, config)
        #: The uniform cross-host transport.
        self.transport = Transport(sim, config, fabric=self.fabric)
        self.islands: list[Island] = []
        host_id = 0
        device_id = 0
        for island_id, (n_hosts, per_host) in enumerate(spec.islands):
            island = Island(
                sim,
                config,
                island_id=island_id,
                n_hosts=n_hosts,
                devices_per_host=per_host,
                first_host_id=host_id,
                first_device_id=device_id,
            )
            self.islands.append(island)
            host_id += n_hosts
            device_id += n_hosts * per_host

    @property
    def hosts(self) -> list[Host]:
        return [h for isl in self.islands for h in isl.hosts]

    @property
    def devices(self) -> list[Device]:
        return [d for isl in self.islands for d in isl.devices]

    @property
    def n_devices(self) -> int:
        # Live count, not the construction spec: islands can be added at
        # runtime (elastic scale-up).
        return sum(isl.n_devices for isl in self.islands)

    def device(self, device_id: int) -> Device:
        for isl in self.islands:
            base = isl.devices[0].device_id
            if base <= device_id < base + isl.n_devices:
                return isl.devices[device_id - base]
        raise KeyError(f"no device {device_id} in cluster {self.spec.name}")

    def mean_utilization(self) -> float:
        devs = self.devices
        if not devs or self.sim.now <= 0:
            return 0.0
        return sum(d.busy_us for d in devs) / (len(devs) * self.sim.now)


def make_cluster(
    sim: Simulator,
    spec: ClusterSpec,
    config: SystemConfig = DEFAULT_CONFIG,
) -> Cluster:
    """Build a :class:`Cluster` for ``spec`` on the given simulator."""
    return Cluster(sim, spec, config=config)
