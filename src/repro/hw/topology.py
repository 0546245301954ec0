"""Physical topology: meshes and islands.

An *island* is a set of hosts whose devices share an ICI interconnect
(one TPU pod or slice).  Islands are connected to each other only via
DCN.  Devices within an island are arranged on a 2-D mesh; virtual-slice
requests (paper §4.1) ask for contiguous sub-meshes of specific shapes.
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.config import SystemConfig
from repro.sim import Simulator

from repro.hw.device import Device
from repro.hw.host import Host
from repro.hw.interconnect import ICI

__all__ = ["Island", "Mesh"]


class Mesh:
    """A 2-D arrangement of device slots, row-major."""

    def __init__(self, rows: int, cols: int):
        if rows < 1 or cols < 1:
            raise ValueError(f"invalid mesh {rows}x{cols}")
        self.rows = rows
        self.cols = cols

    @property
    def size(self) -> int:
        return self.rows * self.cols

    def coords(self, index: int) -> tuple[int, int]:
        if not 0 <= index < self.size:
            raise IndexError(f"device index {index} out of mesh of {self.size}")
        return divmod(index, self.cols)

    @staticmethod
    def near_square(n: int) -> "Mesh":
        """The most square rows x cols factorization of ``n``."""
        if n < 1:
            raise ValueError(f"invalid device count {n}")
        r = int(math.isqrt(n))
        while n % r != 0:
            r -= 1
        return Mesh(r, n // r)


class Island:
    """Hosts + devices sharing one ICI domain."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        island_id: int,
        n_hosts: int,
        devices_per_host: int,
        first_host_id: int = 0,
        first_device_id: int = 0,
    ):
        if n_hosts < 1 or devices_per_host < 1:
            raise ValueError("island needs at least one host and one device per host")
        self.sim = sim
        self.config = config
        self.island_id = island_id
        self.ici = ICI(sim, config, island_id)
        self.hosts: list[Host] = []
        self.devices: list[Device] = []
        mesh = Mesh.near_square(n_hosts * devices_per_host)
        self.mesh = mesh
        for h in range(n_hosts):
            host = Host(sim, config, first_host_id + h, island_id)
            self.hosts.append(host)
            for d in range(devices_per_host):
                idx = h * devices_per_host + d
                dev = Device(
                    sim,
                    config,
                    device_id=first_device_id + idx,
                    island_id=island_id,
                    coords=mesh.coords(idx),
                )
                host.attach(dev)
                self.devices.append(dev)

    @property
    def n_devices(self) -> int:
        return len(self.devices)

    @property
    def n_hosts(self) -> int:
        return len(self.hosts)

    @property
    def healthy_devices(self) -> list[Device]:
        """Devices currently able to accept work (resilience layer)."""
        return [d for d in self.devices if not d.failed]

    @property
    def n_healthy(self) -> int:
        return len(self.healthy_devices)

    def host_of(self, device: Device) -> Host:
        if device.host is None:
            raise ValueError(f"device {device.name} has no host")
        return device.host

    def device_slice(self, n: int, offset: int = 0) -> list[Device]:
        """A contiguous slice of ``n`` devices starting at ``offset``."""
        if offset + n > self.n_devices:
            raise ValueError(
                f"slice of {n} at offset {offset} exceeds island of {self.n_devices}"
            )
        return self.devices[offset : offset + n]

    def iter_hosts_of(self, devices: list[Device]) -> Iterator[Host]:
        seen: set[int] = set()
        for dev in devices:
            host = self.host_of(dev)
            if host.host_id not in seen:
                seen.add(host.host_id)
                yield host
