"""Physical topology: meshes and islands.

An *island* is a set of hosts whose devices share an ICI interconnect
(one TPU pod or slice).  Islands are connected to each other only via
DCN.  Devices within an island are arranged on a 2-D mesh; virtual-slice
requests (paper §4.1) ask for contiguous sub-meshes of specific shapes.
"""

from __future__ import annotations

import math

import numpy as np

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
        #: The fault injector that may owe this island's cold devices
        #: lazily applied transitions (None without one).
        self._fault_clock = None
        mesh = Mesh.near_square(n_hosts * devices_per_host)
        self.mesh = mesh
        #: One byte per device, in device order: 1 while it is up (set by
        #: every device transition).
        self._up = bytearray(mesh.size)
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
                dev._up, dev._slot = self._up, idx
                self._up[idx] = 1

    @property
    def n_devices(self) -> int:
        return len(self.devices)

    @property
    def n_hosts(self) -> int:
        return len(self.hosts)

    @property
    def n_healthy(self) -> int:
        """Devices currently able to accept work (resilience layer)."""
        if self._fault_clock is not None:
            self._fault_clock.catch_up()
        return self._up.count(1)

    def healthy_at(self, start: int, count: int, step: int = 1) -> list[Device]:
        """The ``count`` healthy devices at positions ``start``,
        ``start + step``, ... (wrapping past the last) among the
        island's healthy devices in device order, picked through the up
        flags without building that list.

        Catches a fault injector up once, then reads each device's state
        as it stands (``Device.failed`` would catch up per device)."""
        if self._fault_clock is not None:
            self._fault_clock.catch_up()
        up = np.flatnonzero(np.frombuffer(self._up, dtype=np.uint8))
        healthy = len(up)
        return [self.devices[up[(start + i * step) % healthy]] for i in range(count)]
