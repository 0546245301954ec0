"""Device groups: where a sharded computation physically runs.

A :class:`DeviceGroup` is the physical realization of a virtual slice:
the set of devices a gang-scheduled computation occupies.

Fidelity: a group can be *detailed* (every logical core is a simulated
:class:`~repro.hw.Device`) or *aggregate* (a few representative devices
stand in for ``n_logical`` symmetric SPMD shards, with collective and
host-fan-out costs still computed from the logical counts).  SPMD gangs
are symmetric by construction, so aggregation changes no schedule
decision — it only removes redundant identical events, which is what
makes the 2048-core sweeps of Figures 5/6 tractable in pure Python.
Detailed groups are used wherever per-core behaviour matters (pipelines,
traces, gang-scheduling tests).  The choice is fixed, not a knob: the
resource manager binds slices of up to ``AGGREGATE_THRESHOLD`` devices
detailed and larger ones aggregate, with at most ``MAX_REPRESENTATIVES``
representatives drawn from the slice's own block of the island, so
co-located aggregate slices never share a simulated core
(:mod:`repro.core.resource_manager`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.device import Device
from repro.hw.host import Host
from repro.hw.topology import Island
from repro.xla.computation import CompiledFunction

__all__ = ["DeviceGroup"]


@dataclass
class DeviceGroup:
    """A gang of devices (possibly aggregated) on one island."""

    island: Island
    devices: list[Device]
    n_logical: int
    hosts: list[Host] = field(default_factory=list)
    n_hosts_logical: int = 0
    #: The simulated devices' ids, built once: every gang submission
    #: names them, and the scheduler tells blocked gangs apart by it.
    device_ids: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.devices:
            raise ValueError("device group needs at least one simulated device")
        self.device_ids = tuple(d.device_id for d in self.devices)
        if self.n_logical < len(self.devices):
            raise ValueError(
                f"n_logical={self.n_logical} < simulated devices {len(self.devices)}"
            )
        if not self.hosts:
            seen: set[int] = set()
            for dev in self.devices:
                if dev.host is not None and dev.host.host_id not in seen:
                    seen.add(dev.host.host_id)
                    self.hosts.append(dev.host)
        if self.n_hosts_logical <= 0:
            if self.is_aggregate:
                # Preserve the logical devices-per-host ratio.
                per_host = max(1, self.n_logical // max(1, len(self.hosts)))
                self.n_hosts_logical = max(1, self.n_logical // per_host)
            else:
                self.n_hosts_logical = len(self.hosts)

    @classmethod
    def representative(cls, island: Island, n_logical: int) -> "DeviceGroup":
        """The island's first device standing for an ``n_logical``-core
        SPMD gang, with the logical hosts that many cores span."""
        return cls(
            island=island,
            devices=[island.devices[0]],
            n_logical=n_logical,
            n_hosts_logical=max(1, n_logical // len(island.hosts[0].devices)),
        )

    def collective_us(self, fn: CompiledFunction, initiation_us: float = 0.0) -> float:
        """Wire time of ``fn``'s collectives over this gang's *logical*
        width, each paying ``initiation_us`` on top (0 without any)."""
        if fn.collective is None:
            return 0.0
        return fn.collective.count * (
            self.island.ici.allreduce_time_us(self.n_logical, fn.collective.nbytes)
            + initiation_us
        )

    def per_host_bytes(self, nbytes: int) -> int:
        """Each logical host's share of ``nbytes`` (at least one byte)."""
        return max(1, nbytes // max(1, self.n_hosts_logical))

    @property
    def is_aggregate(self) -> bool:
        return self.n_logical > len(self.devices)

    @property
    def representation_factor(self) -> float:
        """Logical shards per simulated device."""
        return self.n_logical / len(self.devices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "aggregate" if self.is_aggregate else "detailed"
        return (
            f"<DeviceGroup island={self.island.island_id} n={self.n_logical} "
            f"({mode}, {len(self.devices)} simulated)>"
        )
