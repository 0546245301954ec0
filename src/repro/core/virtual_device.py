"""Virtual devices and slices (paper §4.1, Figure 2).

Clients ask for "virtual slices" of a size, optionally pinned to an
island; the resource manager later binds each slice to physical
devices.  The layer of indirection is the hook for future
suspend/resume and migration: user programs name virtual devices, never
physical ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.core.placement import DeviceGroup

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.resource_manager import ResourceManager

__all__ = ["VirtualDevice", "VirtualDeviceSet", "VirtualSlice"]

_slice_ids = itertools.count(1)


@dataclass(frozen=True)
class VirtualDevice:
    """One virtual TPU within a slice."""

    slice_id: int
    index: int

    @property
    def name(self) -> str:
        return f"v{self.slice_id}.{self.index}"


class VirtualSlice:
    """A requested set of virtual devices, bindable to physical ones."""

    def __init__(self, n_devices: int, island_id: Optional[int] = None):
        if n_devices < 1:
            raise ValueError(f"slice needs >= 1 device, got {n_devices}")
        self.slice_id = next(_slice_ids)
        self.n_devices = n_devices
        self.island_id = island_id
        self.tpus = tuple(VirtualDevice(self.slice_id, i) for i in range(n_devices))
        self._group: Optional[DeviceGroup] = None
        #: Bumped on every (re)bind; lowering caches key on it so a
        #: migrated slice transparently triggers re-lowering (paper §4.2:
        #: "the program can be re-lowered if the resource manager changes
        #: the mapping between virtual and physical devices").
        self.version = 0

    # -- binding (done by the resource manager) ------------------------------
    @property
    def bound(self) -> bool:
        return self._group is not None

    @property
    def group(self) -> DeviceGroup:
        if self._group is None:
            raise RuntimeError(
                f"virtual slice {self.slice_id} not bound to physical devices yet"
            )
        return self._group

    def bind(self, group: DeviceGroup) -> None:
        if group.n_logical != self.n_devices:
            raise ValueError(
                f"binding slice of {self.n_devices} to group of {group.n_logical}"
            )
        self._group = group
        self.version += 1

    @property
    def needs_remap(self) -> bool:
        """True when any bound physical device has failed.

        User programs name virtual devices, so recovery can rebind this
        slice onto surviving hardware (bumping ``version``, which
        transparently triggers re-lowering) without the client changing
        a single reference.
        """
        return self._group is not None and any(d.failed for d in self._group.devices)

    def unbind(self) -> Optional[DeviceGroup]:
        """Detach from physical devices (suspend/migration support)."""
        group, self._group = self._group, None
        return group

    def repin(self, island_id: Optional[int]) -> None:
        """Re-target the slice's island constraint for its *next* bind.

        The drain/handback and elastic scale-up paths use this to steer
        a slice onto (or off) a specific island; user programs keep
        naming the same virtual devices throughout.
        """
        self.island_id = island_id

    def __repr__(self) -> str:  # pragma: no cover
        state = "bound" if self.bound else "unbound"
        return f"<VirtualSlice {self.slice_id}: {self.n_devices} tpus, {state}>"


class VirtualDeviceSet:
    """User-facing factory mirroring the paper's Figure 2 API::

        device_set = pw.make_virtual_device_set()
        tpus = device_set.add_slice(tpu_devices=n).tpus
    """

    def __init__(self, resource_manager: "ResourceManager"):
        self._rm = resource_manager
        self.slices: list[VirtualSlice] = []

    def add_slice(
        self, tpu_devices: int, island_id: Optional[int] = None
    ) -> VirtualSlice:
        """Request (and eagerly bind) a slice of ``tpu_devices`` TPUs."""
        vslice = VirtualSlice(tpu_devices, island_id=island_id)
        self._rm.bind_slice(vslice)
        self.slices.append(vslice)
        return vslice
