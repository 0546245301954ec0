"""Centralized resource manager (paper §4.1).

Owns every device on every island; binds virtual slices to physical
device groups with a load-spreading heuristic (one-to-one virtual to
physical); and supports dynamic addition/removal of islands ("backend
compute resources to be added and removed dynamically").
"""

from __future__ import annotations

from typing import Callable, Collection, Optional

from repro.config import SystemConfig
from repro.core.placement import DeviceGroup
from repro.core.virtual_device import VirtualSlice
from repro.hw.cluster import Cluster
from repro.hw.topology import Island
from repro.sim import Simulator

__all__ = ["AGGREGATE_THRESHOLD", "MAX_REPRESENTATIVES", "ResourceManager"]

#: Slices larger than this are simulated with representative devices
#: (see :mod:`repro.core.placement`).
AGGREGATE_THRESHOLD = 64
#: At most this many representative devices stand for an aggregate slice.
MAX_REPRESENTATIVES = 16


class ResourceManager:
    """Global allocator of physical devices to virtual slices."""

    def __init__(self, sim: Simulator, cluster: Cluster, config: SystemConfig):
        self.sim = sim
        self.cluster = cluster
        self.config = config
        self._islands: dict[int, Island] = {
            isl.island_id: isl for isl in cluster.islands
        }
        #: Next-device cursor per island for load spreading.
        self._cursor: dict[int, int] = {i: 0 for i in self._islands}
        #: Devices currently bound, per island (for release + accounting).
        self._bound: dict[int, VirtualSlice] = {}
        #: Bound slices holding each device, by device id (kept by bind
        #: and release).
        self._holding: dict[int, int] = {}
        #: Islands mid-drain: excluded from new bindings until handback
        #: completes (or the drain is cancelled).
        self._draining: set[int] = set()
        #: Capacity-change subscribers (the elastic controller): called
        #: with (reason, island_id) whenever usable capacity appears.
        self._capacity_listeners: list[Callable[[str, int], None]] = []
        #: Slice-release subscribers: called with the island id a slice
        #: just unbound from (drain completion watches this).
        self._release_listeners: list[Callable[[int], None]] = []

    # -- island membership -----------------------------------------------------
    def add_island(self, island: Island) -> None:
        if island.island_id in self._islands:
            raise ValueError(f"island {island.island_id} already registered")
        self._islands[island.island_id] = island
        self._cursor[island.island_id] = 0
        self.capacity_changed("added", island.island_id)

    # -- capacity events & drain state -------------------------------------
    def subscribe_capacity(self, fn: Callable[[str, int], None]) -> None:
        """Register a listener for capacity-change events.

        ``fn(reason, island_id)`` fires when an island is added
        (``"added"``) and when the resilience layer reports hardware
        returning (``"repair"``, ``"restore"``, ``"preemption-end"``) —
        the signals elastic scale-up grows on.
        """
        # A subscriber must hear every repair at its instant: no device
        # may stay cold while one is attached.
        for isl in self._islands.values():
            if isl._fault_clock is not None:
                isl._fault_clock.warm(isl.devices)
        self._capacity_listeners.append(fn)

    def held_device_ids(self) -> Optional[Collection[int]]:
        """Ids of the devices a bound slice's group holds (a live view);
        None (every device) while capacity subscribers are attached."""
        if self._capacity_listeners:
            return None
        return self._holding.keys()

    def capacity_changed(self, reason: str, island_id: int) -> None:
        """Notify subscribers that usable capacity changed."""
        for fn in list(self._capacity_listeners):
            fn(reason, island_id)

    def subscribe_release(self, fn: Callable[[int], None]) -> None:
        """Register a listener called with the island id whenever a
        slice unbinds from it (release or the unbind half of a rebind).
        The elastic controller uses this to complete drains whose last
        slice left via the recovery path rather than an elastic
        workload's explicit ``vacated``."""
        self._release_listeners.append(fn)

    def begin_drain(self, island_id: int) -> None:
        """Stop offering ``island_id`` to new bindings (graceful handback)."""
        if island_id not in self._islands:
            raise KeyError(f"unknown island {island_id}")
        self._draining.add(island_id)

    def end_drain(self, island_id: int) -> None:
        """The island is back in the binding pool (handback complete and
        capacity returned, or the drain was cancelled)."""
        self._draining.discard(island_id)

    def is_draining(self, island_id: int) -> bool:
        return island_id in self._draining

    def bound_slices_on(self, island_id: int) -> list[VirtualSlice]:
        """Slices currently bound to physical devices of ``island_id``."""
        return [
            s for s in self._bound.values()
            if s.bound and s.group.island.island_id == island_id
        ]

    @property
    def islands(self) -> list[Island]:
        return [self._islands[i] for i in sorted(self._islands)]

    @property
    def total_devices(self) -> int:
        return sum(isl.n_devices for isl in self._islands.values())

    # -- slice binding ----------------------------------------------------
    def _pick_island(self, n_devices: int) -> Island:
        """Least-loaded non-draining island with *surviving* capacity.

        Ranked by ``(uplink utilization, cursor, island id)``: the
        congestion signal first — the same
        :meth:`~repro.net.Fabric.uplink_utilization` feedback the
        serving :meth:`~repro.serve.replicas.ReplicaSet.pick_island`
        reads — so every slice bind (trainers included) lands on islands
        with idle uplinks and a rerouted hotspot drains; the device
        cursor keeps the historical round-robin spreading on a quiet
        fabric (all utilizations 0.0); and the island id makes ties
        explicitly deterministic regardless of registration-dict
        history.  Utilization is rounded so float dust cannot flip the
        deterministic tie-break.
        """
        candidates = [
            isl for isl in self._islands.values()
            if isl.island_id not in self._draining and isl.n_healthy >= n_devices
        ]
        if not candidates:
            raise RuntimeError(
                f"no island can host a slice of {n_devices} devices "
                f"(largest has "
                f"{max((i.n_healthy for i in self._islands.values()), default=0)} healthy)"
            )
        fabric = self.cluster.fabric
        return min(
            candidates,
            key=lambda isl: (
                round(fabric.uplink_utilization(isl.island_id), 6),
                self._cursor.get(isl.island_id, 0),
                isl.island_id,
            ),
        )

    def bind_slice(self, vslice: VirtualSlice) -> DeviceGroup:
        """Assign physical devices to ``vslice`` and bind it.

        Only surviving (non-failed) devices are candidates, so a rebind
        after a fault lands the slice on healthy hardware.  Devices are
        picked by their position among the island's healthy devices
        (:meth:`Island.healthy_at`).  Raises ``RuntimeError`` when no
        island has enough healthy capacity — recovery retries after
        repair in that case.
        """
        if vslice.bound:
            raise RuntimeError(f"slice {vslice.slice_id} already bound")
        if vslice.island_id is not None:
            island = self._islands.get(vslice.island_id)
            if island is None:
                raise KeyError(f"unknown island {vslice.island_id}")
            if vslice.island_id in self._draining:
                raise RuntimeError(
                    f"island {vslice.island_id} is draining; repin slice "
                    f"{vslice.slice_id} elsewhere"
                )
        else:
            island = self._pick_island(vslice.n_devices)
        n = vslice.n_devices
        healthy = island.n_healthy
        if n <= AGGREGATE_THRESHOLD and n <= healthy:
            # Detailed: a contiguous run of healthy devices, round-robin
            # offset (identical to the original contiguous slice when
            # nothing has failed).
            offset = self._cursor[island.island_id] % max(1, healthy - n + 1)
            devices = island.healthy_at(offset, n)
            group = DeviceGroup(island=island, devices=devices, n_logical=n)
        elif not healthy:
            raise RuntimeError(
                f"island {island.island_id} has no healthy devices for "
                f"slice {vslice.slice_id}"
            )
        else:
            # Aggregate: the slice reserves its logical block
            # [cursor, cursor+n) of the healthy devices and spreads its
            # representatives inside it, so co-located aggregate slices
            # simulate disjoint cores instead of falsely contending.
            per_host = len(island.hosts[0].devices)
            n_hosts_logical = max(1, n // per_host)
            reps = min(MAX_REPRESENTATIVES, healthy, n)
            base = self._cursor.get(island.island_id, 0) % healthy
            span = min(n, healthy)
            # reps * step <= healthy, so the picks never wrap onto each other.
            devices = island.healthy_at(base, reps, max(1, span // reps))
            group = DeviceGroup(
                island=island,
                devices=devices,
                n_logical=n,
                n_hosts_logical=n_hosts_logical,
            )
        self._cursor[island.island_id] = self._cursor.get(island.island_id, 0) + n
        if island._fault_clock is not None:
            island._fault_clock.warm(group.devices)
        vslice.bind(group)
        self._bound[vslice.slice_id] = vslice
        holding = self._holding
        for d in group.devices:
            holding[d.device_id] = holding.get(d.device_id, 0) + 1
        return group

    def release_slice(self, vslice: VirtualSlice) -> None:
        island_id = vslice.group.island.island_id if vslice.bound else None
        self._bound.pop(vslice.slice_id, None)
        group = vslice.unbind()
        if group is not None:
            holding = self._holding
            for d in group.devices:
                if holding[d.device_id] == 1:
                    del holding[d.device_id]
                else:
                    holding[d.device_id] -= 1
        if group is not None and group.island._fault_clock is not None:
            # Devices left quiescent by their last slice turn cold.
            group.island._fault_clock.settle(group.devices)
        if island_id is not None:
            for fn in list(self._release_listeners):
                fn(island_id)

    def rebind_slice(self, vslice: VirtualSlice) -> DeviceGroup:
        """Migrate: unbind and bind afresh (transparent to the client,
        which only holds virtual device names)."""
        self.release_slice(vslice)
        try:
            return self.bind_slice(vslice)
        except Exception:
            # Leave the slice trackable so a later retry can rebind it.
            self._bound[vslice.slice_id] = vslice
            raise
