"""Sharded object store with HBM tracking (paper §4.6).

Each host manages objects whose shards may live in accelerator HBM or in
host DRAM.  Clients and servers refer to objects by opaque handles, so
the system can migrate buffers.  Objects carry ownership labels for
garbage collection on client/program failure, reference counts for
lifetime management, and their HBM reservations create back-pressure:
a computation that cannot allocate output buffers stalls until space
frees up.

The store is *sharded*: one logical object covers all shards of a
sharded buffer, amortizing bookkeeping at logical granularity — the
client-scalability mechanism of paper §4.2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Generator, Optional

import numpy as np

from repro.core.placement import DeviceGroup
from repro.hw.device import free_hbm, reserve_hbm
from repro.sim import Event, Simulator

__all__ = ["MemorySpace", "ObjectHandle", "ShardedObjectStore"]

_object_ids = itertools.count(1)


class MemorySpace(Enum):
    HBM = "hbm"
    HOST_DRAM = "dram"


@dataclass
class ObjectHandle:
    """Opaque reference to one logical (possibly sharded) buffer."""

    object_id: int
    nbytes_total: int
    nbytes_per_shard: int
    n_shards: int
    space: MemorySpace
    owner: str  # client/program label, for failure GC
    group: Optional[DeviceGroup] = None
    value: Optional[np.ndarray] = None  # logical value, once produced
    refcount: int = 1
    freed: bool = False


class ShardedObjectStore:
    """Global view over per-device HBM allocators + host DRAM.

    HBM reservations go through each shard device's
    :class:`~repro.hw.device.HbmAllocator` (aggregate groups charge the
    representative devices the per-shard size — capacity semantics are
    per-core, so this is exact).  DRAM is modeled as unbounded.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._objects: dict[int, ObjectHandle] = {}
        #: Per-object HBM grant events, one per simulated device, for
        #: allocations that did not reserve every shard at once: the
        #: exact rollback record for allocations aborted mid-grant (a
        #: failed device cancels its waiters; peers that already granted
        #: must be freed, peers still queued must be cancelled).
        self._hbm_grants: dict[int, list[tuple]] = {}
        self.allocations = 0
        self.frees = 0
        self.cross_host_fetches = 0
        self.cross_host_bytes = 0
        #: Under the sim-sanitizer, every device this store reserved HBM
        #: on, for the drain-end conservation sweep (None otherwise).
        self._hbm_devices: Optional[dict] = None
        if sim.sanitize and sim.sanitizer is not None:
            self._hbm_devices = {}
            sim.sanitizer.watch(self)

    # -- allocation ---------------------------------------------------------
    def allocate(
        self,
        nbytes_per_shard: int,
        n_shards: int,
        owner: str,
        group: Optional[DeviceGroup] = None,
        space: MemorySpace = MemorySpace.HBM,
    ) -> tuple[ObjectHandle, Event]:
        """Reserve a sharded buffer; the event fires when space is granted.

        For HBM, every simulated device in the group must grant the
        per-shard bytes (back-pressure: the event waits for all grants).
        """
        handle = ObjectHandle(
            object_id=next(_object_ids),
            nbytes_total=nbytes_per_shard * n_shards,
            nbytes_per_shard=nbytes_per_shard,
            n_shards=n_shards,
            space=space,
            owner=owner,
            group=group,
        )
        self._objects[handle.object_id] = handle
        self.allocations += 1
        if space is MemorySpace.HBM:
            if group is None:
                raise ValueError("HBM allocation requires a device group")
            if self._hbm_devices is not None:
                self._hbm_devices.update(dict.fromkeys(group.devices))
            if reserve_hbm(group.devices, nbytes_per_shard):
                # Every shard reserved instantly (the common uncontended
                # case): no grant record, no barrier; _free frees them all.
                ready = self.sim.granted()
            else:
                grants = [(dev, dev.hbm.alloc(nbytes_per_shard)) for dev in group.devices]
                self._hbm_grants[handle.object_id] = grants
                ready = self.sim.all_of([ev for _, ev in grants])
        else:
            ready = self.sim.event()
            ready.succeed(None)
        return handle, ready

    # -- reference counting ---------------------------------------------------
    def add_ref(self, handle: ObjectHandle) -> None:
        if handle.freed:
            raise RuntimeError(f"add_ref on freed object {handle.object_id}")
        handle.refcount += 1

    def release(self, handle: ObjectHandle) -> None:
        """Drop one reference; frees the buffer at zero."""
        if handle.freed:
            raise RuntimeError(f"double free of object {handle.object_id}")
        if handle.refcount <= 0:
            raise RuntimeError(f"refcount underflow on object {handle.object_id}")
        handle.refcount -= 1
        if handle.refcount == 0:
            self._free(handle)

    def _free(self, handle: ObjectHandle) -> None:
        handle.freed = True
        self.frees += 1
        grants = self._hbm_grants.pop(handle.object_id, None)
        if grants is not None:
            # Free exactly what was granted; waiters still queued (an
            # allocation aborted mid-grant) are cancelled instead, which
            # re-runs the FIFO grant scan so later requests unblock.
            for dev, ev in grants:
                if ev.triggered and ev.ok:
                    dev.hbm.free_bytes(handle.nbytes_per_shard)
                else:
                    dev.hbm.cancel(ev)
        elif handle.space is MemorySpace.HBM and handle.group is not None:
            free_hbm(handle.group.devices, handle.nbytes_per_shard)
        self._objects.pop(handle.object_id, None)

    # -- cross-host movement ---------------------------------------------------
    def fetch_to_host(self, handle: ObjectHandle, dst_host, transport) -> Generator:
        """Move one (possibly sharded) object's bytes to ``dst_host``.

        Each shard travels from its own host over the routed transport
        (so cross-island fetches contend on the island uplinks when
        ``net_contention`` is on), in parallel; the generator completes
        when every shard has arrived.  A shard host crashing mid-fetch
        fails the fetch with :class:`~repro.net.MessageLost` — callers on
        the recovery path replay against the re-produced object.
        """
        if handle.freed:
            raise RuntimeError(f"fetch of freed object {handle.object_id}")
        if handle.group is None:
            return  # host-resident object with no placement: nothing moves
        per_host: dict[int, tuple] = {}
        for dev in handle.group.devices:
            host = dev.host
            if host is None or host is dst_host:
                # Shards already resident on the destination don't cross
                # the network (and must not skew the cross-host stats).
                continue
            prev = per_host.get(host.host_id)
            per_host[host.host_id] = (
                host,
                (prev[1] if prev else 0) + handle.nbytes_per_shard,
            )
        if not per_host:
            return
        self.cross_host_fetches += 1
        sends = []
        for host, nbytes in per_host.values():
            self.cross_host_bytes += nbytes
            sends.append(transport.send(host, dst_host, nbytes))
        yield self.sim.all_of(sends)

    # -- failure cleanup -----------------------------------------------------
    def discard(self, handle: ObjectHandle) -> bool:
        """Forcibly free a buffer lost to a device failure.

        Unlike :meth:`release`, this ignores the refcount: the data is
        gone regardless of who still holds references (their reads would
        fail; the replay path re-produces the object under a new handle).
        Returns False if the handle was already freed.
        """
        if handle.freed:
            return False
        handle.refcount = 0
        self._free(handle)
        return True

    def collect_owner(self, owner: str) -> int:
        """Free everything owned by ``owner`` (program/client failure GC).

        Returns the number of objects collected.
        """
        doomed = [h for h in self._objects.values() if h.owner == owner]
        for handle in doomed:
            handle.refcount = 1
            self.release(handle)
        return len(doomed)

    # -- introspection --------------------------------------------------------
    def live_objects(self, owner: Optional[str] = None) -> list[ObjectHandle]:
        objs = list(self._objects.values())
        if owner is not None:
            objs = [h for h in objs if h.owner == owner]
        return objs

    def live_bytes(self, owner: Optional[str] = None) -> int:
        return sum(h.nbytes_total for h in self.live_objects(owner))

    def __len__(self) -> int:
        return len(self._objects)

    def _sanitizer_problems(self) -> list[tuple[str, str]]:
        """Drain-end conservation: each allocation is freed or live, and
        each device's HBM reservation is exactly the shards its live
        objects were granted there (a restart keeps HBM accounting, so
        this holds across faults too)."""
        problems = []
        live = len(self._objects)
        if self.allocations - self.frees != live:
            problems.append((
                "conservation",
                f"object store: {self.allocations} allocations - {self.frees} "
                f"frees != {live} live objects",
            ))
        held = dict.fromkeys(self._hbm_devices, 0)
        for handle in self._objects.values():
            grants = self._hbm_grants.get(handle.object_id)
            if grants is not None:
                devices = [dev for dev, ev in grants if ev.triggered and ev.ok]
            elif handle.space is MemorySpace.HBM and handle.group is not None:
                devices = handle.group.devices
            else:
                continue
            for dev in devices:
                held[dev] += handle.nbytes_per_shard
        for dev, nbytes in held.items():
            if dev.hbm.used != nbytes:
                problems.append((
                    "conservation",
                    f"object store: live objects hold {nbytes} bytes on "
                    f"{dev.name}, whose HBM has {dev.hbm.used} reserved",
                ))
        return problems
