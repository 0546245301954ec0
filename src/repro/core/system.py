"""The assembled Pathways system.

:class:`PathwaysSystem` owns the simulator, cluster, resource manager,
object store, and one gang scheduler per island, and hands out
:class:`~repro.core.client.PathwaysClient` instances.  It is the
public entry point of the library::

    import numpy as np
    from repro import PathwaysSystem, TensorSpec, config_b

    pw = PathwaysSystem.build(config_b(n_hosts=4))
    client = pw.client("alice")
    devs = pw.make_virtual_device_set().add_slice(tpu_devices=8)
    double = client.wrap_fn(lambda x: x * 2.0, devices=devs, duration_us=50,
                            spec=TensorSpec((2,)))
    print(double(np.array([1.0, 2.0], dtype=np.float32)))  # [2. 4.]
"""

from __future__ import annotations

from typing import Optional

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.core.dispatch import DispatchMode
from repro.core.object_store import ShardedObjectStore
from repro.core.resource_manager import ResourceManager
from repro.core.scheduler import FifoPolicy, IslandScheduler, SchedulingPolicy
from repro.core.virtual_device import VirtualDeviceSet
from repro.hw.cluster import Cluster, ClusterSpec, make_cluster
from repro.hw.device import Device
from repro.hw.topology import Island
from repro.sim import Simulator

__all__ = ["DispatchMode", "PathwaysSystem"]


class PathwaysSystem:
    """Single-controller runtime over a simulated cluster."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        config: SystemConfig = DEFAULT_CONFIG,
        policy: Optional[SchedulingPolicy] = None,
    ):
        self.sim = sim
        self.cluster = cluster
        self.config = config
        self.resource_manager = ResourceManager(sim, cluster, config)
        self.object_store = ShardedObjectStore(sim)
        #: Policy islands are created with (None -> per-island FIFO);
        #: runtime-added islands inherit it so elastic growth never
        #: silently mixes scheduling policies.
        self._default_policy = policy
        self._schedulers: dict[int, IslandScheduler] = {
            isl.island_id: IslandScheduler(
                sim, isl, config, policy=policy if policy is not None else FifoPolicy()
            )
            for isl in cluster.islands
        }
        self._clients: dict[str, "PathwaysClient"] = {}
        #: Attached by :class:`repro.resilience.RecoveryManager`; the
        #: ``retry_on_failure`` dispatch path requires it.
        self.recovery = None
        #: Attached by :class:`repro.resilience.ElasticController`;
        #: mediates elastic scale-up and island drain/handback.
        self.elastic = None
        #: Serving frontends register themselves here (repro.serve).
        self.frontends: list = []
        # counters
        self.programs_dispatched = 0
        self.computations_executed = 0

    # -- construction -----------------------------------------------------
    @staticmethod
    def build(
        spec: ClusterSpec,
        config: SystemConfig = DEFAULT_CONFIG,
        policy: Optional[SchedulingPolicy] = None,
        log_schedule: bool = False,
        tracer=None,
    ) -> "PathwaysSystem":
        """Create a fresh simulator + cluster + system for ``spec``.

        ``log_schedule`` is forwarded to the :class:`~repro.sim.Simulator`
        (the golden-determinism schedule log).
        ``tracer`` attaches a :class:`repro.telemetry.Tracer` to the
        simulator (``system.sim.tracer``); every layer, device kernels
        included, emits its spans into that one stream.
        """
        sim = Simulator(log_schedule=log_schedule, tracer=tracer)
        cluster = make_cluster(sim, spec, config=config)
        return PathwaysSystem(sim, cluster, config=config, policy=policy)

    # -- components -------------------------------------------------------
    @property
    def transport(self):
        """The cross-host transport (``repro.net``) shared system-wide."""
        return self.cluster.transport

    def scheduler_for(self, island: Island) -> IslandScheduler:
        return self._schedulers[island.island_id]

    def device_holders(self, devices: list[Device]) -> list[Optional[str]]:
        """Per device, the live state a fault there would touch (None
        when nothing holds it): a kernel, an HBM waiter or a down host
        (:meth:`Device.held_state`), a bound slice or a capacity
        subscriber, or its island scheduler naming it or stalled."""
        held = self.resource_manager.held_device_ids()
        named: dict[int, Optional[set[int]]] = {}
        out: list[Optional[str]] = []
        for device in devices:
            holder = device.held_state()
            if holder is not None:
                pass
            elif held is None:
                holder = "capacity subscribers attached"
            elif device.device_id in held:
                holder = "a bound slice"
            else:
                island_id = device.island_id
                if island_id not in named:
                    island = self.cluster.islands[island_id]
                    named[island_id] = self.scheduler_for(island).held_device_ids()
                names = named[island_id]
                if names is None:
                    holder = f"a stalled scheduler on island {island_id}"
                elif device.device_id in names:
                    holder = "a scheduler request, grant or admission count"
            out.append(holder)
        return out

    def add_island(
        self,
        n_hosts: int,
        devices_per_host: int,
        policy: Optional[SchedulingPolicy] = None,
    ) -> Island:
        """Grow the cluster at runtime: build an island with contiguous
        fresh ids, give it its own gang scheduler, and register it with
        the resource manager (which fires capacity-change listeners so
        elastic workloads can widen onto the new hardware)."""
        cluster = self.cluster
        island = Island(
            self.sim,
            self.config,
            island_id=max((i.island_id for i in cluster.islands), default=-1) + 1,
            n_hosts=n_hosts,
            devices_per_host=devices_per_host,
            first_host_id=max((h.host_id for h in cluster.hosts), default=-1) + 1,
            first_device_id=max((d.device_id for d in cluster.devices), default=-1) + 1,
        )
        cluster.islands.append(island)
        if policy is None:
            policy = self._default_policy
        self._schedulers[island.island_id] = IslandScheduler(
            self.sim, island, self.config,
            policy=policy if policy is not None else FifoPolicy(),
        )
        self.resource_manager.add_island(island)
        return island

    def make_virtual_device_set(self) -> VirtualDeviceSet:
        return VirtualDeviceSet(self.resource_manager)

    def client(self, name: str = "client") -> "PathwaysClient":
        """The client named ``name``, created on first use.  Scheduling
        weights live in the policy
        (:class:`~repro.core.scheduler.ProportionalSharePolicy`)."""
        from repro.core.client import PathwaysClient

        if name in self._clients:
            return self._clients[name]
        client = PathwaysClient(self, name=name)
        self._clients[name] = client
        return client

    # -- observability -----------------------------------------------------
    def stats(self):
        """One frozen snapshot of the whole stack.

        Aggregates the engine, dispatch counters, every island
        scheduler, every client, the transport, any serving frontends,
        and (when attached) the recovery manager — the unified
        ``repro.stats`` protocol, uniformly serializable via
        ``.as_dict()``.
        """
        from repro.stats import SystemStats

        return SystemStats(
            sim=self.sim.stats(),
            programs_dispatched=self.programs_dispatched,
            computations_executed=self.computations_executed,
            schedulers=tuple(
                self._schedulers[i].stats() for i in sorted(self._schedulers)
            ),
            clients=tuple(
                self._clients[name].stats() for name in sorted(self._clients)
            ),
            net=self.transport.stats(),
            serve=tuple(f.stats() for f in self.frontends),
            recovery=self.recovery.stats() if self.recovery is not None else None,
        )
