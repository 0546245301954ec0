"""Concurrent-client workloads (paper §5.2, Figures 8, 9, 11).

``run_pathways_multitenant`` drives N independent clients, each
repeatedly submitting a gang-scheduled computation spanning every core
of one island, through the shared Pathways schedulers/executors.
``run_jax_multitenant`` is the multi-controller comparison: clients
share each host's Python dispatch thread (serialized) and enqueue to the
same devices.

Both return aggregate computations/second; the Pathways runner can also
return the trace and per-client counts for the fairness figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.core.scheduler import ProportionalSharePolicy, SchedulingPolicy
from repro.core.system import PathwaysSystem
from repro.hw.cluster import ClusterSpec, make_cluster
from repro.hw.device import CollectiveRendezvous, Kernel
from repro.sim import Resource, Simulator
from repro.telemetry import Tracer
from repro.xla.computation import scalar_allreduce_add

__all__ = [
    "MultitenantResult",
    "run_jax_multitenant",
    "run_pathways_multitenant",
]


@dataclass
class MultitenantResult:
    system: str
    n_clients: int
    compute_time_us: float
    aggregate_computations_per_second: float
    per_client_completed: dict[str, int]
    system_handle: Optional[PathwaysSystem] = None  # for trace rendering


def _spec(n_hosts: int, devices_per_host: int) -> ClusterSpec:
    return ClusterSpec(islands=((n_hosts, devices_per_host),), name=f"{n_hosts}h")


def run_pathways_multitenant(
    n_clients: int,
    compute_time_us: float,
    n_hosts: int = 16,
    devices_per_host: int = 8,
    iters_per_client: int = 10,
    config: SystemConfig = DEFAULT_CONFIG,
    policy: Optional[SchedulingPolicy] = None,
    weights: Optional[dict[str, float]] = None,
    with_trace: bool = False,
    aggregate_threshold: int = 64,
    pipelined: bool = False,
    max_in_flight: int = 6,
    scale_iters_by_weight: bool = False,
) -> MultitenantResult:
    """N clients gang-scheduling over all cores of one island.

    ``pipelined=True`` keeps several submissions in flight per client,
    oversubscribing the island so the scheduling policy (not client
    self-limiting) decides shares — the Figure 9 regime.  The default
    OpByOp drive is the Figure 8 regime.  ``with_trace=True`` attaches a
    :class:`~repro.telemetry.Tracer` (``system_handle.sim.tracer``)
    whose kernel spans feed :mod:`repro.telemetry.timeline`.
    """
    if n_clients < 1:
        raise ValueError("need at least one client")
    if weights is not None and policy is None:
        policy = ProportionalSharePolicy(weights)
    system = PathwaysSystem.build(
        _spec(n_hosts, devices_per_host),
        config=config,
        policy=policy,
        tracer=Tracer() if with_trace else None,
        aggregate_threshold=aggregate_threshold,
    )
    n_devices = n_hosts * devices_per_host
    drivers = []
    clients = []
    per_client: dict[str, int] = {}
    for c in range(n_clients):
        name = f"client{c}"
        client = system.client(name)
        clients.append(client)
        n_iters = iters_per_client
        if scale_iters_by_weight and weights is not None:
            # Give heavier clients proportionally more work so every
            # client stays active for the whole measurement window.
            n_iters = max(1, int(round(iters_per_client * weights.get(name, 1.0))))
        per_client[name] = n_iters
        devs = system.make_virtual_device_set().add_slice(tpu_devices=n_devices)
        unit = scalar_allreduce_add(n_devices, compute_time_us, name=f"step_{name}")
        step = client.wrap(unit, devices=devs)
        if pipelined:
            driver_gen = client.drive_pipelined(
                step.solo_program,
                (0.0,),
                n_iters=n_iters,
                max_in_flight=max_in_flight,
            )
        else:
            driver_gen = client.drive_op_by_op(
                step.solo_program, (0.0,), n_iters=n_iters
            )
        drivers.append(
            system.sim.process(driver_gen, name=lambda n=name: f"driver:{n}")
        )
    start = system.sim.now
    system.sim.run_until_triggered(system.sim.all_of(drivers))
    elapsed_us = system.sim.now - start
    total = sum(per_client.values())
    return MultitenantResult(
        system="PW",
        n_clients=n_clients,
        compute_time_us=compute_time_us,
        aggregate_computations_per_second=total / (elapsed_us / 1e6),
        per_client_completed=per_client,
        system_handle=system,
    )


def run_jax_multitenant(
    n_clients: int,
    compute_time_us: float,
    n_hosts: int = 16,
    devices_per_host: int = 8,
    iters_per_client: int = 10,
    config: SystemConfig = DEFAULT_CONFIG,
    seed: int = 0,
) -> MultitenantResult:
    """Multi-controller comparison: clients contend for each host's
    Python dispatch thread, then enqueue gang computations.

    A single representative host/device pair stands in for the symmetric
    SPMD fleet; the dispatch thread serializes all clients (the
    mechanism limiting JAX's aggregate throughput for tiny computations,
    §5.2), while enqueued work pipelines on the devices.
    """
    import numpy as np

    if n_clients < 1:
        raise ValueError("need at least one client")
    sim = Simulator()
    cluster = make_cluster(sim, _spec(n_hosts, devices_per_host), config=config)
    island = cluster.islands[0]
    device = island.devices[0]
    n_devices = island.n_devices
    dispatch_thread = Resource(sim, capacity=1, name="python")
    rng = np.random.default_rng(seed)
    coll_us = island.ici.allreduce_time_us(n_devices, 4)
    completed: dict[str, int] = {}

    def client_loop(name: str) -> Generator:
        done = 0
        in_flight = []
        for _ in range(iters_per_client):
            jitter = rng.exponential(config.jax_straggler_sigma_us, size=n_hosts).max()
            yield from dispatch_thread.using(sim, config.python_dispatch_us + jitter)
            yield sim.timeout(config.pcie_latency_us + config.host_launch_work_us)
            kernel = Kernel(
                sim,
                duration_us=compute_time_us,
                collective=CollectiveRendezvous(
                    sim,
                    1,
                    coll_us,
                    name=f"ar:{name}" if sim.debug_names else "",
                ),
                tag="step",
                program=name,
            )
            device.enqueue(kernel)
            in_flight.append(kernel.done)
            if len(in_flight) >= 4:
                yield in_flight.pop(0)
            done += 1
        for ev in in_flight:
            yield ev
        completed[name] = done

    drivers = [
        sim.process(client_loop(f"client{c}"), name=lambda c=c: f"jax:client{c}")
        for c in range(n_clients)
    ]
    start = sim.now
    sim.run_until_triggered(sim.all_of(drivers))
    elapsed_us = sim.now - start
    total = n_clients * iters_per_client
    return MultitenantResult(
        system="JAX",
        n_clients=n_clients,
        compute_time_us=compute_time_us,
        aggregate_computations_per_second=total / (elapsed_us / 1e6),
        per_client_completed=dict(completed),
    )
