"""Concurrent-client workloads (paper §5.2, Figures 8, 9, 11).

``run_pathways_multitenant`` drives N independent clients, each
repeatedly submitting a gang-scheduled computation spanning every core
of one island, through the shared Pathways schedulers/executors.
``run_jax_multitenant`` is the multi-controller comparison: one
:class:`~repro.baselines.MultiControllerJax` runtime, whose
``run_steps`` clients share the hosts' Python dispatch thread
(serialized) and enqueue to the same devices.

Both return aggregate computations/second; the Pathways runner can also
return the trace and per-client counts for the fairness figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.baselines.multi_controller import MultiControllerJax
from repro.config import DEFAULT_CONFIG
from repro.core.scheduler import ProportionalSharePolicy
from repro.core.system import PathwaysSystem
from repro.hw.cluster import make_cluster
from repro.sim import Simulator
from repro.telemetry import Tracer
from repro.workloads.microbench import _spec, gang_step
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


def run_pathways_multitenant(
    n_clients: int,
    compute_time_us: float,
    n_hosts: int = 16,
    devices_per_host: int = 8,
    iters_per_client: int = 10,
    weights: Optional[dict[str, float]] = None,
    with_trace: bool = False,
    pipelined: bool = False,
    scale_iters_by_weight: bool = False,
) -> MultitenantResult:
    """N clients gang-scheduling over all cores of one island.

    ``weights`` switches the island schedulers to stride scheduling
    (:class:`~repro.core.scheduler.ProportionalSharePolicy`) with those
    per-client shares.  ``pipelined=True`` keeps six submissions in
    flight per client,
    oversubscribing the island so the scheduling policy (not client
    self-limiting) decides shares — the Figure 9 regime.  The default
    OpByOp drive is the Figure 8 regime.  ``with_trace=True`` attaches a
    :class:`~repro.telemetry.Tracer` (``system_handle.sim.tracer``)
    whose kernel spans feed :mod:`repro.telemetry.timeline`.
    """
    if n_clients < 1:
        raise ValueError("need at least one client")
    system = PathwaysSystem.build(
        _spec(n_hosts, devices_per_host),
        policy=ProportionalSharePolicy(weights) if weights is not None else None,
        tracer=Tracer() if with_trace else None,
    )
    n_devices = n_hosts * devices_per_host
    drivers = []
    per_client: dict[str, int] = {}
    for c in range(n_clients):
        name = f"client{c}"
        n_iters = iters_per_client
        if scale_iters_by_weight and weights is not None:
            # Give heavier clients proportionally more work so every
            # client stays active for the whole measurement window.
            n_iters = max(1, int(round(iters_per_client * weights.get(name, 1.0))))
        per_client[name] = n_iters
        client, _, step = gang_step(
            system, name, n_devices,
            scalar_allreduce_add(n_devices, compute_time_us, name=f"step_{name}"),
        )
        if pipelined:
            driver_gen = client.drive_pipelined(
                step.solo_program, (0.0,), n_iters=n_iters, max_in_flight=6
            )
        else:
            driver_gen = client.drive_op_by_op(step.solo_program, (0.0,), n_iters=n_iters)
        drivers.append(system.sim.process(driver_gen, name=lambda n=name: f"driver:{n}"))
    elapsed_us = system.sim.drain(system.sim.all_of(drivers))
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
    iters_per_client: int = 10,
) -> MultitenantResult:
    """Multi-controller comparison: clients contend for each host's
    Python dispatch thread, then enqueue gang computations over an
    island of ``n_hosts`` hosts with 8 devices each.

    Each client is one :meth:`MultiControllerJax.run_steps` process on a
    shared runtime, keeping 4 steps in flight.
    """
    if n_clients < 1:
        raise ValueError("need at least one client")
    sim = Simulator()
    jax = MultiControllerJax(sim, make_cluster(sim, _spec(n_hosts, 8)), DEFAULT_CONFIG)
    unit = scalar_allreduce_add(jax.group.n_logical, compute_time_us, name="step")
    names = [f"client{c}" for c in range(n_clients)]
    drivers = [
        sim.process(
            jax.run_steps(unit, iters_per_client, max_in_flight=4),
            name=lambda name=name: f"jax:{name}",
        )
        for name in names
    ]
    elapsed_us = sim.drain(sim.all_of(drivers))
    total = n_clients * iters_per_client
    return MultitenantResult(
        system="JAX",
        n_clients=n_clients,
        compute_time_us=compute_time_us,
        aggregate_computations_per_second=total / (elapsed_us / 1e6),
        per_client_completed=dict.fromkeys(names, iters_per_client),
    )
