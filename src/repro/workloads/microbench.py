"""The §5.1 dispatch micro-benchmark across all four systems.

The computation is a single scalar AllReduce followed by a scalar
addition, gang-scheduled over every core.  Three enqueue variants:

* **OpByOp (-O)** — one user-level call per computation (worst case);
* **Chained (-C)** — one call runs a 128-node chain (Pathways program
  tracer / TF graph / Ray future chain; no JAX analogue);
* **Fused (-F)** — one call runs a single node containing a chain of 128
  computations compiled together.

Each runner builds a fresh simulated cluster, drives enough iterations
to reach steady state, and reports computations/second.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.baselines.multi_controller import MultiControllerJax
from repro.baselines.ray_like import RayLikeRuntime
from repro.baselines.tf1 import TfOneRuntime
from repro.config import DEFAULT_CONFIG
from repro.core.system import DispatchMode, PathwaysSystem
from repro.hw.cluster import ClusterSpec, make_cluster
from repro.sim import Simulator
from repro.xla.compiler import fuse
from repro.xla.computation import scalar_allreduce_add

__all__ = [
    "MicrobenchResult",
    "run_jax",
    "run_pathways",
    "run_pathways_pipeline_chain",
    "run_ray",
    "run_tf",
]

CHAIN_LEN = 128  # the paper's chain/fusion length


@dataclass(frozen=True)
class MicrobenchResult:
    system: str
    variant: str       # "opbyop" | "chained" | "fused"
    n_hosts: int
    computations_per_second: float
    #: Engine events processed during the measured run (throughput bench).
    sim_events: int = 0
    #: Simulated time covered by the measured run, in microseconds.
    sim_elapsed_us: float = 0.0

    @property
    def label(self) -> str:
        suffix = {"opbyop": "O", "chained": "C", "fused": "F"}[self.variant]
        return f"{self.system}-{suffix}"


def _spec(n_hosts: int, devices_per_host: int) -> ClusterSpec:
    return ClusterSpec(islands=((n_hosts, devices_per_host),), name=f"{n_hosts}h")


# ---------------------------------------------------------------------------
# Pathways
# ---------------------------------------------------------------------------

def run_pathways(
    variant: str,
    n_hosts: int,
    devices_per_host: int = 4,
    n_calls: int = 20,
) -> MicrobenchResult:
    """One Figure 5 / Figure 6 Pathways data point (0.5 us computations)."""
    system = PathwaysSystem.build(_spec(n_hosts, devices_per_host))
    client = system.client("bench")
    n_devices = n_hosts * devices_per_host
    devs = system.make_virtual_device_set().add_slice(tpu_devices=n_devices)
    unit = scalar_allreduce_add(n_devices, 0.5)

    if variant == "opbyop":
        step = client.wrap(unit, devices=devs)
        program = step.solo_program
        driver = client.drive_op_by_op(program, (0.0,), n_iters=n_calls)
        per_call = 1
    elif variant == "fused":
        fused = fuse([unit] * CHAIN_LEN, name="fused_chain")
        step = client.wrap(fused, devices=devs)
        program = step.solo_program
        driver = client.drive_pipelined(program, (0.0,), n_iters=n_calls)
        per_call = CHAIN_LEN
    elif variant == "chained":
        step = client.wrap(unit, devices=devs)

        @client.program
        def chain(v):
            x = v
            for _ in range(CHAIN_LEN):
                x = step(x)
            return x

        program = chain.trace(np.float32(0.0))
        driver = client.drive_pipelined(
            program, (0.0,), n_iters=n_calls, max_in_flight=2
        )
        per_call = CHAIN_LEN
    else:
        raise ValueError(f"unknown variant {variant!r}")

    proc = system.sim.process(driver, name="driver")
    start = system.sim.now
    system.sim.run_until_triggered(proc)
    elapsed_us = system.sim.now - start
    return MicrobenchResult(
        system="PW",
        variant=variant,
        n_hosts=n_hosts,
        computations_per_second=per_call * n_calls / (elapsed_us / 1e6),
        sim_events=system.sim.events_processed,
        sim_elapsed_us=elapsed_us,
    )


def run_pathways_pipeline_chain(
    n_stages: int,
    n_calls: int = 10,
    mode: DispatchMode = DispatchMode.PARALLEL,
) -> float:
    """The Figure 7 workload: a chain where every node lives on a
    *different host* (4 cores each, 0.5 us of compute) and data moves
    over ICI between stages.  Returns computations/second."""
    system = PathwaysSystem.build(_spec(max(2, n_stages), 4))
    client = system.client("bench")
    slices = [
        system.make_virtual_device_set().add_slice(tpu_devices=4)
        for _ in range(n_stages)
    ]
    steps = [
        client.wrap(scalar_allreduce_add(4, 0.5, name=f"stage{s}"), devices=slices[s])
        for s in range(n_stages)
    ]

    @client.program
    def chain(v):
        x = v
        for step in steps:
            x = step(x)
        return x

    program = chain.trace(np.float32(0.0))
    driver = client.drive_pipelined(
        program, (0.0,), n_iters=n_calls, max_in_flight=4, mode=mode
    )
    proc = system.sim.process(driver, name="driver")
    start = system.sim.now
    system.sim.run_until_triggered(proc)
    elapsed_us = system.sim.now - start
    return n_stages * n_calls / (elapsed_us / 1e6)


# ---------------------------------------------------------------------------
# JAX multi-controller
# ---------------------------------------------------------------------------

def run_jax(
    variant: str,
    n_hosts: int,
    devices_per_host: int = 4,
    compute_time_us: float = 0.5,
    n_calls: int = 40,
) -> MicrobenchResult:
    """One Figure 5 / 6 JAX data point (OpByOp or Fused; Chained has no
    multi-controller analogue)."""
    if variant not in ("opbyop", "fused"):
        raise ValueError(f"JAX has no {variant!r} variant")
    sim = Simulator()
    cluster = make_cluster(sim, _spec(n_hosts, devices_per_host))
    jax = MultiControllerJax(sim, cluster, DEFAULT_CONFIG)
    n_devices = n_hosts * devices_per_host
    unit = scalar_allreduce_add(n_devices, compute_time_us)
    if variant == "fused":
        fn = fuse([unit] * CHAIN_LEN, name="fused_chain")
        per_call = CHAIN_LEN
    else:
        fn = unit
        per_call = 1
    proc = sim.process(jax.run_steps(fn, n_steps=n_calls), name="jax")
    start = sim.now
    sim.run_until_triggered(proc)
    elapsed_us = sim.now - start
    return MicrobenchResult(
        system="JAX",
        variant=variant,
        n_hosts=n_hosts,
        computations_per_second=per_call * n_calls / (elapsed_us / 1e6),
        sim_events=sim.events_processed,
        sim_elapsed_us=elapsed_us,
    )


# ---------------------------------------------------------------------------
# TF1 and Ray
# ---------------------------------------------------------------------------

def run_tf(variant: str, n_hosts: int) -> MicrobenchResult:
    """TF points: 4 devices per host, 10 calls (OpByOp) or one 128-node
    chain (Chained) of 0.5 us computations."""
    sim = Simulator()
    cluster = make_cluster(sim, _spec(n_hosts, 4))
    tf = TfOneRuntime(sim, cluster, DEFAULT_CONFIG)
    unit = scalar_allreduce_add(n_hosts * 4, 0.5)
    if variant == "opbyop":
        proc = sim.process(tf.run_op_by_op(unit, n_steps=10), name="tf")
        total = 10
    elif variant == "chained":
        proc = sim.process(tf.run_chained(unit, CHAIN_LEN, n_calls=1), name="tf")
        total = CHAIN_LEN
    else:
        raise ValueError(f"TF variant {variant!r} not in the paper's Figure 5")
    start = sim.now
    sim.run_until_triggered(proc)
    return MicrobenchResult(
        "TF", variant, n_hosts, total / ((sim.now - start) / 1e6),
        sim_events=sim.events_processed, sim_elapsed_us=sim.now - start,
    )


def run_ray(variant: str, n_hosts: int) -> MicrobenchResult:
    """Ray points (the paper ran 1 GPU/host on p3.2xlarge VMs): 10 calls
    (OpByOp) or one 128-computation call (Chained, Fused) of 0.5 us
    computations."""
    sim = Simulator()
    cluster = make_cluster(sim, _spec(n_hosts, 1))
    ray = RayLikeRuntime(sim, cluster, DEFAULT_CONFIG)
    unit = scalar_allreduce_add(n_hosts, 0.5)
    if variant == "opbyop":
        proc = sim.process(ray.run_op_by_op(unit, n_steps=10), name="ray")
        total = 10
    elif variant == "chained":
        proc = sim.process(ray.run_chained(unit, CHAIN_LEN, n_calls=1), name="ray")
        total = CHAIN_LEN
    elif variant == "fused":
        proc = sim.process(ray.run_fused(unit, CHAIN_LEN, n_calls=1), name="ray")
        total = CHAIN_LEN
    else:
        raise ValueError(f"unknown variant {variant!r}")
    start = sim.now
    sim.run_until_triggered(proc)
    return MicrobenchResult(
        "Ray", variant, n_hosts, total / ((sim.now - start) / 1e6),
        sim_events=sim.events_processed, sim_elapsed_us=sim.now - start,
    )
