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

def gang_step(system: PathwaysSystem, client_name: str, n_devices: int, fn):
    """``(client, slice, step)``: ``client_name``'s client, a fresh slice
    of ``n_devices`` and ``fn`` wrapped on it."""
    client = system.client(client_name)
    devs = system.make_virtual_device_set().add_slice(tpu_devices=n_devices)
    return client, devs, client.wrap(fn, devices=devs)


def run_pathways(
    variant: str,
    n_hosts: int,
    devices_per_host: int = 4,
    n_calls: int = 20,
) -> MicrobenchResult:
    """One Figure 5 / Figure 6 Pathways data point (0.5 us computations)."""
    if variant not in ("opbyop", "fused", "chained"):
        raise ValueError(f"unknown variant {variant!r}")
    system = PathwaysSystem.build(_spec(n_hosts, devices_per_host))
    n_devices = n_hosts * devices_per_host
    unit = scalar_allreduce_add(n_devices, 0.5)
    fn = fuse([unit] * CHAIN_LEN, name="fused_chain") if variant == "fused" else unit
    client, _, step = gang_step(system, "bench", n_devices, fn)
    per_call = 1 if variant == "opbyop" else CHAIN_LEN
    if variant == "opbyop":
        driver = client.drive_op_by_op(step.solo_program, (0.0,), n_iters=n_calls)
    elif variant == "fused":
        driver = client.drive_pipelined(step.solo_program, (0.0,), n_iters=n_calls)
    else:

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

    elapsed_us = system.sim.drain(system.sim.process(driver, name="driver"))
    return MicrobenchResult(
        "PW", variant, n_hosts, per_call * n_calls / (elapsed_us / 1e6),
        sim_events=system.sim.events_processed, sim_elapsed_us=elapsed_us,
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
    elapsed_us = system.sim.drain(system.sim.process(driver, name="driver"))
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
    fn = fuse([unit] * CHAIN_LEN, name="fused_chain") if variant == "fused" else unit
    per_call = CHAIN_LEN if variant == "fused" else 1
    elapsed_us = sim.drain(sim.process(jax.run_steps(fn, n_steps=n_calls), name="jax"))
    return MicrobenchResult(
        "JAX", variant, n_hosts, per_call * n_calls / (elapsed_us / 1e6),
        sim_events=sim.events_processed, sim_elapsed_us=elapsed_us,
    )


# ---------------------------------------------------------------------------
# TF1 and Ray
# ---------------------------------------------------------------------------

def run_tf(variant: str, n_hosts: int) -> MicrobenchResult:
    """TF points: 4 devices per host, 10 calls (OpByOp) or one 128-node
    chain (Chained) of 0.5 us computations."""
    if variant not in ("opbyop", "chained"):
        raise ValueError(f"TF variant {variant!r} not in the paper's Figure 5")
    return _run_baseline("TF", TfOneRuntime, 4, variant, n_hosts)


def run_ray(variant: str, n_hosts: int) -> MicrobenchResult:
    """Ray points (the paper ran 1 GPU/host on p3.2xlarge VMs): 10 calls
    (OpByOp) or one 128-computation call (Chained, Fused) of 0.5 us
    computations."""
    if variant not in ("opbyop", "chained", "fused"):
        raise ValueError(f"unknown variant {variant!r}")
    return _run_baseline("Ray", RayLikeRuntime, 1, variant, n_hosts)


def _run_baseline(
    label: str, runtime_cls, devices_per_host: int, variant: str, n_hosts: int
) -> MicrobenchResult:
    sim = Simulator()
    runtime = runtime_cls(
        sim, make_cluster(sim, _spec(n_hosts, devices_per_host)), DEFAULT_CONFIG
    )
    unit = scalar_allreduce_add(n_hosts * devices_per_host, 0.5)
    if variant == "opbyop":
        driver, total = runtime.run_op_by_op(unit, n_steps=10), 10
    elif variant == "chained":
        driver, total = runtime.run_chained(unit, CHAIN_LEN, n_calls=1), CHAIN_LEN
    else:
        driver, total = runtime.run_fused(unit, CHAIN_LEN, n_calls=1), CHAIN_LEN
    elapsed_us = sim.drain(sim.process(driver, name=label.lower()))
    return MicrobenchResult(
        label, variant, n_hosts, total / (elapsed_us / 1e6),
        sim_events=sim.events_processed, sim_elapsed_us=elapsed_us,
    )
