"""Ray-style actor runtime (paper §5.1's Ray/PyTorch-on-GPU comparator).

Models the mechanisms the paper credits for Ray's gap:

* **actor method invocation** — a general-purpose Python actor call per
  computation (OpByOp) or per chain link (Chained);
* **no device object store** — every method result is copied from
  accelerator memory to the host-DRAM object store over PCIe before its
  handle is returned;
* **Fused** — a single actor method loops over the computations
  internally, paying the actor overhead once and a small per-iteration
  Python loop cost.

The paper notes Ray ran on different hardware (V100 VMs); the point of
the comparison is mechanism, not absolute numbers, and that is what the
constants in :class:`repro.config.SystemConfig` encode.
"""

from __future__ import annotations

from typing import Generator

from repro.config import SystemConfig
from repro.core.placement import DeviceGroup
from repro.hw.cluster import Cluster
from repro.hw.device import Kernel
from repro.sim import Simulator
from repro.xla.computation import CompiledFunction

__all__ = ["RayLikeRuntime"]

#: Python-loop cost per iteration inside a fused actor method (each
#: iteration dispatches a PyTorch AllReduce from the actor's Python loop).
_FUSED_LOOP_US = 150.0

#: Host-side initiation of each NCCL-style collective.
_HOST_INITIATION_US = 20.0

#: Driver-side ``ray.get`` cost: OpByOp blocks the client on every object
#: ref; chained execution passes refs actor-to-actor and skips this.
_RAY_GET_US = 500.0


class RayLikeRuntime:
    """Actor-based execution over one island (stand-in for GPU hosts)."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        config: SystemConfig,
    ):
        self.sim = sim
        self.cluster = cluster
        self.config = config
        island = cluster.islands[0]
        self.group = DeviceGroup.representative(island, island.n_devices)

    # -- cost components -----------------------------------------------------
    def device_time_us(self, fn: CompiledFunction) -> float:
        # NCCL-style allreduce initiated by the host (no fused on-chip
        # collectives): same ring model, plus a host-initiation term.
        return fn.compute_time_us(self.config) + self.group.collective_us(
            fn, _HOST_INITIATION_US
        )

    def store_put_us(self, nbytes: int) -> float:
        """GPU -> DRAM copy + object-store insertion for one result."""
        return (
            self.config.ray_object_store_put_us
            + nbytes / self.config.gpu_dram_bytes_per_us
        )

    # -- drivers -----------------------------------------------------------
    def run_op_by_op(self, fn: CompiledFunction, n_steps: int) -> Generator:
        """A separate actor method per computation; caller waits on the
        returned object ref each time."""
        dev = self.group.devices[0]
        for _ in range(n_steps):
            yield self.sim.timeout(self.config.ray_actor_call_us)
            kernel = Kernel(self.sim, duration_us=self.device_time_us(fn), tag=fn.name)
            dev.enqueue(kernel)
            yield kernel.done
            yield self.sim.timeout(self.store_put_us(fn.out_specs[0].nbytes))
            yield self.sim.timeout(_RAY_GET_US)

    def run_chained(self, fn: CompiledFunction, chain_len: int, n_calls: int) -> Generator:
        """Chained actor methods passing object refs: the next method in
        the chain is only scheduled once the predecessor's object ref
        resolves, so each link pays the full actor invocation, the device
        time, and the GPU->DRAM store put in sequence."""
        dev = self.group.devices[0]
        for _ in range(n_calls):
            for _ in range(chain_len):
                yield self.sim.timeout(self.config.ray_actor_call_us)
                kernel = Kernel(self.sim, duration_us=self.device_time_us(fn), tag=fn.name)
                dev.enqueue(kernel)
                yield kernel.done
                yield self.sim.timeout(self.store_put_us(fn.out_specs[0].nbytes))
    
    def run_fused(self, fn: CompiledFunction, chain_len: int, n_calls: int) -> Generator:
        """One actor method loops over the chain internally."""
        dev = self.group.devices[0]
        for _ in range(n_calls):
            yield self.sim.timeout(self.config.ray_actor_call_us)
            for _ in range(chain_len):
                yield self.sim.timeout(_FUSED_LOOP_US)
                kernel = Kernel(self.sim, duration_us=self.device_time_us(fn), tag=fn.name)
                dev.enqueue(kernel)
                yield kernel.done
            yield self.sim.timeout(self.store_put_us(fn.out_specs[0].nbytes))

    # -- closed form -------------------------------------------------------
    def expected_throughput(self, fn: CompiledFunction, variant: str) -> float:
        """Computations/second of ``variant``; Fused runs the paper's
        128-computation chain per call."""
        dev = self.device_time_us(fn)
        put = self.store_put_us(fn.out_specs[0].nbytes)
        call = self.config.ray_actor_call_us
        if variant == "opbyop":
            return 1e6 / (call + dev + put + _RAY_GET_US)
        if variant == "chained":
            return 1e6 / (call + dev + put)
        if variant == "fused":
            per_call = call + put + 128 * (_FUSED_LOOP_US + dev)
            return 128 * 1e6 / per_call
        raise ValueError(f"unknown variant {variant!r}")
