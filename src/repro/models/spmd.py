"""SPMD (model-parallel) training steps (Table 1, Table 2 row 1).

One training step is a single sharded compiled function spanning all
devices, with a fused collective whose volume follows a 2-D-sharded
(GShard-like) communication model: per layer, activations are
all-reduced within mesh rows/columns, so per-device collective traffic
scales as ``tokens · d_model / sqrt(n)``, plus the within-step gradient
reduction.  As the paper notes (Table 2 footnote), this communication is
*not* proportional to batch size per device in the way Megatron's is —
which is what makes comparing pipelined vs. SPMD at equal batch fair.

The same compiled function executes on the multi-controller baseline and
on Pathways, which is exactly how Table 1 compares the two systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.config import SystemConfig
from repro.core.client import PathwaysClient
from repro.core.system import PathwaysSystem
from repro.models.transformer import TransformerConfig
from repro.xla.computation import CollectiveSpec, CompiledFunction
from repro.xla.shapes import TensorSpec

__all__ = ["SpmdTrainer", "spmd_collective_bytes"]


def spmd_collective_bytes(
    model: TransformerConfig,
    batch_tokens: int,
    n_devices: int,
    nominal_params: Optional[int] = None,
) -> int:
    """Logical bytes of the fused per-step collective.

    2-D sharded activation collectives (4 per layer, bf16) scaled by
    1/sqrt(n), plus the gradient reduce-scatter (f32 over shards).  The
    executor charges ring time 2*(n-1)/n * bytes / bw on this figure.
    """
    if n_devices < 1:
        raise ValueError(f"invalid device count {n_devices}")
    params = nominal_params if nominal_params is not None else model.params
    act = 4 * model.n_total_layers * batch_tokens * model.d_model * 2
    act_sharded = act / math.sqrt(n_devices)
    grads = 4 * params / n_devices
    return int(act_sharded + grads)


@dataclass
class SpmdTrainer:
    """Builds the per-step compiled function for an SPMD configuration."""

    model: TransformerConfig
    n_devices: int
    batch_tokens: int
    efficiency: float
    nominal_params: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_devices < 1:
            raise ValueError("need at least one device")
        if not 0 < self.efficiency <= 1:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")
        self.model.validate()

    @property
    def params(self) -> int:
        return self.nominal_params if self.nominal_params is not None else self.model.params

    def step_flops(self) -> float:
        return 6.0 * self.params * self.batch_tokens

    def step_computation(self) -> CompiledFunction:
        """One training step as a single sharded compiled function."""
        out_spec = TensorSpec.scalar()  # the loss
        return CompiledFunction(
            name=f"spmd_step[{self.model.name}x{self.n_devices}]",
            in_specs=(out_spec,),
            out_specs=(out_spec,),
            fn=None,
            n_shards=self.n_devices,
            flops_per_shard=self.step_flops() / self.n_devices,
            efficiency=self.efficiency,
            collective=CollectiveSpec(
                "allreduce",
                spmd_collective_bytes(
                    self.model, self.batch_tokens, self.n_devices, self.params
                ),
            ),
        )

    # -- analytic step time (cross-checked against simulation) ---------------
    def compute_time_us(self, config: SystemConfig) -> float:
        return self.step_flops() / self.n_devices / (
            config.tpu_flops_per_us * self.efficiency
        )

    def expected_step_us(self, config: SystemConfig, ici) -> float:
        coll = ici.allreduce_time_us(
            self.n_devices,
            spmd_collective_bytes(self.model, self.batch_tokens, self.n_devices, self.params),
        )
        return self.compute_time_us(config) + coll

    def tokens_per_second(self, step_us: float) -> float:
        return self.batch_tokens / (step_us / 1e6)

    # -- Pathways driver ---------------------------------------------------
    def run_on_pathways(
        self,
        system: PathwaysSystem,
        client: PathwaysClient,
        n_steps: int = 3,
    ) -> float:
        """Execute ``n_steps`` on Pathways; returns measured tokens/s."""
        devs = system.make_virtual_device_set().add_slice(tpu_devices=self.n_devices)
        step = client.wrap(self.step_computation(), devices=devs)
        program = step.solo_program
        elapsed_us = system.sim.drain(system.sim.process(
            client.drive_pipelined(program, args=(0.0,), n_iters=n_steps),
            name=lambda: f"train:{self.model.name}",
        ))
        return self.batch_tokens * n_steps / (elapsed_us / 1e6)
