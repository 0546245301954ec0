"""GPipe-style pipeline training as real Pathways programs (Table 2, Fig 10).

A pipelined training step is built as one multi-node Pathways program:
``S x M`` forward nodes, ``S x M`` backward nodes, and an apply-gradients
node per stage.  Each stage owns a virtual slice (possibly on a
different island — Figure 10's configuration C), activations and
gradients flow along sharded edges (ICI within an island, DCN across),
and the pipeline "bubble" is not modeled analytically: it *emerges* from
the devices' non-preemptible FIFOs plus the data-dependency gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.program import PathwaysProgram
from repro.core.system import PathwaysSystem
from repro.core.virtual_device import VirtualSlice
from repro.models.transformer import TransformerConfig
from repro.plaque.graph import ShardedGraph
from repro.xla.computation import CollectiveSpec, CompiledFunction
from repro.xla.sharding import Sharding
from repro.xla.shapes import DType, TensorSpec

__all__ = ["PipelineBuilder", "PipelineResult"]


@dataclass
class PipelineResult:
    """Outcome of a measured pipeline run."""

    step_time_us: float
    tokens_per_second: float
    n_stages: int
    n_microbatches: int
    bubble_fraction_ideal: float

    def __str__(self) -> str:
        return (
            f"S={self.n_stages} M={self.n_microbatches}: "
            f"{self.tokens_per_second / 1e3:.1f}k tokens/s "
            f"(step {self.step_time_us / 1e6:.2f}s, ideal bubble "
            f"{self.bubble_fraction_ideal:.1%})"
        )


class PipelineBuilder:
    """Builds and runs one pipelined training step program."""

    def __init__(
        self,
        system: PathwaysSystem,
        model: TransformerConfig,
        n_stages: int,
        n_microbatches: int,
        cores_per_stage: int,
        batch_tokens: int,
        efficiency: float,
        stage_islands: Optional[list[int]] = None,
        nominal_params: Optional[int] = None,
    ):
        if n_stages < 1 or n_microbatches < 1:
            raise ValueError("need >= 1 stage and >= 1 microbatch")
        if batch_tokens % n_microbatches != 0:
            raise ValueError(
                f"batch of {batch_tokens} tokens not divisible into "
                f"{n_microbatches} microbatches"
            )
        if stage_islands is not None and len(stage_islands) != n_stages:
            raise ValueError("stage_islands must name one island per stage")
        self.system = system
        self.model = model
        self.S = n_stages
        self.M = n_microbatches
        self.cores_per_stage = cores_per_stage
        self.batch_tokens = batch_tokens
        self.micro_tokens = batch_tokens // n_microbatches
        self.efficiency = efficiency
        self.stage_islands = stage_islands
        self.params = nominal_params if nominal_params is not None else model.params
        self._program: Optional[PathwaysProgram] = None
        self._slices: list[VirtualSlice] = []

    # -- per-stage cost model ------------------------------------------------
    @property
    def stage_params(self) -> int:
        return self.params // self.S

    def _stage_fn(self, stage: int, phase: str) -> CompiledFunction:
        """The compiled function for one (stage, phase) — reused across
        microbatches, so the compilation cache sees S x 2 entries, not
        S x M x 2."""
        act_spec = TensorSpec((self.micro_tokens, self.model.d_model), DType.BF16)
        flops_factor = 2.0 if phase == "fwd" else 4.0
        flops = flops_factor * self.stage_params * self.micro_tokens
        return CompiledFunction(
            name=f"{phase}_s{stage}[{self.model.name}]",
            in_specs=(act_spec,),
            out_specs=(act_spec,),
            fn=None,
            n_shards=self.cores_per_stage,
            flops_per_shard=flops / self.cores_per_stage,
            efficiency=self.efficiency,
            # Microbatches are sharded across the stage's cores; a
            # replicated layout would stash the full activation on every
            # core and exhaust HBM for deep pipelines.
            in_shardings=(Sharding.SPLIT_LEADING,),
            out_shardings=(Sharding.SPLIT_LEADING,),
        )

    def _apply_fn(self, stage: int) -> CompiledFunction:
        """Weight update: gradient all-reduce across the stage's shards
        (f32) plus a parameter-touch pass."""
        act_spec = TensorSpec((self.micro_tokens, self.model.d_model), DType.BF16)
        return CompiledFunction(
            name=f"apply_s{stage}[{self.model.name}]",
            in_specs=(act_spec,),
            out_specs=(TensorSpec.scalar(),),
            fn=None,
            n_shards=self.cores_per_stage,
            flops_per_shard=4.0 * self.stage_params / self.cores_per_stage,
            efficiency=self.efficiency,
            collective=CollectiveSpec("allreduce", 4 * self.stage_params),
        )

    # -- program construction ----------------------------------------------
    def build(self) -> PathwaysProgram:
        if self._program is not None:
            return self._program
        S, M = self.S, self.M
        graph = ShardedGraph(name=f"gpipe[{self.model.name}]S{S}M{M}")
        placements: dict[int, VirtualSlice] = {}

        self._slices = []
        for s in range(S):
            island_id = self.stage_islands[s] if self.stage_islands else None
            vslice = self.system.make_virtual_device_set().add_slice(
                tpu_devices=self.cores_per_stage, island_id=island_id
            )
            self._slices.append(vslice)

        arg = graph.add_arg()
        fwd_fns = [self._stage_fn(s, "fwd") for s in range(S)]
        bwd_fns = [self._stage_fn(s, "bwd") for s in range(S)]

        # Forward wave: microbatch-major so node ids give GPipe order.
        fwd: dict[tuple[int, int], int] = {}
        for m in range(M):
            for s in range(S):
                nid = graph.add_compute(fwd_fns[s])
                placements[nid] = self._slices[s]
                fwd[(m, s)] = nid
                if s == 0:
                    graph.connect(arg, nid)
                else:
                    graph.connect(fwd[(m, s - 1)], nid)
        # Backward wave: reversed microbatch order, last stage first.
        bwd: dict[tuple[int, int], int] = {}
        for m in reversed(range(M)):
            for s in reversed(range(S)):
                nid = graph.add_compute(bwd_fns[s])
                placements[nid] = self._slices[s]
                bwd[(m, s)] = nid
                # Stashed activations (local, zero-cost) + upstream grads.
                graph.connect(fwd[(m, s)], nid)
                if s < S - 1:
                    graph.connect(bwd[(m, s + 1)], nid)
        # Apply-gradients per stage, after that stage's last backward.
        applies = []
        for s in range(S):
            nid = graph.add_compute(self._apply_fn(s))
            placements[nid] = self._slices[s]
            graph.connect(bwd[(0, s)], nid)
            applies.append(nid)

        self._program = PathwaysProgram.close(graph, placements, [arg], [(applies[0], 0)])
        return self._program

    # -- measurement -----------------------------------------------------------
    def ideal_bubble_fraction(self) -> float:
        return (self.S - 1) / (self.M + self.S - 1)

    def run(self, client, n_steps: int = 1) -> PipelineResult:
        """Execute ``n_steps`` pipeline steps; returns measured throughput."""
        program = self.build()
        sim = self.system.sim
        elapsed_us = sim.drain(sim.process(
            client.drive_pipelined(program, (0.0,), n_iters=n_steps, max_in_flight=1),
            name=lambda: f"train:{program.name}",
        ))
        step_us = elapsed_us / n_steps
        return PipelineResult(
            step_time_us=step_us,
            tokens_per_second=self.batch_tokens / (step_us / 1e6),
            n_stages=self.S,
            n_microbatches=self.M,
            bubble_fraction_ideal=self.ideal_bubble_fraction(),
        )
