"""Mixture-of-Experts: heterogeneous MPMD computation (paper §1, §6.3).

MoE layers route (sub-)examples to experts hosting different weights —
computational sparsity that the SPMD multi-controller model cannot
express, and one of the workloads Pathways was designed to unlock.  This
module builds an MoE layer step as a genuinely *MPMD* Pathways program:

* a **router** computation on one device group,
* E **expert** computations on separate (possibly differently sized)
  groups, connected by SPARSE sharded edges,
* a **combine** computation gathering expert outputs.

Because experts live on disjoint groups, their computations run
*concurrently* — the step takes router + max(expert) + combine, not the
sum.  Tests assert exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.program import PathwaysProgram
from repro.core.system import PathwaysSystem
from repro.core.virtual_device import VirtualSlice
from repro.plaque.graph import EdgeKind, ShardedGraph
from repro.xla.computation import CompiledFunction
from repro.xla.shapes import DType, TensorSpec

__all__ = ["MoeLayerBuilder", "MoeResult"]

#: Cores per expert group and for the router (and combine) group.
_CORES_PER_EXPERT = 2
_ROUTER_CORES = 2
#: Expert capacity over an even split of the batch's tokens.
_CAPACITY_FACTOR = 1.25
#: Achieved fraction of peak FLOPs for every MoE computation.
_EFFICIENCY = 0.4


@dataclass
class MoeResult:
    step_time_us: float
    tokens_per_second: float
    n_experts: int


class MoeLayerBuilder:
    """Builds one MoE layer step as an MPMD Pathways program."""

    def __init__(
        self,
        system: PathwaysSystem,
        n_experts: int,
        batch_tokens: int,
        d_model: int,
        d_expert: int,
    ):
        if n_experts < 1:
            raise ValueError("need at least one expert")
        self.system = system
        self.n_experts = n_experts
        self.batch_tokens = batch_tokens
        self.d_model = d_model
        self.d_expert = d_expert
        self._program: Optional[PathwaysProgram] = None

    # -- cost model -----------------------------------------------------
    @property
    def tokens_per_expert(self) -> int:
        """Expert capacity: even split inflated by the capacity factor."""
        return int(self.batch_tokens / self.n_experts * _CAPACITY_FACTOR)

    def _router_fn(self) -> CompiledFunction:
        spec = TensorSpec((self.batch_tokens, self.d_model), DType.BF16)
        # Gating: one matmul tokens x d_model x n_experts.
        flops = 2.0 * self.batch_tokens * self.d_model * self.n_experts
        return CompiledFunction(
            "moe_router",
            (spec,), (spec,),
            fn=None,
            n_shards=_ROUTER_CORES,
            flops_per_shard=flops / _ROUTER_CORES,
            efficiency=_EFFICIENCY,
        )

    def _expert_fn(self, e: int) -> CompiledFunction:
        t = self.tokens_per_expert
        in_spec = TensorSpec((max(1, t), self.d_model), DType.BF16)
        # Expert FFN: two matmuls d_model x d_expert per token.
        flops = 4.0 * t * self.d_model * self.d_expert
        return CompiledFunction(
            f"moe_expert{e}",
            (in_spec,), (in_spec,),
            fn=None,
            n_shards=_CORES_PER_EXPERT,
            flops_per_shard=flops / _CORES_PER_EXPERT,
            efficiency=_EFFICIENCY,
        )

    def _combine_fn(self) -> CompiledFunction:
        spec = TensorSpec((self.batch_tokens, self.d_model), DType.BF16)
        in_spec = TensorSpec((max(1, self.tokens_per_expert), self.d_model), DType.BF16)
        return CompiledFunction(
            "moe_combine",
            tuple(in_spec for _ in range(self.n_experts)),
            (spec,),
            fn=None,
            n_shards=_ROUTER_CORES,
            flops_per_shard=2.0 * self.batch_tokens * self.d_model / _ROUTER_CORES,
            efficiency=_EFFICIENCY,
        )

    # -- program construction -------------------------------------------
    def build(self) -> PathwaysProgram:
        if self._program is not None:
            return self._program
        graph = ShardedGraph(name=f"moe[{self.n_experts}e]")
        placements: dict[int, VirtualSlice] = {}
        mk = self.system.make_virtual_device_set

        router_slice = mk().add_slice(tpu_devices=_ROUTER_CORES)
        expert_slices = [
            mk().add_slice(tpu_devices=_CORES_PER_EXPERT)
            for _ in range(self.n_experts)
        ]

        arg = graph.add_arg()
        router = graph.add_compute(self._router_fn())
        placements[router] = router_slice
        graph.connect(arg, router)

        experts = []
        for e in range(self.n_experts):
            node = graph.add_compute(self._expert_fn(e))
            placements[node] = expert_slices[e]
            # Data-dependent routing: a dynamically chosen subset of
            # router shards feeds each expert (SPARSE edge, §4.3).
            graph.connect(router, node, kind=EdgeKind.SPARSE)
            experts.append(node)

        combine = graph.add_compute(self._combine_fn())
        placements[combine] = router_slice
        for i, node in enumerate(experts):
            graph.connect(node, combine, dst_input=i, kind=EdgeKind.GATHER)

        self._program = PathwaysProgram.close(graph, placements, [arg], [(combine, 0)])
        return self._program

    # -- measurement ---------------------------------------------------------
    def run(self, client, n_steps: int = 1) -> MoeResult:
        program = self.build()
        sim = self.system.sim
        start = sim.now
        for _ in range(n_steps):
            execution = client.submit(program, args=(0.0,), compute_values=False)
            sim.run_until_triggered(execution.done)
            execution.release_results()
        step_us = (sim.now - start) / n_steps
        return MoeResult(
            step_time_us=step_us,
            tokens_per_second=self.batch_tokens / (step_us / 1e6),
            n_experts=self.n_experts,
        )

    def expert_compute_us(self) -> float:
        """Per-expert compute time (for the concurrency assertion)."""
        fn = self._expert_fn(0)
        return fn.compute_time_us(self.system.config)
