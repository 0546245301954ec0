"""Compiled functions: statically-shaped computations with cost models.

A :class:`CompiledFunction` is the unit the whole system schedules: one
(sharded) node in a Pathways program.  It knows, before execution:

* input/output :class:`~repro.xla.shapes.TensorSpec`\\ s,
* its execution-time cost on one device shard,
* whether it performs a collective (and over how many bytes),

and it carries a numpy callable giving its logical semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.config import SystemConfig
from repro.xla.shapes import TensorSpec
from repro.xla.sharding import Sharding

__all__ = ["CollectiveSpec", "CompiledFunction", "scalar_allreduce_add"]


@dataclass(frozen=True)
class CollectiveSpec:
    """Collectives embedded in a compiled function (fused on TPU).

    ``count`` is the number of back-to-back collective instances the
    kernel performs internally (a fused chain of 128 AllReduce+add
    computations has count=128); ``nbytes`` is the payload of *each*
    instance.  Fused on-chip collectives still pay wire latency per
    instance — that is what keeps Fused-variant throughput finite at
    scale (Figure 5).
    """

    kind: str  # "allreduce" | "allgather" | "reducescatter"
    nbytes: int
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("allreduce", "allgather", "reducescatter"):
            raise ValueError(f"unknown collective kind {self.kind!r}")
        if self.nbytes < 0:
            raise ValueError(f"negative collective bytes: {self.nbytes}")
        if self.count < 1:
            raise ValueError(f"collective count must be >= 1, got {self.count}")


@dataclass
class CompiledFunction:
    """One compiled, statically-shaped, possibly-sharded computation.

    Parameters
    ----------
    name:
        Stable identifier (also the compilation-cache key).
    in_specs / out_specs:
        Logical tensor contracts.
    fn:
        Logical semantics: ``fn(*arrays) -> tuple[arrays]``.  May be
        ``None`` for cost-model-only workloads (model benchmarks).
    n_shards:
        SPMD width: how many devices execute this function in lockstep.
    duration_us:
        Explicit per-shard compute time.  Mutually exclusive with
        ``flops_per_shard`` (from which duration is derived).
    flops_per_shard:
        Analytic cost; converted via peak FLOP/s x efficiency.
    collective:
        Fused collective the shards perform (forces gang execution).
    in_shardings / out_shardings:
        Layout of each logical input/output across the shards.
    """

    name: str
    in_specs: tuple[TensorSpec, ...]
    out_specs: tuple[TensorSpec, ...]
    fn: Optional[Callable[..., tuple[np.ndarray, ...]]] = None
    n_shards: int = 1
    duration_us: Optional[float] = None
    flops_per_shard: Optional[float] = None
    collective: Optional[CollectiveSpec] = None
    in_shardings: tuple[Sharding, ...] = ()
    out_shardings: tuple[Sharding, ...] = ()
    efficiency: Optional[float] = None
    #: Regular functions have statically known resource requirements
    #: (Appendix B); irregular ones (data-dependent shapes) force the
    #: dispatcher back to the sequential model (paper §4.5).
    regular: bool = True

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError(f"{self.name}: n_shards must be >= 1")
        if (self.duration_us is None) == (self.flops_per_shard is None):
            raise ValueError(
                f"{self.name}: exactly one of duration_us / flops_per_shard required"
            )
        if self.duration_us is not None and self.duration_us < 0:
            raise ValueError(f"{self.name}: negative duration")
        if not self.in_shardings:
            self.in_shardings = tuple(Sharding.REPLICATED for _ in self.in_specs)
        if not self.out_shardings:
            self.out_shardings = tuple(Sharding.REPLICATED for _ in self.out_specs)
        if len(self.in_shardings) != len(self.in_specs):
            raise ValueError(f"{self.name}: in_shardings/in_specs length mismatch")
        if len(self.out_shardings) != len(self.out_specs):
            raise ValueError(f"{self.name}: out_shardings/out_specs length mismatch")

    # -- cost model -------------------------------------------------------
    def compute_time_us(self, config: SystemConfig) -> float:
        """Per-shard on-device compute time, excluding collectives."""
        if self.duration_us is not None:
            return self.duration_us
        eff = self.efficiency if self.efficiency is not None else config.model_flops_efficiency
        return self.flops_per_shard / (config.tpu_flops_per_us * eff)

    def output_nbytes_per_shard(self) -> int:
        return sum(
            sh.shard_nbytes(spec, self.n_shards)
            for spec, sh in zip(self.out_specs, self.out_shardings)
        )

    # -- semantics ---------------------------------------------------------
    def execute(self, *args: np.ndarray) -> tuple[np.ndarray, ...]:
        """Apply the logical semantics; validates the static contracts."""
        if self.fn is None:
            raise RuntimeError(f"{self.name}: cost-model-only function has no semantics")
        if len(args) != len(self.in_specs):
            raise TypeError(
                f"{self.name}: expected {len(self.in_specs)} args, got {len(args)}"
            )
        for i, (arg, spec) in enumerate(zip(args, self.in_specs)):
            if not spec.matches(np.asarray(arg)):
                raise TypeError(
                    f"{self.name}: arg {i} has shape {np.asarray(arg).shape}, "
                    f"expected {spec.shape}"
                )
        out = self.fn(*args)
        if not isinstance(out, tuple):
            out = (out,)
        if len(out) != len(self.out_specs):
            raise TypeError(
                f"{self.name}: fn returned {len(out)} outputs, "
                f"declared {len(self.out_specs)}"
            )
        for i, (val, spec) in enumerate(zip(out, self.out_specs)):
            if not spec.matches(np.asarray(val)):
                raise TypeError(
                    f"{self.name}: output {i} has shape {np.asarray(val).shape}, "
                    f"declared {spec.shape}"
                )
        return out

    @property
    def is_regular(self) -> bool:
        """Whether resource requirements are known before execution."""
        return self.regular


def scalar_allreduce_add(
    n_shards: int,
    duration_us: float,
    name: str = "allreduce_add",
) -> CompiledFunction:
    """The paper's micro-benchmark computation (§5.1).

    "a single AllReduce of a scalar followed by a scalar addition":
    semantically ``y = x + 1`` on a scalar (the all-reduce of a replicated
    scalar is the identity up to scale; we keep +1 so chains are
    checkable), with an explicit on-device duration and a 4-byte
    collective over all shards.
    """
    spec = TensorSpec.scalar()
    return CompiledFunction(
        name=name,
        in_specs=(spec,),
        out_specs=(spec,),
        fn=lambda x: (np.asarray(x, dtype=np.float32) + np.float32(1.0),),
        n_shards=n_shards,
        duration_us=duration_us,
        collective=CollectiveSpec("allreduce", 4),
    )
