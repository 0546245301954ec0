"""Sharding: how logical tensors map onto sets of devices.

Pathways' dataflow representation is *sharded*: a computation node spans
N devices and its logical inputs/outputs are split (or replicated)
across them.  The client bookkeeps at logical-buffer granularity (paper
§4.2); shards only appear at the executor/transfer level.  This module
provides the shard math both levels share: shapes and bytes, not values.
"""

from __future__ import annotations

from enum import Enum

from repro.xla.shapes import TensorSpec

__all__ = ["Sharding"]


class Sharding(Enum):
    """Layout of one logical tensor across a computation's devices.

    * ``REPLICATED`` — every device holds the full tensor.
    * ``SPLIT_LEADING`` — the leading axis is divided evenly across
      devices (the data-parallel / batch-sharded layout).
    """

    REPLICATED = "replicated"
    SPLIT_LEADING = "split"

    # -- static shard math -------------------------------------------------
    def shard_spec(self, spec: TensorSpec, n_shards: int) -> TensorSpec:
        """The TensorSpec of one shard."""
        if self is Sharding.REPLICATED or n_shards == 1:
            return spec
        if not spec.shape:
            raise ValueError("cannot split a scalar; use REPLICATED")
        lead = spec.shape[0]
        if lead % n_shards != 0:
            raise ValueError(
                f"leading dim {lead} not divisible by {n_shards} shards"
            )
        return spec.with_leading_dim(lead // n_shards)

    def shard_nbytes(self, spec: TensorSpec, n_shards: int) -> int:
        return self.shard_spec(spec, n_shards).nbytes

    def resharding_bytes(
        self, spec: TensorSpec, from_shards: int, to_shards: int
    ) -> int:
        """Bytes that must move to convert between shard counts.

        Used by the lowering pass that inserts scatter/gather transfers
        between computations with different sharding (paper §4.2).  A
        conservative model: the data not already resident at the
        destination must move once.
        """
        if self is Sharding.REPLICATED:
            # Each destination shard needs the full tensor; assume source
            # replicas cover min(from, to) destinations for free.
            missing = max(0, to_shards - from_shards)
            return missing * spec.nbytes
        if from_shards == to_shards:
            return 0
        return spec.nbytes  # full reshuffle of the split axis
