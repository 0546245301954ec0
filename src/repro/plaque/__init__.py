"""PLAQUE-like sharded dataflow coordination substrate.

The paper relies on PLAQUE, a closed-source Google dataflow engine, for
all cross-host coordination (§4.3).  Pathways requires three properties
of its substrate; this package implements the first two:

1. **Compact sharded representation** — one dataflow node per *sharded*
   computation; a chain A -> B of N-shard computations is 4 nodes
   (Arg -> A -> B -> Result) regardless of N (:mod:`repro.plaque.graph`).
2. **Sparse tagged data exchange with progress tracking** — tuples are
   tagged with a destination shard; watermark-style progress tracking
   detects when a shard's inputs are complete even when only a dynamic
   subset of source shards sends (:mod:`repro.plaque.progress`,
   :mod:`repro.plaque.channels`).
3. **Low-latency critical-path messaging** — control messages ride the
   routed transport (:mod:`repro.net`), one send each; the paper's
   same-host batching is not modelled.
"""

from repro.plaque.graph import EdgeKind, ShardedEdge, ShardedGraph, ShardedNode
from repro.plaque.progress import ProgressTracker
from repro.plaque.channels import ShardedChannel

__all__ = [
    "EdgeKind",
    "ProgressTracker",
    "ShardedChannel",
    "ShardedEdge",
    "ShardedGraph",
    "ShardedNode",
]
