"""Compact sharded dataflow graphs.

The representation requirement (paper §4.3): a chained execution of two
computations A and B with N shards each must be ``Arg -> Compute(A) ->
Compute(B) -> Result`` — four nodes and three edges — *regardless of N*.
At runtime, N data tuples flow along each edge, one per adjacent shard
pair.  Contrast :mod:`repro.baselines.tf1`, which materializes M+N nodes
and M x N edges and pays for it (Figure 5, ablation bench).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

import networkx as nx

from repro.xla.computation import CompiledFunction

__all__ = ["EdgeKind", "ShardedEdge", "ShardedGraph", "ShardedNode"]


class EdgeKind(Enum):
    """How tuples route between a sharded producer and consumer."""

    ONE_TO_ONE = "one_to_one"    # shard i -> shard i (same width)
    SCATTER = "scatter"          # each src shard splits across dst shards
    GATHER = "gather"            # dst shards collect from all src shards
    SPARSE = "sparse"            # dynamically chosen subset (MoE routing)


@dataclass(frozen=True)
class ShardedNode:
    """One node: a sharded computation (or graph argument / result)."""

    node_id: int
    kind: str  # "arg" | "compute" | "result"
    computation: Optional[CompiledFunction] = None
    n_shards: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("arg", "compute", "result"):
            raise ValueError(f"unknown node kind {self.kind!r}")
        if self.kind == "compute" and self.computation is None:
            raise ValueError(f"compute node {self.node_id} needs a computation")
        if self.n_shards < 1:
            raise ValueError(f"node {self.node_id}: invalid shard count")

    @property
    def label(self) -> str:
        if self.computation is not None:
            return self.computation.name
        return self.kind


@dataclass(frozen=True)
class ShardedEdge:
    """One edge between sharded nodes (carries n tuples at runtime)."""

    src: int
    dst: int
    src_output: int = 0
    dst_input: int = 0
    kind: EdgeKind = EdgeKind.ONE_TO_ONE


class ShardedGraph:
    """A DAG of sharded nodes.  Size is O(computations), never O(shards)."""

    def __init__(self, name: str = "program"):
        self.name = name
        self._g = nx.DiGraph()
        self._nodes: dict[int, ShardedNode] = {}
        self._edges: list[ShardedEdge] = []
        self._next_id = 0

    # -- construction ------------------------------------------------------
    def _add(self, node: ShardedNode) -> int:
        self._nodes[node.node_id] = node
        self._g.add_node(node.node_id)
        return node.node_id

    def add_arg(self) -> int:
        nid = self._next_id
        self._next_id += 1
        return self._add(ShardedNode(nid, "arg"))

    def add_compute(self, computation: CompiledFunction) -> int:
        nid = self._next_id
        self._next_id += 1
        return self._add(
            ShardedNode(nid, "compute", computation, n_shards=computation.n_shards)
        )

    def add_result(self) -> int:
        nid = self._next_id
        self._next_id += 1
        return self._add(ShardedNode(nid, "result"))

    def connect(
        self,
        src: int,
        dst: int,
        src_output: int = 0,
        dst_input: int = 0,
        kind: Optional[EdgeKind] = None,
    ) -> ShardedEdge:
        if src not in self._nodes or dst not in self._nodes:
            raise KeyError(f"unknown node in edge {src}->{dst}")
        if kind is None:
            a, b = self._nodes[src], self._nodes[dst]
            kind = EdgeKind.ONE_TO_ONE if a.n_shards == b.n_shards else EdgeKind.SCATTER
        # Only the new edge can close a cycle: src->dst cycles iff dst
        # already reaches src.  One localized reachability probe instead
        # of a whole-graph acyclicity pass per edge (tracing a k-node
        # chain was quadratic in k).
        if src == dst or nx.has_path(self._g, dst, src):
            raise ValueError(f"edge {src}->{dst} would create a cycle")
        edge = ShardedEdge(src, dst, src_output, dst_input, kind)
        self._edges.append(edge)
        self._g.add_edge(src, dst)
        return edge

    # -- queries ------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def node(self, node_id: int) -> ShardedNode:
        return self._nodes[node_id]

    def nodes(self) -> Iterator[ShardedNode]:
        return iter(self._nodes.values())

    def compute_nodes(self) -> list[ShardedNode]:
        return [n for n in self._nodes.values() if n.kind == "compute"]

    def edges(self) -> list[ShardedEdge]:
        return list(self._edges)

    def in_edges(self, node_id: int) -> list[ShardedEdge]:
        return [e for e in self._edges if e.dst == node_id]

    def predecessors(self, node_id: int) -> list[int]:
        return sorted(self._g.predecessors(node_id))

    def successors(self, node_id: int) -> list[int]:
        return sorted(self._g.successors(node_id))

    def topological_order(self) -> list[int]:
        return list(nx.lexicographical_topological_sort(self._g))

    def runtime_tuple_count(self) -> int:
        """Total data tuples flowing at runtime (shards per edge).

        This is the O(N) quantity the *representation* avoids: the graph
        stays constant-size while tuples scale with sharding.
        """
        total = 0
        for e in self._edges:
            src_shards = self._nodes[e.src].n_shards
            dst_shards = self._nodes[e.dst].n_shards
            if e.kind is EdgeKind.ONE_TO_ONE:
                total += max(src_shards, dst_shards)
            else:
                total += src_shards * dst_shards if e.kind is not EdgeKind.SPARSE else dst_shards
        return total

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on violation."""
        for node in self._nodes.values():
            if node.kind == "compute":
                if not self.in_edges(node.node_id) and node.computation.in_specs:
                    raise ValueError(
                        f"compute node {node.label} expects inputs but has no in-edges"
                    )
        for e in self._edges:
            src, dst = self._nodes[e.src], self._nodes[e.dst]
            if e.kind is EdgeKind.ONE_TO_ONE and src.kind == "compute" and dst.kind == "compute":
                if src.n_shards != dst.n_shards:
                    raise ValueError(
                        f"ONE_TO_ONE edge {src.label}->{dst.label} across differing "
                        f"shard counts {src.n_shards}->{dst.n_shards}"
                    )
