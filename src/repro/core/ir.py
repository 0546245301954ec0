"""Pathways IR and lowering passes (paper §4.2).

The client builds a device-location-agnostic representation of a traced
program, then lowers it through passes into a low-level program that
names physical device groups and includes explicit data-transfer
operations between computation shards:

1. ``assign_placements`` — bind every compute node to a physical device
   group (virtual slices are resolved via the resource manager).
2. ``insert_transfers`` — for each compute node, read its own in-edges
   from other compute nodes (in insertion order) and decide each one's
   route (intra-group / ICI within an island / DCN across islands) and
   bytes moved, inserting scatter/gather resharding cost when shard
   counts differ.
3. ``finalize`` — the compute nodes in the graph's topological order
   (smallest ready id first), each with its compute predecessors.

The lowered program is cached and re-run cheaply; if the resource
manager rebinds a virtual slice, the cache key (placement epoch)
changes and the program is re-lowered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.config import SystemConfig
from repro.core.placement import DeviceGroup
from repro.core.program import PathwaysProgram
from repro.plaque.graph import ShardedEdge, ShardedGraph
from repro.xla.computation import CompiledFunction
from repro.xla.sharding import Sharding

__all__ = ["LowLevelNode", "LowLevelProgram", "TransferRoute", "TransferSpec", "lower"]


class TransferRoute(Enum):
    LOCAL = "local"   # same device group: no data movement
    ICI = "ici"       # different groups, same island
    DCN = "dcn"       # across islands


@dataclass(frozen=True)
class TransferSpec:
    """One inter-node data movement inserted by lowering."""

    src_node: int
    dst_node: int
    route: TransferRoute
    nbytes: int            # total logical bytes moved
    src_output: int = 0
    dst_input: int = 0


@dataclass
class LowLevelNode:
    """A compute node bound to physical devices, with its input moves."""

    node_id: int
    computation: CompiledFunction
    group: DeviceGroup
    #: Costs fixed at lowering, read on every execution: per-shard
    #: compute, per-shard output bytes, collective wire time.
    compute_time_us: float
    output_nbytes_per_shard: int
    collective_us: float
    incoming: list[TransferSpec] = field(default_factory=list)
    predecessors: list[int] = field(default_factory=list)

    @property
    def label(self) -> str:
        return self.computation.name


@dataclass
class LowLevelProgram:
    """The executable form: ordered nodes + transfer plan.

    Construction (i.e. lowering) precomputes everything the dispatch
    hot path needs per node completion — the id->node index, the
    consumer (successor) adjacency, the input edges sorted by
    destination slot, and the set of result-feeding nodes — so
    completion bookkeeping is O(degree) instead of rescanning
    ``nodes``/``edges`` (O(n²) per program) on every node.
    """

    name: str
    source: PathwaysProgram
    nodes: list[LowLevelNode]            # topological order
    islands: list[int]                   # island ids involved
    total_hosts_logical: int
    #: node_id -> LowLevelNode (O(1) lookup for transfers/replays).
    by_id: dict[int, LowLevelNode] = field(init=False, default_factory=dict)
    #: node_id -> consumer nodes (successor adjacency).
    consumers: dict[int, list[LowLevelNode]] = field(init=False, default_factory=dict)
    #: node_id -> source-graph in-edges sorted by ``dst_input`` (hoisted
    #: out of the per-completion value computation).
    sorted_in_edges: dict[int, list] = field(init=False, default_factory=dict)
    #: Node ids that feed at least one program result.
    result_feeders: set[int] = field(init=False, default_factory=set)

    def __post_init__(self) -> None:
        graph = self.source.graph
        for n in self.nodes:  # topological: predecessors come first
            self.by_id[n.node_id] = n
            self.consumers[n.node_id] = []
            for p in n.predecessors:
                self.consumers[p].append(n)
            self.sorted_in_edges[n.node_id] = sorted(
                graph.in_edges(n.node_id), key=lambda e: e.dst_input
            )
        self.result_feeders = {src for src, _ in self.source.results}

    def node(self, node_id: int) -> LowLevelNode:
        try:
            return self.by_id[node_id]
        except KeyError:
            raise KeyError(f"no low-level node {node_id}") from None


def _transfer(
    graph: ShardedGraph, groups: dict[int, DeviceGroup], edge: ShardedEdge
) -> TransferSpec:
    """Route and bytes of one compute->compute edge."""
    src = graph.node(edge.src)
    dst = graph.node(edge.dst)
    src_group = groups[edge.src]
    dst_group = groups[edge.dst]
    spec = src.computation.out_specs[edge.src_output]
    if src_group is dst_group:
        route, moved = TransferRoute.LOCAL, 0
    elif src_group.island.island_id == dst_group.island.island_id:
        route, moved = TransferRoute.ICI, spec.nbytes
    else:
        route, moved = TransferRoute.DCN, spec.nbytes
    if src.n_shards != dst.n_shards and route is TransferRoute.LOCAL:
        # Same group but resharded: scatter/gather over ICI.
        route = TransferRoute.ICI
        moved = Sharding.SPLIT_LEADING.resharding_bytes(spec, src.n_shards, dst.n_shards)
    return TransferSpec(
        src_node=edge.src,
        dst_node=edge.dst,
        route=route,
        nbytes=moved,
        src_output=edge.src_output,
        dst_input=edge.dst_input,
    )


def lower(program: PathwaysProgram, config: SystemConfig) -> LowLevelProgram:
    """Run all lowering passes over a traced program."""
    graph = program.graph

    # Pass 1: placements -> device groups.
    groups: dict[int, DeviceGroup] = {}
    for node in graph.compute_nodes():
        vslice = program.placements.get(node.node_id)
        if vslice is None:
            raise ValueError(f"{program.name}: node {node.label} has no placement")
        groups[node.node_id] = vslice.group

    # Passes 2 and 3: in topological order, each compute node with the
    # transfers of its compute in-edges (arg/result movement is the
    # client's cost, not lowered).
    nodes = [
        LowLevelNode(
            node_id=nid,
            computation=(fn := graph.node(nid).computation),
            group=groups[nid],
            compute_time_us=fn.compute_time_us(config),
            output_nbytes_per_shard=fn.output_nbytes_per_shard(),
            collective_us=groups[nid].collective_us(fn),
            incoming=[
                _transfer(graph, groups, e) for e in graph.in_edges(nid) if e.src in groups
            ],
            predecessors=[p for p in graph.predecessors(nid) if p in groups],
        )
        for nid in graph.topological_order()
        if nid in groups
    ]
    islands = sorted({g.island.island_id for g in groups.values()})
    # Distinct logical hosts across all groups (controller fan-out width).
    distinct = {id(g): g for g in groups.values()}.values()
    return LowLevelProgram(
        name=program.name,
        source=program,
        nodes=nodes,
        islands=islands,
        total_hosts_logical=sum(g.n_hosts_logical for g in distinct),
    )
