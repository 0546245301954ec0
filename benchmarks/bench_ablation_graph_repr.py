"""Ablation: sharded (PLAQUE-style) vs materialized (TF1-style) graphs.

The paper's §2/§4.3 representation argument: an M-way -> N-way sharded
edge costs one edge in the sharded representation but M x N edges when
materialized, so client-side graph cost explodes with shard counts in
the thousands.  This bench builds the same logical chain at increasing
shard counts and compares representation sizes and build/serialize cost.
"""

from __future__ import annotations

import time

from repro.bench.harness import Table
from repro.config import DEFAULT_CONFIG
from repro.plaque.graph import ShardedGraph
from repro.xla.computation import scalar_allreduce_add

CHAIN = 8
SHARDS = [16, 128, 1024, 4096]


def sharded_graph_size(n_shards):
    g = ShardedGraph()
    prev = g.add_arg()
    for i in range(CHAIN):
        node = g.add_compute(scalar_allreduce_add(n_shards, 1.0, name=f"n{i}"))
        g.connect(prev, node)
        prev = node
    g.connect(prev, g.add_result())
    return g.n_nodes, g.n_edges, g.runtime_tuple_count()


def materialized_graph_size(n_shards):
    """TF1-style: one node per shard, one edge per shard pair on each
    sharded edge (plus per-node serialization cost)."""
    nodes = CHAIN * n_shards + 2
    edges = (CHAIN - 1) * n_shards * n_shards + 2 * n_shards
    serialize_us = nodes * DEFAULT_CONFIG.tf_graph_cost_per_shard_us
    return nodes, edges, serialize_us


def sweep():
    rows = []
    for n in SHARDS:
        t0 = time.perf_counter()
        s_nodes, s_edges, tuples = sharded_graph_size(n)
        build_ms = (time.perf_counter() - t0) * 1e3
        m_nodes, m_edges, m_us = materialized_graph_size(n)
        rows.append((n, s_nodes, s_edges, tuples, m_nodes, m_edges, m_us / 1e3, build_ms))
    return rows


def test_ablation_graph_representation():
    rows = sweep()

    table = Table(
        f"Ablation: graph representation for an {CHAIN}-node chain",
        columns=[
            "shards", "sharded nodes", "sharded edges", "runtime tuples",
            "materialized nodes", "materialized edges", "TF serialize (ms)",
            "build (ms)",
        ],
        wall_clock=["build (ms)"],
    )
    for row in rows:
        table.add_row(*row)
    table.show()

    by_shards = {r[0]: r for r in rows}
    # Sharded representation is constant in shard count...
    assert by_shards[16][1:3] == by_shards[4096][1:3]
    # ...while the materialized one grows quadratically in edges.
    assert by_shards[4096][5] > 1_000_000 * by_shards[16][5] / 10_000
    # Runtime tuples (the data plane) still scale linearly, as they must.
    assert by_shards[4096][3] == 4096 / 16 * by_shards[16][3]
