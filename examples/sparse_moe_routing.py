"""Sparse data-dependent routing: the workload Pathways was built for (§6.3).

A Mixture-of-Experts layer routes each example to a dynamically chosen
expert.  This is exactly the "fine-grain data-dependent data exchange
between nodes" that SPMD multi-controllers cannot express: the router's
output determines, at runtime, which (sparse) subset of expert shards
receives data.

This example drives the PLAQUE-layer machinery directly: a sharded
channel carries router->expert tuples tagged with destination shards,
and the progress tracker's punctuation tells each expert when its inputs
are complete — even experts that receive nothing this step.

Run:  python examples/sparse_moe_routing.py
"""

from __future__ import annotations

import numpy as np

from repro.plaque.channels import ShardedChannel
from repro.sim import Simulator

N_EXPERTS = 8
N_ROUTER_SHARDS = 4
EXAMPLES_PER_SHARD = 16


def run_moe_layer_program() -> None:
    """Part 2: the same idea as a full MPMD Pathways program — router and
    experts on disjoint device groups, sparse edges between them."""
    from repro import PathwaysSystem
    from repro.hw.cluster import ClusterSpec
    from repro.models.moe import MoeLayerBuilder

    system = PathwaysSystem.build(ClusterSpec(islands=((5, 4),)))
    builder = MoeLayerBuilder(
        system, n_experts=N_EXPERTS, batch_tokens=65536,
        d_model=1024, d_expert=4096,
    )
    result = builder.run(system.client("moe"))
    expert_ms = builder.expert_compute_us() / 1000
    print(f"\nMPMD MoE layer as one Pathways program "
          f"({N_EXPERTS} experts on disjoint device groups):")
    print(f"  per-expert compute : {expert_ms:.2f} ms "
          f"({N_EXPERTS * expert_ms:.1f} ms if run serially)")
    print(f"  measured step      : {result.step_time_us / 1000:.2f} ms "
          f"— experts run concurrently")
    print(f"  throughput         : {result.tokens_per_second / 1e6:.1f}M tokens/s")


def main() -> None:
    sim = Simulator()
    rng = np.random.default_rng(0)
    channel = ShardedChannel(
        sim, n_dst_shards=N_EXPERTS, producers=N_ROUTER_SHARDS, name="router->experts"
    )
    processed = {e: [] for e in range(N_EXPERTS)}

    def router_shard(shard: int):
        """Routes each example to a learned expert (here: random gate)."""
        yield sim.timeout(50.0)  # the routing computation
        gates = rng.integers(0, N_EXPERTS, size=EXAMPLES_PER_SHARD)
        targets = set()
        for example, expert in enumerate(gates):
            channel.put(
                shard, int(expert),
                payload=(shard, example), final=False,
            )
            targets.add(int(expert))
        # Punctuate every expert — including ones that got nothing — so
        # each expert learns promptly that this shard is done.
        channel.punctuate(shard)

    def expert(e: int):
        yield channel.shard_complete(e)
        batch = channel.drain(e)
        processed[e] = batch
        if batch:
            # Vectorized expert computation over the dynamic batch.
            yield sim.timeout(10.0 + 2.0 * len(batch))

    for s in range(N_ROUTER_SHARDS):
        sim.process(router_shard(s), name=f"router{s}")
    experts = [sim.process(expert(e), name=f"expert{e}") for e in range(N_EXPERTS)]
    sim.run_until_triggered(sim.all_of(experts))

    total = sum(len(v) for v in processed.values())
    print(f"routed {total} examples from {N_ROUTER_SHARDS} router shards "
          f"to {N_EXPERTS} experts in {sim.now:.0f} simulated us\n")
    for e, batch in processed.items():
        sources = sorted({s for s, _ in batch})
        print(f"  expert {e}: {len(batch):2d} examples "
              f"(from router shards {sources if sources else '—'})")
    assert total == N_ROUTER_SHARDS * EXAMPLES_PER_SHARD
    print("\nEvery expert completed — including any that received zero")
    print("examples — because producers punctuate instead of sending")
    print("empty messages (MillWheel/Naiad-style progress tracking, §4.3).")
    run_moe_layer_program()


if __name__ == "__main__":
    main()
