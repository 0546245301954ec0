"""Property-based tests on core-runtime invariants (hypothesis)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_CONFIG
from repro.core.object_store import ShardedObjectStore
from repro.core.placement import DeviceGroup
from repro.core.scheduler import GangRequest, IslandScheduler, ProportionalSharePolicy
from repro.hw.topology import Island
from repro.sim import Simulator


@given(
    depth=st.integers(1, 4),
    jobs=st.lists(
        st.tuples(st.integers(0, 3), st.floats(10.0, 200.0)),  # (device, cost)
        min_size=1,
        max_size=30,
    ),
)
@settings(max_examples=40, deadline=None)
def test_scheduler_admission_never_exceeds_depth(depth, jobs):
    """At no instant may more than ``depth`` granted-but-unfinished
    computations exist on any device."""
    sim = Simulator()
    cfg = DEFAULT_CONFIG.with_overrides(scheduler_queue_depth=depth)
    island = Island(sim, cfg, 0, n_hosts=1, devices_per_host=4)
    sched = IslandScheduler(sim, island, cfg)
    live: dict[int, int] = {}
    max_live = [0]

    def unit(dev, cost):
        req = sched.submit("c", "p", "n", cost_us=cost, device_ids=(dev,))
        yield req.grant
        live[dev] = live.get(dev, 0) + 1
        max_live[0] = max(max_live[0], live[dev])
        req.enqueued_ack.succeed(None)
        yield sim.timeout(cost)
        live[dev] -= 1
        sched.complete(req)

    procs = [sim.process(unit(dev, cost)) for dev, cost in jobs]
    sim.run_until_triggered(sim.all_of(procs))
    assert max_live[0] <= depth


@given(
    weights=st.lists(st.floats(0.5, 8.0), min_size=2, max_size=5),
    rounds=st.integers(100, 400),
)
@settings(max_examples=25, deadline=None)
def test_stride_policy_converges_to_weights(weights, rounds):
    """With all clients always pending, device-time shares converge to
    the weight vector."""
    names = [f"c{i}" for i in range(len(weights))]
    policy = ProportionalSharePolicy(dict(zip(names, weights)))
    sim = Simulator()
    time_share = {n: 0.0 for n in names}
    cost = 10.0
    for _ in range(rounds):
        pending = [
            GangRequest(n, "p", "x", sim.event(), sim.event(), cost_us=cost)
            for n in names
        ]
        winner = policy.pick(pending)
        time_share[winner.client] += cost
    total = sum(time_share.values())
    wsum = sum(weights)
    for n, w in zip(names, weights):
        assert time_share[n] / total == pytest.approx(w / wsum, abs=0.08)


@given(
    actions=st.lists(
        st.tuples(st.booleans(), st.integers(1, 1 << 16)),  # (release?, nbytes)
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=40, deadline=None)
def test_object_store_hbm_conservation(actions):
    """HBM in use always equals the sum of live objects' per-shard sizes,
    and everything returns to zero after owner GC."""
    sim = Simulator()
    cfg = DEFAULT_CONFIG
    island = Island(sim, cfg, 0, n_hosts=1, devices_per_host=2)
    group = DeviceGroup(island=island, devices=island.devices, n_logical=2)
    store = ShardedObjectStore(sim)
    live = []
    for release_one, nbytes in actions:
        if release_one and live:
            handle = live.pop()
            store.release(handle)
        else:
            handle, _ = store.allocate(nbytes, 2, group=group)
            live.append(handle)
        sim.run()
        expected = sum(h.nbytes_per_shard for h in live)
        for dev in group.devices:
            assert dev.hbm.used == expected
    for handle in live:
        store.release(handle)
    assert all(dev.hbm.used == 0 for dev in group.devices)
    assert len(store) == 0


@given(
    s=st.integers(1, 6),
    m_mult=st.integers(1, 6),
)
@settings(max_examples=20, deadline=None)
def test_pipeline_program_always_schedulable(s, m_mult):
    """Any (S, M) GPipe program builds a valid DAG whose execution
    terminates — the gating + FIFO + admission control combination never
    deadlocks for pipelines."""
    from repro.core.system import PathwaysSystem
    from repro.hw.cluster import ClusterSpec
    from repro.models.pipeline import PipelineBuilder
    from repro.models.transformer import TransformerConfig

    m = s * m_mult  # microbatches >= stages keeps shapes sane
    model = TransformerConfig("tiny", n_layers=max(6, s), d_model=64, d_ff=256, n_heads=4)
    system = PathwaysSystem.build(ClusterSpec(islands=((max(2, s), 2),)))
    batch = m * 32
    builder = PipelineBuilder(
        system, model, n_stages=s, n_microbatches=m, cores_per_stage=2,
        batch_tokens=batch, efficiency=0.5,
    )
    result = builder.run(system.client("t"))
    assert result.step_time_us > 0
    assert result.tokens_per_second > 0
    # The graph is exactly arg + 2*S*M + S + result nodes.
    assert builder.build().graph.n_nodes == 2 + 2 * s * m + s
