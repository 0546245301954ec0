"""Tests for the PLAQUE-like sharded dataflow substrate."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.plaque.channels import ShardedChannel
from repro.plaque.graph import EdgeKind, ShardedGraph
from repro.plaque.progress import ProgressTracker
from repro.sim import Simulator
from repro.xla.computation import scalar_allreduce_add

import oracles


class TestShardedGraph:
    def test_compact_representation_invariant(self):
        """The paper's §4.3 requirement: A -> B with N shards each is
        Arg -> A -> B -> Result (4 nodes, 3 edges) for ANY N."""
        sizes = {}
        for n_shards in (1, 16, 4096):
            g = ShardedGraph()
            arg = g.add_arg()
            a = g.add_compute(scalar_allreduce_add(n_shards, 1.0, name="A"))
            b = g.add_compute(scalar_allreduce_add(n_shards, 1.0, name="B"))
            res = g.add_result()
            g.connect(arg, a)
            g.connect(a, b)
            g.connect(b, res)
            sizes[n_shards] = (g.n_nodes, g.n_edges)
        assert sizes[1] == sizes[16] == sizes[4096] == (4, 3)

    def test_runtime_tuples_scale_with_shards(self):
        g = ShardedGraph()
        a = g.add_compute(scalar_allreduce_add(16, 1.0, name="A"))
        b = g.add_compute(scalar_allreduce_add(16, 1.0, name="B"))
        g.connect(a, b)
        assert g.runtime_tuple_count() == 16

    def test_cycle_rejected(self):
        g = ShardedGraph()
        a = g.add_compute(scalar_allreduce_add(1, 1.0, name="A"))
        b = g.add_compute(scalar_allreduce_add(1, 1.0, name="B"))
        g.connect(a, b)
        with pytest.raises(ValueError, match="cycle"):
            g.connect(b, a)
        # The failed edge must not linger.
        assert g.n_edges == 1

    def test_unknown_node_rejected(self):
        g = ShardedGraph()
        a = g.add_compute(scalar_allreduce_add(1, 1.0))
        with pytest.raises(KeyError):
            g.connect(a, 99)

    def test_topological_order(self):
        g = ShardedGraph()
        a = g.add_compute(scalar_allreduce_add(1, 1.0, name="A"))
        b = g.add_compute(scalar_allreduce_add(1, 1.0, name="B"))
        c = g.add_compute(scalar_allreduce_add(1, 1.0, name="C"))
        g.connect(a, c)
        g.connect(b, c)
        order = g.topological_order()
        assert order.index(a) < order.index(c)
        assert order.index(b) < order.index(c)

    def test_topological_order_takes_smallest_ready_id(self):
        """Ties go to the smallest id, even one created after its rival
        became ready: 0 -> 3, 2 -> 1 orders 0, 2, 1, 3."""
        g = ShardedGraph()
        ids = [g.add_compute(scalar_allreduce_add(1, 1.0)) for _ in range(4)]
        g.connect(ids[0], ids[3])
        g.connect(ids[2], ids[1])
        assert g.topological_order() == [0, 2, 1, 3]
        g.connect(ids[3], ids[2])
        assert g.topological_order() == [0, 3, 2, 1]

    def test_validate_requires_inputs(self):
        g = ShardedGraph()
        g.add_compute(scalar_allreduce_add(1, 1.0))
        with pytest.raises(ValueError, match="no in-edges"):
            g.validate()

    def test_edge_kind_inference(self):
        g = ShardedGraph()
        a = g.add_compute(scalar_allreduce_add(4, 1.0, name="A"))
        b = g.add_compute(scalar_allreduce_add(4, 1.0, name="B"))
        c = g.add_compute(scalar_allreduce_add(8, 1.0, name="C"))
        assert g.connect(a, b).kind is EdgeKind.ONE_TO_ONE
        assert g.connect(a, c).kind is EdgeKind.SCATTER

    def test_repeated_edge_is_one_predecessor(self):
        """``f(x, x)``: two edges, one predecessor."""
        g = ShardedGraph()
        a = g.add_compute(scalar_allreduce_add(1, 1.0))
        b = g.add_compute(scalar_allreduce_add(1, 1.0))
        g.connect(a, b, dst_input=0)
        g.connect(a, b, dst_input=1)
        assert g.predecessors(b) == [a]
        assert [e.dst_input for e in g.in_edges(b)] == [0, 1]
        assert g.topological_order() == [a, b]

    @given(
        actions=st.lists(
            st.tuples(
                st.sampled_from(["edge"] * 10 + ["node", "probe"]),
                st.integers(0, 63),
                st.integers(0, 63),
            ),
            max_size=40,
        ),
        first=st.integers(1, 4),
    )
    # A cycle through an older node: 2->0 and 0->1 make 1->2 close it.
    @example(actions=[("edge", 2, 0), ("edge", 0, 1), ("edge", 1, 2)], first=3)
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_queries(self, actions, first):
        """Random ``connect`` sequences over existing nodes (repeats,
        edges to older nodes, self-loops and cycle attempts): the cycle
        check rejects exactly what closes a cycle and leaves no trace,
        and order, predecessors and in-edges match the edge-list scans."""
        g = ShardedGraph()
        fn = scalar_allreduce_add(1, 1.0)
        for _ in range(first):
            g.add_compute(fn)
        pairs: list[tuple[int, int]] = []

        def check_queries():
            assert g.topological_order() == oracles.graph_order(g)
            for nid in range(g.n_nodes):
                assert g.predecessors(nid) == oracles.graph_predecessors(g, nid)
                assert g.in_edges(nid) == oracles.graph_in_edges(g, nid)

        for action, i, j in actions:
            if action == "node":
                g.add_arg()
            elif action == "probe":
                check_queries()
            else:
                src, dst = i % g.n_nodes, j % g.n_nodes
                closes = src == dst or src in oracles.graph_reaches(g.n_nodes, pairs)[dst]
                before = g.edges()
                if closes:
                    with pytest.raises(ValueError, match="cycle"):
                        g.connect(src, dst)
                    assert g.edges() == before
                else:
                    edge = g.connect(src, dst)
                    assert g.edges() == before + [edge]
                    pairs.append((src, dst))
        check_queries()


class TestProgressTracker:
    def test_dense_completion(self, sim):
        tracker = ProgressTracker(sim, n_dst_shards=2, producers=3)
        for p in range(3):
            tracker.deliver(p, 0)
            tracker.deliver(p, 1)
        assert tracker.shard_complete(0).triggered and tracker.shard_complete(1).triggered
        assert tracker.shard_complete(0).value == 3

    def test_sparse_completion_via_punctuation(self, sim):
        """Only producer 1 sends to shard 0; others punctuate — the
        MoE-style sparse exchange (paper §4.3)."""
        tracker = ProgressTracker(sim, n_dst_shards=1, producers=4)
        tracker.deliver(1, 0)
        for p in (0, 2, 3):
            tracker.punctuate(p, 0)
        assert tracker.shard_complete(0).value == 1

    def test_incomplete_without_punctuation(self, sim):
        tracker = ProgressTracker(sim, n_dst_shards=1, producers=2)
        tracker.deliver(0, 0)
        assert not tracker.shard_complete(0).triggered

    def test_punctuate_all(self, sim):
        tracker = ProgressTracker(sim, n_dst_shards=3, producers=2)
        tracker.punctuate_all(0)
        tracker.punctuate_all(1)
        assert all(tracker.shard_complete(s).triggered for s in range(3))

    def test_all_complete_event(self, sim):
        tracker = ProgressTracker(sim, n_dst_shards=2, producers=1)
        combined = sim.all_of([tracker.shard_complete(s) for s in range(2)])
        tracker.deliver(0, 0)
        assert not combined.triggered
        tracker.deliver(0, 1)
        sim.run()
        assert combined.triggered

    def test_out_of_range_rejected(self, sim):
        tracker = ProgressTracker(sim, n_dst_shards=1, producers=1)
        with pytest.raises(IndexError):
            tracker.deliver(5, 0)
        with pytest.raises(IndexError):
            tracker.deliver(0, 5)

    @given(
        n_shards=st.integers(1, 6),
        producers=st.integers(1, 6),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_completion_iff_every_producer_resolved(self, n_shards, producers, data):
        """A shard completes exactly when every producer has delivered
        (final) or punctuated for it — never before."""
        sim = Simulator()
        tracker = ProgressTracker(sim, n_shards, producers)
        resolved = {s: set() for s in range(n_shards)}
        actions = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, producers - 1),
                    st.integers(0, n_shards - 1),
                    st.booleans(),
                ),
                max_size=40,
            )
        )
        for producer, shard, is_delivery in actions:
            if is_delivery:
                tracker.deliver(producer, shard)
            else:
                tracker.punctuate(producer, shard)
            resolved[shard].add(producer)
            for s in range(n_shards):
                assert tracker.shard_complete(s).triggered == (
                    len(resolved[s]) == producers
                )


class TestShardedChannel:
    def test_tagged_delivery(self, sim):
        ch = ShardedChannel(sim, n_dst_shards=2, producers=1)
        ch.put(0, 1, "for-shard-1", final=False)
        ch.put(0, 0, "for-shard-0")
        ch.put(0, 1, "for-shard-1-again")
        assert ch.drain(0) == ["for-shard-0"]
        assert ch.drain(1) == ["for-shard-1", "for-shard-1-again"]
        assert ch.drain(0) == ch.drain(1) == []

    def test_drain(self, sim):
        ch = ShardedChannel(sim, n_dst_shards=1, producers=2)
        ch.put(0, 0, "a", final=False)
        ch.put(0, 0, "b", final=True)
        assert ch.drain(0) == ["a", "b"]

    @given(puts=st.lists(st.tuples(st.integers(0, 2), st.integers()), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_drain_preserves_put_order(self, puts):
        """Each shard drains its payloads in put order, whatever the
        interleaving with other shards."""
        ch = ShardedChannel(Simulator(), n_dst_shards=3, producers=1)
        for shard, payload in puts:
            ch.put(0, shard, payload, final=False)
        for shard in range(3):
            assert ch.drain(shard) == [p for s, p in puts if s == shard]

    def test_completion_follows_progress(self, sim):
        ch = ShardedChannel(sim, n_dst_shards=1, producers=2)
        ch.put(0, 0, "x")
        assert not ch.shard_complete(0).triggered
        ch.punctuate(1)
        assert ch.shard_complete(0).triggered
