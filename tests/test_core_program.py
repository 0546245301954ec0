"""Tests for program tracing, the IR, and lowering."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_CONFIG
from repro.core.ir import TransferRoute, lower
from repro.core.program import ProgramTracer, _flatten, unflatten
from repro.xla.computation import CompiledFunction
from repro.xla.shapes import TensorSpec


def _fn(name, n_shards=2, spec=TensorSpec((2,))):
    return CompiledFunction(
        name, (spec,), (spec,),
        fn=lambda x: (x * 2,), n_shards=n_shards, duration_us=10.0,
    )


class TestTracer:
    def test_records_nodes_and_edges(self, small_system):
        devs = small_system.make_virtual_device_set().add_slice(tpu_devices=2)
        tracer = ProgramTracer("p")
        with tracer:
            arg = tracer.add_arg(TensorSpec((2,)))
            (out,) = tracer.record_call(_fn("a"), devs, [arg])
            (out2,) = tracer.record_call(_fn("b"), devs, [out])
        program = tracer.finish((out2,))
        assert program.n_computations == 2
        assert program.graph.n_nodes == 4  # arg + 2 compute + result

    def test_nested_tracing_rejected(self):
        t1 = ProgramTracer()
        with t1:
            with pytest.raises(RuntimeError, match="nested"):
                ProgramTracer().__enter__()

    def test_spec_mismatch_rejected(self, small_system):
        devs = small_system.make_virtual_device_set().add_slice(tpu_devices=2)
        tracer = ProgramTracer()
        with tracer:
            arg = tracer.add_arg(TensorSpec((3,)))
            with pytest.raises(TypeError, match="spec"):
                tracer.record_call(_fn("a"), devs, [arg])

    def test_non_traced_arg_rejected(self, small_system):
        devs = small_system.make_virtual_device_set().add_slice(tpu_devices=2)
        tracer = ProgramTracer()
        with tracer:
            with pytest.raises(TypeError):
                tracer.record_call(_fn("a"), devs, [np.zeros(2)])

    def test_non_traced_return_rejected(self, small_system):
        tracer = ProgramTracer()
        with tracer:
            tracer.add_arg(TensorSpec((2,)))
        with pytest.raises(TypeError, match="non-traced"):
            tracer.finish((np.zeros(2),))

    def test_arity_mismatch_rejected(self, small_system):
        devs = small_system.make_virtual_device_set().add_slice(tpu_devices=2)
        tracer = ProgramTracer()
        with tracer:
            arg = tracer.add_arg(TensorSpec((2,)))
            with pytest.raises(TypeError, match="traced call got"):
                tracer.record_call(_fn("a"), devs, [arg, arg])


    def test_finish_feeds_result_node_in_return_order(self, small_system):
        devs = small_system.make_virtual_device_set().add_slice(tpu_devices=2)
        tracer = ProgramTracer()
        with tracer:
            arg = tracer.add_arg(TensorSpec((2,)))
            (x,) = tracer.record_call(_fn("a"), devs, [arg])
            (y,) = tracer.record_call(_fn("b"), devs, [x])
        program = tracer.finish((y, [x]))
        graph = program.graph
        result = graph.n_nodes - 1
        assert graph.node(result).kind == "result"
        assert program.results == [(y.node_id, 0), (x.node_id, 0)]
        assert [e.src for e in graph.in_edges(result)] == [y.node_id, x.node_id]
        assert unflatten(program.result_treedef, ["y", "x"]) == ("y", ["x"])

    def test_close_validates(self):
        from repro.core.program import PathwaysProgram
        from repro.plaque.graph import ShardedGraph

        g = ShardedGraph()
        c = g.add_compute(_fn("orphan"))
        with pytest.raises(ValueError, match="no in-edges"):
            PathwaysProgram.close(g, {}, [], [(c, 0)])


class TestFlatten:
    def test_roundtrip_nested(self):
        obj = (1, (2, 3), [4, (5,)])
        flat, treedef = _flatten(obj)
        assert flat == [1, 2, 3, 4, 5]
        assert unflatten(treedef, flat) == (1, (2, 3), [4, (5,)])

    def test_leaf(self):
        flat, treedef = _flatten("x")
        assert flat == ["x"] and treedef is None
        assert unflatten(treedef, flat) == "x"

    @given(
        st.recursive(
            st.integers(),
            lambda children: st.tuples(children, children) | st.lists(children, max_size=3),
            max_leaves=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, obj):
        flat, treedef = _flatten(obj)
        rebuilt = unflatten(treedef, flat)

        def normalize(x):
            if isinstance(x, list):
                return tuple(normalize(i) for i in x)
            if isinstance(x, tuple):
                return tuple(normalize(i) for i in x)
            return x

        # Lists come back as lists, tuples as tuples: exact match.
        assert rebuilt == obj


class TestLowering:
    def _trace_two_groups(self, system, cross_island=False):
        devs_a = system.make_virtual_device_set().add_slice(tpu_devices=2, island_id=0)
        island_b = 1 if cross_island else 0
        devs_b = system.make_virtual_device_set().add_slice(
            tpu_devices=2, island_id=island_b
        )
        tracer = ProgramTracer()
        with tracer:
            arg = tracer.add_arg(TensorSpec((2,)))
            (x,) = tracer.record_call(_fn("a"), devs_a, [arg])
            (y,) = tracer.record_call(_fn("b"), devs_b, [x])
        return tracer.finish((y,))

    def test_local_route_within_group(self, small_system):
        devs = small_system.make_virtual_device_set().add_slice(tpu_devices=2)
        tracer = ProgramTracer()
        with tracer:
            arg = tracer.add_arg(TensorSpec((2,)))
            (x,) = tracer.record_call(_fn("a"), devs, [arg])
            (y,) = tracer.record_call(_fn("b"), devs, [x])
        low = lower(tracer.finish((y,)), DEFAULT_CONFIG)
        moves = low.nodes[1].incoming
        assert len(moves) == 1 and moves[0].route is TransferRoute.LOCAL
        assert moves[0].nbytes == 0

    def test_ici_route_across_groups_same_island(self, small_system):
        program = self._trace_two_groups(small_system)
        low = lower(program, DEFAULT_CONFIG)
        assert low.nodes[1].incoming[0].route is TransferRoute.ICI
        assert low.nodes[1].incoming[0].nbytes == 8  # f32[2]

    def test_dcn_route_across_islands(self, two_island_system):
        program = self._trace_two_groups(two_island_system, cross_island=True)
        low = lower(program, DEFAULT_CONFIG)
        assert low.nodes[1].incoming[0].route is TransferRoute.DCN
        assert low.islands == [0, 1]

    def test_topological_node_order(self, small_system):
        program = self._trace_two_groups(small_system)
        low = lower(program, DEFAULT_CONFIG)
        labels = [n.label for n in low.nodes]
        assert labels == ["a", "b"]
        assert low.nodes[1].predecessors == [low.nodes[0].node_id]

    def test_transfers_follow_in_edge_order(self, small_system):
        """A node's transfers are its in-edges in connect order (here
        the newer producer first), not sorted by producer."""
        devs = small_system.make_virtual_device_set().add_slice(tpu_devices=2)
        other = small_system.make_virtual_device_set().add_slice(tpu_devices=2)
        spec = TensorSpec((2,))
        two_in = CompiledFunction(
            "c", (spec, spec), (spec,), fn=lambda x, y: (x + y,), n_shards=2,
            duration_us=10.0,
        )
        tracer = ProgramTracer()
        with tracer:
            arg = tracer.add_arg(spec)
            (x,) = tracer.record_call(_fn("a"), devs, [arg])
            (y,) = tracer.record_call(_fn("b"), other, [arg])
            (z,) = tracer.record_call(two_in, devs, [y, x])
        low = lower(tracer.finish((z,)), DEFAULT_CONFIG)
        moves = low.node(z.node_id).incoming
        assert [(m.src_node, m.dst_input) for m in moves] == [
            (y.node_id, 0), (x.node_id, 1)
        ]
        assert [m.route for m in moves] == [TransferRoute.ICI, TransferRoute.LOCAL]
        assert low.node(z.node_id).predecessors == [x.node_id, y.node_id]

    def test_missing_placement_rejected(self):
        tracer = ProgramTracer()
        with tracer:
            tracer.add_arg(TensorSpec((2,)))
            # record_call requires a slice; fake a program with no placement
        tracer.finish(())
        # Build an artificial compute node without placement via graph API.
        from repro.plaque.graph import ShardedGraph

        g = ShardedGraph()
        a = g.add_arg()
        c = g.add_compute(_fn("x"))
        g.connect(a, c)
        from repro.core.program import PathwaysProgram

        bad = PathwaysProgram(
            name="bad", graph=g, placements={}, arg_nodes=[a],
            results=[],
        )
        with pytest.raises(ValueError, match="no placement"):
            lower(bad, DEFAULT_CONFIG)

    def test_hosts_counted_once_per_group(self, small_system):
        devs = small_system.make_virtual_device_set().add_slice(tpu_devices=4)
        tracer = ProgramTracer()
        with tracer:
            arg = tracer.add_arg(TensorSpec((2,)))
            fn4 = CompiledFunction(
                "a", (TensorSpec((2,)),), (TensorSpec((2,)),),
                fn=lambda x: (x,), n_shards=4, duration_us=1.0,
            )
            fn4b = CompiledFunction(
                "b", (TensorSpec((2,)),), (TensorSpec((2,)),),
                fn=lambda x: (x,), n_shards=4, duration_us=1.0,
            )
            (x,) = tracer.record_call(fn4, devs, [arg])
            (y,) = tracer.record_call(fn4b, devs, [x])
        low = lower(tracer.finish((y,)), DEFAULT_CONFIG)
        # Both nodes share one group spanning one host (4 devices/host).
        assert low.total_hosts_logical == 1
