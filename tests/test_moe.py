"""Tests for the MoE MPMD workload (paper §6.3)."""

from __future__ import annotations

import pytest

from repro.core.system import PathwaysSystem
from repro.hw.cluster import ClusterSpec
from repro.models.moe import MoeLayerBuilder


def make_system(n_hosts=5, dph=4):
    return PathwaysSystem.build(ClusterSpec(islands=((n_hosts, dph),)))


def make_builder(system, n_experts=4, **kw):
    defaults = dict(batch_tokens=8192, d_model=1024, d_expert=4096)
    defaults.update(kw)
    return MoeLayerBuilder(system, n_experts, **defaults)


class TestMoeProgram:
    def test_graph_shape(self):
        system = make_system()
        builder = make_builder(system, n_experts=4)
        program = builder.build()
        # arg + router + 4 experts + combine + result
        assert program.graph.n_nodes == 8
        assert program.n_computations == 6

    def test_sparse_edges_used_for_routing(self):
        from repro.plaque.graph import EdgeKind

        system = make_system()
        program = make_builder(system, n_experts=4).build()
        kinds = [e.kind for e in program.graph.edges()]
        assert kinds.count(EdgeKind.SPARSE) == 4
        assert kinds.count(EdgeKind.GATHER) == 4

    def test_validation(self):
        system = make_system()
        with pytest.raises(ValueError):
            MoeLayerBuilder(system, 0, 1024, 64, 128)

    def test_capacity_factor_inflates_expert_tokens(self):
        system = make_system()
        builder = make_builder(system, n_experts=4)
        # An even split (2,048 tokens) inflated by the 1.25 capacity factor.
        assert builder.tokens_per_expert == 2560


class TestMoeExecution:
    def test_experts_run_concurrently(self):
        """The MPMD point: 4 experts on disjoint groups cost ~1 expert's
        time, not 4."""
        system = make_system()
        builder = make_builder(system, n_experts=4)
        result = builder.run(system.client("moe"))
        expert_us = builder.expert_compute_us()
        # Step must cover one expert but come nowhere near four.
        assert result.step_time_us > expert_us
        assert result.step_time_us < 2.5 * expert_us + 5_000.0

    def test_more_experts_fixed_capacity_scales_out(self):
        """Doubling experts (on more devices) with fixed total tokens
        shrinks per-expert work and the step gets faster."""
        sys4 = make_system()
        r4 = make_builder(sys4, n_experts=4).run(sys4.client("moe"))
        sys8 = make_system(n_hosts=6)
        r8 = make_builder(sys8, n_experts=8).run(sys8.client("moe"))
        assert r8.step_time_us < r4.step_time_us

    def test_multi_step_throughput(self):
        system = make_system()
        builder = make_builder(system)
        result = builder.run(system.client("moe"), n_steps=3)
        assert result.tokens_per_second > 0
        assert result.n_experts == 4
