"""Tests for the Transformer workload models."""

from __future__ import annotations

import dataclasses
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_CONFIG
from repro.core.system import PathwaysSystem
from repro.hw.cluster import ClusterSpec, config_c
from repro.models.data_parallel import DataParallelTrainer
from repro.models.pipeline import PipelineBuilder
from repro.models.spmd import SpmdTrainer, spmd_collective_bytes
from repro.models.t5 import T5_CONFIGS
from repro.models.transformer import (
    DECODER_3B,
    DECODER_64B,
    DECODER_136B,
    TransformerConfig,
)

import oracles

P3B = 3_000_000_000

#: Every control cost a program pays and a direct-kernel step does not:
#: the controller pass, the subgraph message, scheduler decisions,
#: executor prep and launch, PCIe descriptor writes.
ZERO_CONTROL = dataclasses.replace(
    DEFAULT_CONFIG,
    coordinator_base_us=0.0,
    coordinator_work_per_host_us=0.0,
    coordinator_node_per_host_us=0.0,
    cpp_dispatch_us=0.0,
    scheduler_decision_us=0.0,
    executor_prep_us=0.0,
    pcie_latency_us=0.0,
    host_launch_work_us=0.0,
    dcn_latency_us=0.0,
)

#: Examples per run of the differential data-parallel fuzz (CI's long
#: budget sets ``REPRO_DP_FUZZ_EXAMPLES``).
DP_FUZZ_EXAMPLES = int(os.environ.get("REPRO_DP_FUZZ_EXAMPLES", "0")) or 100


class TestTransformerConfig:
    def test_paper_3b_config_lands_at_3b(self):
        assert DECODER_3B.n_layers == 62
        assert DECODER_3B.d_model == 2048
        assert DECODER_3B.d_ff == 8192
        assert DECODER_3B.params == pytest.approx(3.1e9, rel=0.05)

    def test_large_models_land_near_labels(self):
        assert DECODER_64B.params == pytest.approx(64e9, rel=0.05)
        assert DECODER_136B.params == pytest.approx(136e9, rel=0.05)

    def test_validation(self):
        bad = TransformerConfig("bad", 2, 100, 400, 3)
        with pytest.raises(ValueError, match="n_heads"):
            bad.validate()
        with pytest.raises(ValueError):
            TransformerConfig("x", 0, 8, 8, 1).validate()

    def test_encdec_has_more_layers(self):
        enc = TransformerConfig("e", 12, 768, 3072, 12, kind="encdec")
        dec = TransformerConfig("d", 12, 768, 3072, 12, kind="decoder")
        assert enc.n_total_layers == 2 * dec.n_total_layers
        assert enc.params > dec.params

    def test_inference_step_cost_model(self):
        """The serving cost model: 2·N per token, linear in the batched
        token count."""
        one = DECODER_3B.infer_step_time_us(32, 4, 61.25e6, 0.5)
        assert one == pytest.approx(
            2.0 * DECODER_3B.params * 32 / (4 * 61.25e6 * 0.5)
        )
        assert DECODER_3B.infer_step_time_us(64, 4, 61.25e6, 0.5) == pytest.approx(
            2 * one
        )
        with pytest.raises(ValueError, match="device"):
            DECODER_3B.infer_step_time_us(32, 0, 61.25e6, 0.5)


class TestSpmd:
    def test_collective_bytes_scale_down_with_devices(self):
        b32 = spmd_collective_bytes(DECODER_3B, 1 << 20, 32)
        b128 = spmd_collective_bytes(DECODER_3B, 1 << 20, 128)
        assert b128 < b32

    def test_validation(self):
        with pytest.raises(ValueError):
            SpmdTrainer(DECODER_3B, 0, 1024, 0.3)
        with pytest.raises(ValueError):
            SpmdTrainer(DECODER_3B, 8, 1024, 1.5)

    def test_step_computation_is_sharded_gang(self):
        tr = SpmdTrainer(DECODER_3B, 128, 1 << 21, 0.365, nominal_params=P3B)
        fn = tr.step_computation()
        assert fn.n_shards == 128
        assert fn.collective is not None

    def test_throughput_matches_analytic(self):
        system = PathwaysSystem.build(ClusterSpec(islands=((16, 8),)))
        tr = SpmdTrainer(DECODER_3B, 128, 1 << 21, 0.365, nominal_params=P3B)
        tput = tr.run_on_pathways(system, system.client("t"), n_steps=2)
        ici = system.cluster.islands[0].ici
        expected = tr.tokens_per_second(tr.expected_step_us(DEFAULT_CONFIG, ici))
        assert tput == pytest.approx(expected, rel=0.05)

    def test_table1_jax_equals_pathways(self):
        """Table 1's claim: identical throughput at realistic step sizes."""
        from repro.baselines.multi_controller import MultiControllerJax
        from repro.hw.cluster import make_cluster
        from repro.sim import Simulator

        entry = T5_CONFIGS[0]  # T5-Base keeps the test fast
        tr = SpmdTrainer(entry.config, entry.tpu_cores, entry.batch_tokens,
                         entry.efficiency, nominal_params=entry.nominal_params)
        fn = tr.step_computation()

        sim = Simulator()
        cluster = make_cluster(sim, ClusterSpec(islands=((entry.tpu_cores // 4, 4),)))
        jax = MultiControllerJax(sim, cluster, DEFAULT_CONFIG)
        proc = sim.process(jax.run_steps(fn, 3))
        t0 = sim.now
        sim.run_until_triggered(proc)
        jax_tput = entry.batch_tokens * 3 / ((sim.now - t0) / 1e6)

        system = PathwaysSystem.build(ClusterSpec(islands=((entry.tpu_cores // 4, 4),)))
        pw_tput = tr.run_on_pathways(system, system.client("t"), 3)
        assert pw_tput == pytest.approx(jax_tput, rel=0.02)


class TestPipeline:
    def _system(self):
        return PathwaysSystem.build(ClusterSpec(islands=((16, 8),)))

    def test_build_graph_size(self):
        system = self._system()
        pb = PipelineBuilder(system, DECODER_3B, 4, 8, 8, 1 << 20, 0.365,
                             nominal_params=P3B)
        program = pb.build()
        # arg + S*M fwd + S*M bwd + S apply + result
        assert program.graph.n_nodes == 1 + 4 * 8 * 2 + 4 + 1

    def test_invalid_args(self):
        system = self._system()
        with pytest.raises(ValueError):
            PipelineBuilder(system, DECODER_3B, 0, 8, 8, 1 << 20, 0.3)
        with pytest.raises(ValueError):
            PipelineBuilder(system, DECODER_3B, 4, 7, 8, 1 << 20, 0.3)
        with pytest.raises(ValueError):
            PipelineBuilder(system, DECODER_3B, 4, 8, 8, 1 << 20, 0.3,
                            stage_islands=[0])

    def test_bubble_shrinks_with_microbatches(self):
        """More microbatches -> smaller pipeline bubble -> higher
        throughput at fixed stage count (GPipe)."""
        results = {}
        for M in (4, 16):
            system = self._system()
            pb = PipelineBuilder(system, DECODER_3B, 4, M, 8, 1 << 20, 0.365,
                                 nominal_params=P3B)
            results[M] = pb.run(system.client("t")).tokens_per_second
        assert results[16] > results[4]

    def test_measured_bubble_close_to_ideal(self):
        system = self._system()
        M, S = 16, 4
        pb = PipelineBuilder(system, DECODER_3B, S, M, 8, 1 << 20, 0.365,
                             nominal_params=P3B)
        res = pb.run(system.client("t"))
        # Measured step >= ideal compute/(1-bubble); within 25% of it.
        total_cores = S * 8
        compute_us = 6.0 * P3B * (1 << 20) / total_cores / (
            DEFAULT_CONFIG.tpu_flops_per_us * 0.365
        )
        ideal_step = compute_us / (1 - res.bubble_fraction_ideal)
        assert res.step_time_us >= compute_us
        assert res.step_time_us == pytest.approx(ideal_step, rel=0.25)

    def test_cross_island_pipeline_matches_single_island(self):
        """Figure 10: 4 islands of 32 cores == 1 island of 128 cores."""
        batch = 1 << 21
        sys_c = PathwaysSystem.build(config_c())
        pb_c = PipelineBuilder(sys_c, DECODER_3B, 16, 32, 8, batch, 0.365,
                               stage_islands=[s // 4 for s in range(16)],
                               nominal_params=P3B)
        r_c = pb_c.run(sys_c.client("t"))
        sys_b = PathwaysSystem.build(ClusterSpec(islands=((16, 8),)))
        pb_b = PipelineBuilder(sys_b, DECODER_3B, 16, 32, 8, batch, 0.365,
                               nominal_params=P3B)
        r_b = pb_b.run(sys_b.client("t"))
        assert r_c.tokens_per_second == pytest.approx(
            r_b.tokens_per_second, rel=0.03
        )
        assert sys_c.cluster.transport.bytes_sent > 0  # really crossed islands


@st.composite
def _dp_configs(draw):
    """(islands, cores per island, chunks, steps, parameters).  Half the
    draws make the parameter count a multiple of islands x chunks x
    cores, so the chunks usually split into whole BF16 shards; the rest
    add an offset that usually needs padding."""
    k = draw(st.integers(1, 4))
    cores = 8 * draw(st.integers(1, 8))
    n_chunks = draw(st.integers(1, 8))
    n_steps = draw(st.integers(1, 3))
    # At most 2e9 parameters: every chunk of a step fits one core's HBM.
    unit = k * n_chunks * cores
    params = unit * draw(st.integers(1, 2_000_000_000 // unit - 1))
    params += draw(st.one_of(st.just(0), st.integers(1, unit - 1)))
    return k, cores, n_chunks, n_steps, params


class TestDataParallel:
    def _system(self, k=2):
        return PathwaysSystem.build(
            ClusterSpec(islands=tuple((8, 8) for _ in range(k)))
        )

    def test_grad_exchange_matches_ring_volume(self):
        system = self._system()
        dp = DataParallelTrainer(system, DECODER_64B, 64, 1 << 17, 0.35,
                                 nominal_params=64_000_000_000)
        # 2 islands: (k-1)/k * 2 * 4B/param = 4 bytes/param.
        assert dp.grad_exchange_bytes(2) == pytest.approx(4 * 64e9, rel=0.01)
        res = dp.run(n_steps=2)
        # The program's DCN edges carry the ring volume ...
        assert res.dcn_bytes_per_island == dp.grad_exchange_bytes(2)
        # ... and the transport moved all of it, each logical host its share.
        hosts = next(iter(dp.build().placements.values())).group.n_hosts_logical
        assert system.transport.bytes_sent * hosts == res.dcn_bytes_per_island * 2 * 2

    def test_single_island_no_exchange(self):
        system = self._system(k=1)
        dp = DataParallelTrainer(system, DECODER_3B, 64, 1 << 17, 0.35,
                                 nominal_params=P3B)
        assert dp.grad_exchange_bytes(1) == 0
        assert dp.run(n_steps=1).dcn_bytes_per_island == 0

    def test_two_island_efficiency_high(self):
        """Figure 12: two islands reach >=95% of the single-island rate
        because DCN gradient transfer overlaps backward compute."""
        system = self._system()
        dp = DataParallelTrainer(system, DECODER_64B, 64, 1 << 17, 0.35,
                                 n_chunks=8, nominal_params=64_000_000_000)
        res = dp.run(n_steps=2)
        efficiency = dp.single_island_equivalent_step_us() / res.step_time_us
        assert efficiency >= 0.90

    def test_chunked_overlap_beats_unchunked(self):
        r = {}
        for chunks in (1, 8):
            system = self._system()
            dp = DataParallelTrainer(system, DECODER_64B, 64, 1 << 17, 0.35,
                                     n_chunks=chunks,
                                     nominal_params=64_000_000_000)
            r[chunks] = dp.run(n_steps=1).step_time_us
        assert r[8] <= r[1]

    def test_invalid_chunks(self):
        with pytest.raises(ValueError):
            DataParallelTrainer(self._system(), DECODER_3B, 8, 1024, 0.3, n_chunks=0)

    @staticmethod
    def _padding_bound(cores, k, n_chunks, n_steps):
        """Transport bytes and step time a padded gradient chunk may add
        over the exact one: under two BF16 elements per shard per chunk."""
        extra_bytes = n_chunks * 2 * cores
        return k * n_steps * extra_bytes, extra_bytes / ZERO_CONTROL.dcn_bytes_per_us

    def _both(self, k, cores, n_chunks, n_steps, params):
        """Run one configuration through the program trainer and the
        direct-kernel oracle, each on its own zero-control-cost system."""
        out = []
        for cls in (DataParallelTrainer, oracles.DirectDataParallelTrainer):
            system = PathwaysSystem.build(
                ClusterSpec(islands=((8, 8),) * k), config=ZERO_CONTROL
            )
            dp = cls(system, DECODER_3B, cores, 1 << 14, 0.35,
                     n_chunks=n_chunks, nominal_params=params)
            res = dp.run(n_steps=n_steps)
            transport = system.transport
            out.append((dp, res, transport.messages_sent, transport.bytes_sent))
        return out

    @settings(max_examples=DP_FUZZ_EXAMPLES, deadline=None)
    @given(config=_dp_configs())
    def test_program_step_matches_direct_kernels(self, config):
        """With every control cost at zero, the one-program step takes
        the direct-kernel step's time and sends its messages and bytes;
        a chunk padded up to whole shards adds only its padding."""
        k, cores, n_chunks, n_steps, params = config
        (dp, new, new_msgs, new_bytes), (_, old, old_msgs, old_bytes) = self._both(
            k, cores, n_chunks, n_steps, params
        )
        assert new_msgs == old_msgs
        exact = dp.grad_exchange_bytes(k) // n_chunks
        if new.dcn_bytes_per_island == exact * n_chunks:
            assert new.step_time_us == old.step_time_us
            assert new_bytes == old_bytes
        else:
            max_bytes, max_us = self._padding_bound(cores, k, n_chunks, n_steps)
            assert 0 <= new_bytes - old_bytes <= max_bytes
            assert old.step_time_us <= new.step_time_us <= old.step_time_us + max_us

    def test_padded_gradient_chunk_runs(self):
        """A gradient chunk that does not split into whole BF16 shards is
        padded; the step still runs and moves at most the padding more."""
        k, cores, n_chunks, n_steps = 2, 24, 3, 2
        (dp, new, new_msgs, new_bytes), (_, old, old_msgs, old_bytes) = self._both(
            k, cores, n_chunks, n_steps, 1_000_003
        )
        exact = dp.grad_exchange_bytes(k) // n_chunks
        assert 0 < new.dcn_bytes_per_island // n_chunks - exact < 2 * cores
        assert new_msgs == old_msgs == k * n_chunks * n_steps
        max_bytes, max_us = self._padding_bound(cores, k, n_chunks, n_steps)
        assert 0 < new_bytes - old_bytes <= max_bytes
        assert old.step_time_us <= new.step_time_us <= old.step_time_us + max_us


class TestT5Table:
    def test_four_rows(self):
        assert len(T5_CONFIGS) == 4
        assert [e.name for e in T5_CONFIGS] == ["T5-Base", "T5-Large", "T5-3B", "T5-11B"]

    def test_paper_ordering_preserved(self):
        by_name = {e.name: e for e in T5_CONFIGS}
        assert by_name["T5-Base"].paper_tokens_per_s > by_name["T5-Large"].paper_tokens_per_s
        assert by_name["T5-3B"].paper_tokens_per_s > by_name["T5-11B"].paper_tokens_per_s

    def test_efficiencies_physical(self):
        assert all(0 < e.efficiency < 1 for e in T5_CONFIGS)
