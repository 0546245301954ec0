"""Tests for the baseline runtimes (JAX-like, TF1-like, Ray-like)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.multi_controller import MultiControllerJax
from repro.baselines.ray_like import RayLikeRuntime
from repro.baselines.tf1 import TfOneRuntime
from repro.config import DEFAULT_CONFIG
from repro.hw.cluster import ClusterSpec, make_cluster
from repro.sim import Simulator
from repro.xla.compiler import fuse
from repro.xla.computation import scalar_allreduce_add


def make(sim, n_hosts=2, dph=4):
    return make_cluster(sim, ClusterSpec(islands=((n_hosts, dph),)), config=DEFAULT_CONFIG)


def measure(sim, proc_gen, per_total):
    proc = sim.process(proc_gen)
    start = sim.now
    sim.run_until_triggered(proc)
    return per_total / ((sim.now - start) / 1e6)


class TestMultiControllerJax:
    def test_every_step_runs_one_kernel(self, sim):
        cluster = make(sim)
        jax = MultiControllerJax(sim, cluster, DEFAULT_CONFIG)
        fn = scalar_allreduce_add(8, 1.0)
        proc = sim.process(jax.run_steps(fn, 5))
        sim.run_until_triggered(proc)
        # The representative device stands in for the whole island.
        assert jax.group.devices == [cluster.islands[0].devices[0]]
        assert jax.group.devices[0].kernels_run == 5

    def test_dispatch_bound_for_tiny_computations(self, sim):
        cluster = make(sim)
        jax = MultiControllerJax(sim, cluster, DEFAULT_CONFIG)
        fn = scalar_allreduce_add(8, 0.5)
        tput = measure(sim, jax.run_steps(fn, 50), 50)
        # Bounded by Python dispatch (~120us+) rather than device time.
        assert tput < 1e6 / DEFAULT_CONFIG.python_dispatch_us

    def test_device_bound_for_large_computations(self, sim):
        cluster = make(sim)
        jax = MultiControllerJax(sim, cluster, DEFAULT_CONFIG)
        fn = scalar_allreduce_add(8, 5000.0)
        tput = measure(sim, jax.run_steps(fn, 20), 20)
        assert tput == pytest.approx(1e6 / jax.device_time_us(fn), rel=0.05)

    def test_straggler_grows_with_hosts(self):
        def mean_overhead(n_hosts):
            sim = Simulator()
            cluster = make(sim, n_hosts=n_hosts)
            jax = MultiControllerJax(sim, cluster, DEFAULT_CONFIG)
            return np.mean([jax.dispatch_overhead_us() for _ in range(300)])

        assert mean_overhead(64) > mean_overhead(2)

    def test_fused_amortizes_dispatch(self, sim):
        cluster = make(sim)
        config = DEFAULT_CONFIG
        jax = MultiControllerJax(sim, cluster, config)
        unit = scalar_allreduce_add(8, 0.5)
        fused = fuse([unit] * 128)
        t_fused = measure(sim, jax.run_steps(fused, 5), 5 * 128)
        sim2 = Simulator()
        jax2 = MultiControllerJax(sim2, make(sim2), config)
        t_unit = measure(sim2, jax2.run_steps(unit, 50), 50)
        assert t_fused > 3 * t_unit

    def test_simulation_matches_closed_form(self, sim):
        cluster = make(sim, n_hosts=4)
        jax = MultiControllerJax(sim, cluster, DEFAULT_CONFIG)
        fn = scalar_allreduce_add(16, 2000.0)
        measured = measure(sim, jax.run_steps(fn, 30), 30)
        assert measured == pytest.approx(jax.expected_throughput(fn), rel=0.1)


class TestTfOne:
    def test_opbyop_pays_graph_per_step(self, sim):
        cluster = make(sim)
        tf = TfOneRuntime(sim, cluster, DEFAULT_CONFIG)
        fn = scalar_allreduce_add(8, 0.5)
        t_op = measure(sim, tf.run_op_by_op(fn, 10), 10)
        sim2 = Simulator()
        tf2 = TfOneRuntime(sim2, make(sim2), DEFAULT_CONFIG)
        t_chain = measure(sim2, tf2.run_chained(fn, 128, 2), 256)
        assert t_chain > 2 * t_op

    def test_graph_cost_scales_with_shards(self, sim):
        small = TfOneRuntime(sim, make(sim, n_hosts=2), DEFAULT_CONFIG)
        sim2 = Simulator()
        big = TfOneRuntime(sim2, make(sim2, n_hosts=64), DEFAULT_CONFIG)
        # 32x the shards: the shard-proportional part dominates the fixed
        # session overhead well before 64 hosts.
        assert big.graph_serialization_us(1) > 5 * small.graph_serialization_us(1)

    def test_barrier_scales_with_hosts(self, sim):
        small = TfOneRuntime(sim, make(sim, n_hosts=2), DEFAULT_CONFIG)
        sim2 = Simulator()
        big = TfOneRuntime(sim2, make(sim2, n_hosts=128), DEFAULT_CONFIG)
        assert big.barrier_us() > 10 * small.barrier_us()

    def test_simulation_matches_closed_form(self, sim):
        cluster = make(sim)
        tf = TfOneRuntime(sim, cluster, DEFAULT_CONFIG)
        fn = scalar_allreduce_add(8, 0.5)
        measured = measure(sim, tf.run_op_by_op(fn, 20), 20)
        assert measured == pytest.approx(tf.expected_throughput(fn), rel=0.1)


class TestRayLike:
    def test_variant_ordering(self, sim):
        """Fused > Chained > OpByOp, the Figure 5 Ray ordering."""
        fn = scalar_allreduce_add(2, 0.5)
        results = {}
        for variant in ("opbyop", "chained", "fused"):
            s = Simulator()
            ray = RayLikeRuntime(s, make(s, n_hosts=2, dph=1), DEFAULT_CONFIG)
            if variant == "opbyop":
                results[variant] = measure(s, ray.run_op_by_op(fn, 10), 10)
            elif variant == "chained":
                results[variant] = measure(s, ray.run_chained(fn, 64, 2), 128)
            else:
                results[variant] = measure(s, ray.run_fused(fn, 64, 2), 128)
        assert results["fused"] > results["chained"] > results["opbyop"]

    def test_store_put_charged_per_result(self, sim):
        ray = RayLikeRuntime(sim, make(sim, dph=1), DEFAULT_CONFIG)
        assert ray.store_put_us(0) == DEFAULT_CONFIG.ray_object_store_put_us
        assert ray.store_put_us(1 << 30) > ray.store_put_us(0)

    def test_simulation_matches_closed_form(self, sim):
        ray = RayLikeRuntime(sim, make(sim, dph=1), DEFAULT_CONFIG)
        fn = scalar_allreduce_add(8, 0.5)
        measured = measure(sim, ray.run_op_by_op(fn, 20), 20)
        assert measured == pytest.approx(
            ray.expected_throughput(fn, "opbyop"), rel=0.1
        )

    def test_unknown_variant_rejected(self, sim):
        ray = RayLikeRuntime(sim, make(sim, dph=1), DEFAULT_CONFIG)
        with pytest.raises(ValueError):
            ray.expected_throughput(scalar_allreduce_add(2, 1.0), "bogus")
