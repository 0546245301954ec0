"""Integration tests: the paper's headline result *shapes*, scaled down.

Each test asserts the qualitative relationship a figure or table
demonstrates — who wins, how curves move with scale — using small, fast
configurations.  The full-scale sweeps live in benchmarks/.
"""

from __future__ import annotations

import pytest

from repro.core.system import DispatchMode
from repro.workloads.microbench import (
    run_jax,
    run_pathways,
    run_pathways_pipeline_chain,
    run_ray,
    run_tf,
)
from repro.workloads.multitenant import (
    run_jax_multitenant,
    run_pathways_multitenant,
)


class TestFigure5Shapes:
    """Dispatch-overhead ordering across systems."""

    def test_pw_fused_matches_jax_fused_at_small_scale(self):
        jax = run_jax("fused", 4, n_calls=15).computations_per_second
        pw = run_pathways("fused", 4, n_calls=8).computations_per_second
        assert pw == pytest.approx(jax, rel=0.25)

    def test_pw_chained_beats_jax_opbyop_at_small_scale(self):
        jax = run_jax("opbyop", 4, n_calls=30).computations_per_second
        pw = run_pathways("chained", 4, n_calls=4).computations_per_second
        assert pw > 2 * jax

    def test_jax_opbyop_beats_pw_opbyop(self):
        jax = run_jax("opbyop", 4, n_calls=30).computations_per_second
        pw = run_pathways("opbyop", 4, n_calls=10).computations_per_second
        assert jax > 3 * pw

    def test_single_controller_overhead_grows_with_hosts(self):
        pw2 = run_pathways("opbyop", 2, n_calls=8).computations_per_second
        pw64 = run_pathways("opbyop", 64, n_calls=8).computations_per_second
        assert pw2 > 2 * pw64

    def test_tf_declines_steeply_with_hosts(self):
        tf2 = run_tf("chained", 2).computations_per_second
        tf64 = run_tf("chained", 64).computations_per_second
        assert tf2 > 5 * tf64

    def test_tf_opbyop_is_worst_at_scale(self):
        hosts = 64
        tf_o = run_tf("opbyop", hosts).computations_per_second
        others = [
            run_tf("chained", hosts).computations_per_second,
            run_ray("opbyop", hosts).computations_per_second,
            run_pathways("opbyop", hosts, n_calls=8).computations_per_second,
        ]
        assert all(tf_o < o for o in others)

    def test_ray_order_of_magnitude_below_pw_chained(self):
        ray = run_ray("fused", 4).computations_per_second
        pw = run_pathways("chained", 4, n_calls=4).computations_per_second
        assert 2 * ray < pw

    def test_variant_ordering_within_pathways(self):
        h = 4
        f = run_pathways("fused", h, n_calls=8).computations_per_second
        c = run_pathways("chained", h, n_calls=4).computations_per_second
        o = run_pathways("opbyop", h, n_calls=10).computations_per_second
        assert f > c > o


class TestFigure6Shapes:
    """The PW/JAX parity point moves right as hosts grow."""

    @staticmethod
    def _ratio(hosts, dph, compute_us):
        from repro.core.system import PathwaysSystem
        from repro.workloads.microbench import _spec
        from repro.xla.computation import scalar_allreduce_add

        jax = run_jax(
            "opbyop", hosts, devices_per_host=dph,
            compute_time_us=compute_us, n_calls=25,
        ).computations_per_second
        system = PathwaysSystem.build(_spec(hosts, dph))
        client = system.client("bench")
        n = hosts * dph
        devs = system.make_virtual_device_set().add_slice(tpu_devices=n)
        step = client.wrap(scalar_allreduce_add(n, compute_us), devices=devs)
        drv = system.sim.process(
            client.drive_pipelined(step.solo_program, (0.0,), n_iters=20)
        )
        t0 = system.sim.now
        system.sim.run_until_triggered(drv)
        pw = 20 / ((system.sim.now - t0) / 1e6)
        return pw / jax

    def test_parity_at_large_computation_small_cluster(self):
        assert self._ratio(4, 4, 5_000.0) > 0.9

    def test_no_parity_at_small_computation(self):
        assert self._ratio(4, 4, 100.0) < 0.5

    def test_crossover_moves_right_with_hosts(self):
        """At 2.5ms, a 4-host system has converged but a 64-host one has
        not (the 2.3ms -> 35ms shift of Figure 6)."""
        assert self._ratio(4, 4, 2_500.0) > 0.85
        assert self._ratio(64, 4, 2_500.0) < 0.5


class TestFigure7Shapes:
    def test_parallel_beats_sequential_for_multi_stage(self):
        p = run_pathways_pipeline_chain(8, n_calls=6)
        s = run_pathways_pipeline_chain(8, n_calls=3, mode=DispatchMode.SEQUENTIAL)
        assert p > 3 * s

    def test_modes_converge_at_one_stage(self):
        p = run_pathways_pipeline_chain(1, n_calls=6)
        s = run_pathways_pipeline_chain(1, n_calls=6, mode=DispatchMode.SEQUENTIAL)
        assert p == pytest.approx(s, rel=0.25)

    def test_parallel_amortizes_client_overhead(self):
        assert run_pathways_pipeline_chain(16, n_calls=6) > 3 * run_pathways_pipeline_chain(1, n_calls=6)

    def test_sequential_flat_in_stage_count(self):
        s1 = run_pathways_pipeline_chain(1, n_calls=4, mode=DispatchMode.SEQUENTIAL)
        s32 = run_pathways_pipeline_chain(32, n_calls=2, mode=DispatchMode.SEQUENTIAL)
        assert s32 == pytest.approx(s1, rel=0.25)


class TestFigure8Shapes:
    def test_pw_aggregate_rises_with_clients(self):
        one = run_pathways_multitenant(1, 330.0, n_hosts=4, iters_per_client=8)
        many = run_pathways_multitenant(16, 330.0, n_hosts=4, iters_per_client=8)
        assert (
            many.aggregate_computations_per_second
            > 4 * one.aggregate_computations_per_second
        )

    def test_pw_matches_jax_aggregate_when_saturated(self):
        pw = run_pathways_multitenant(32, 1040.0, n_hosts=4, iters_per_client=8)
        jax = run_jax_multitenant(32, 1040.0, n_hosts=4, iters_per_client=8)
        assert (
            pw.aggregate_computations_per_second
            >= 0.9 * jax.aggregate_computations_per_second
        )

    def test_pw_max_exceeds_jax_max_for_tiny_computations(self):
        pw = run_pathways_multitenant(64, 40.0, n_hosts=4, iters_per_client=8)
        jax = run_jax_multitenant(64, 40.0, n_hosts=4, iters_per_client=8)
        assert (
            pw.aggregate_computations_per_second
            > jax.aggregate_computations_per_second
        )

    def test_device_bound_regime_identical(self):
        """For 2.4ms computations both saturate at 1/compute: no
        context-switch overhead (the paper's headline §5.2 claim)."""
        pw = run_pathways_multitenant(16, 2400.0, n_hosts=4, iters_per_client=6)
        jax = run_jax_multitenant(16, 2400.0, n_hosts=4, iters_per_client=6)
        assert pw.aggregate_computations_per_second == pytest.approx(
            jax.aggregate_computations_per_second, rel=0.1
        )


class TestFigure9Shapes:
    def test_proportional_share_enforced(self):
        from repro.telemetry.timeline import kernel_span_range, program_share

        weights = {f"client{i}": w for i, w in enumerate([1.0, 2.0, 4.0, 8.0])}
        res = run_pathways_multitenant(
            4, 2000.0, n_hosts=2, devices_per_host=8, iters_per_client=20,
            weights=weights, with_trace=True, pipelined=True,
            scale_iters_by_weight=True,
        )
        trace = res.system_handle.sim.tracer
        lo, hi = kernel_span_range(trace)
        shares = program_share(trace, window=(lo + 0.1 * (hi - lo), lo + 0.8 * (hi - lo)))
        total = sum([1, 2, 4, 8])
        for i, w in enumerate([1, 2, 4, 8]):
            measured = shares.get(f"step_client{i}_solo", 0.0)
            assert measured == pytest.approx(w / total, abs=0.05)

    def test_interleaving_at_millisecond_scale(self):
        from repro.telemetry.timeline import interleave_granularity_us

        res = run_pathways_multitenant(
            4, 330.0, n_hosts=2, devices_per_host=8, iters_per_client=20,
            with_trace=True, pipelined=True,
        )
        g = interleave_granularity_us(res.system_handle.sim.tracer)
        assert g <= 2_000.0  # "a millisecond scale or less"
