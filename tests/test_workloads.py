"""Tests for the workload generators and the bench harness utilities."""

from __future__ import annotations

import pytest

from repro.bench.harness import Series, Table, geometric_range
from repro.config import DEFAULT_CONFIG
from repro.workloads.microbench import (
    MicrobenchResult,
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


class TestMicrobenchRunners:
    def test_labels(self):
        r = MicrobenchResult("PW", "opbyop", 2, 100.0)
        assert r.label == "PW-O"
        assert MicrobenchResult("JAX", "fused", 2, 1.0).label == "JAX-F"
        assert MicrobenchResult("TF", "chained", 2, 1.0).label == "TF-C"

    def test_unknown_variants_rejected(self):
        with pytest.raises(ValueError):
            run_pathways("bogus", 2)
        with pytest.raises(ValueError):
            run_jax("chained", 2)  # no multi-controller analogue
        with pytest.raises(ValueError):
            run_tf("fused", 2)  # not in the paper's Figure 5
        with pytest.raises(ValueError):
            run_ray("bogus", 2)

    def test_throughput_positive_and_finite(self):
        for runner, variant in [
            (run_pathways, "opbyop"), (run_pathways, "chained"),
            (run_pathways, "fused"), (run_jax, "opbyop"), (run_jax, "fused"),
        ]:
            r = runner(variant, 2, n_calls=4)
            assert 0 < r.computations_per_second < 1e8, (runner, variant)
        for runner, variant in [
            (run_tf, "opbyop"), (run_tf, "chained"),
            (run_ray, "opbyop"), (run_ray, "chained"), (run_ray, "fused"),
        ]:
            r = runner(variant, 2)
            assert 0 < r.computations_per_second < 1e8, (runner, variant)

    def test_deterministic_repeat(self):
        a = run_pathways("opbyop", 4, n_calls=6).computations_per_second
        b = run_pathways("opbyop", 4, n_calls=6).computations_per_second
        assert a == b

    def test_compute_time_lowers_throughput(self):
        fast = run_jax("fused", 4, compute_time_us=0.5, n_calls=4)
        slow = run_jax("fused", 4, compute_time_us=100.0, n_calls=4)
        assert fast.computations_per_second > slow.computations_per_second

    def test_pipeline_chain_runs_each_stage_on_own_host(self):
        tput = run_pathways_pipeline_chain(4, n_calls=4)
        assert tput > 0


class TestMultitenantRunners:
    def test_invalid_client_count(self):
        with pytest.raises(ValueError):
            run_pathways_multitenant(0, 100.0)
        with pytest.raises(ValueError):
            run_jax_multitenant(0, 100.0)

    def test_per_client_counts_recorded(self):
        res = run_pathways_multitenant(3, 200.0, n_hosts=2, iters_per_client=4)
        assert res.per_client_completed == {
            "client0": 4, "client1": 4, "client2": 4
        }

    def test_scale_iters_by_weight(self):
        weights = {"client0": 1.0, "client1": 3.0}
        res = run_pathways_multitenant(
            2, 200.0, n_hosts=2, iters_per_client=4,
            weights=weights, scale_iters_by_weight=True, pipelined=True,
        )
        assert res.per_client_completed == {"client0": 4, "client1": 12}

    def test_jax_completes_all_iterations(self):
        res = run_jax_multitenant(4, 200.0, n_hosts=2, iters_per_client=5)
        assert sum(res.per_client_completed.values()) == 20


class TestBenchHarness:
    def test_geometric_range(self):
        assert geometric_range(2, 512) == [2, 4, 8, 16, 32, 64, 128, 256, 512]
        assert geometric_range(1, 10) == [1, 2, 4, 8]
        with pytest.raises(ValueError):
            geometric_range(0, 10)

    def test_table_rendering(self):
        t = Table("demo", columns=["a", "b"])
        t.add_row(1, 2.5)
        t.add_row(10_000, 3.14159)
        out = t.render()
        assert "demo" in out and "10,000" in out and "3.14" in out

    def test_table_row_arity_checked(self):
        t = Table("demo", columns=["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_series(self):
        s = Series("line")
        s.add(1, 10.0)
        s.add(2, 20.0)
        assert s.y_at(2) == 20.0
        with pytest.raises(KeyError):
            s.y_at(3)
        assert "line" in s.render()


class TestConfig:
    def test_overrides_produce_new_object(self):
        cfg = DEFAULT_CONFIG.with_overrides(dcn_latency_us=99.0)
        assert cfg.dcn_latency_us == 99.0
        assert DEFAULT_CONFIG.dcn_latency_us != 99.0

    def test_unit_conversions(self):
        assert DEFAULT_CONFIG.dcn_bytes_per_us == pytest.approx(12_500.0)
        assert DEFAULT_CONFIG.ici_bytes_per_us == pytest.approx(100_000.0)
        assert DEFAULT_CONFIG.tpu_flops_per_us == pytest.approx(61.25e6)

    def test_figure6_calibration_identity(self):
        """The documented calibration: base + per_host x hosts hits the
        paper's two crossover points."""
        cfg = DEFAULT_CONFIG
        b16 = cfg.coordinator_base_us + cfg.coordinator_work_per_host_us * 16
        a512 = cfg.coordinator_base_us + cfg.coordinator_work_per_host_us * 512
        assert b16 == pytest.approx(2_300.0, rel=0.05)
        assert a512 == pytest.approx(35_000.0, rel=0.05)
