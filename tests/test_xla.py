"""Tests for shapes, sharding, compiled functions, and fusion."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import DEFAULT_CONFIG
from repro.xla.compiler import fuse
from repro.xla.computation import CollectiveSpec, CompiledFunction, scalar_allreduce_add
from repro.xla.shapes import DType, TensorSpec
from repro.xla.sharding import Sharding


class TestTensorSpec:
    def test_nbytes(self):
        assert TensorSpec((2, 3), DType.F32).nbytes == 24
        assert TensorSpec((2, 3), DType.BF16).nbytes == 12
        assert TensorSpec.scalar().nbytes == 4

    def test_num_elements_scalar(self):
        assert TensorSpec(()).num_elements == 1

    def test_matches(self):
        spec = TensorSpec((2, 3))
        assert spec.matches(np.zeros((2, 3)))
        assert not spec.matches(np.zeros((3, 2)))

    def test_negative_dim_rejected(self):
        with pytest.raises(ValueError):
            TensorSpec((-1, 2))

    def test_with_leading_dim(self):
        assert TensorSpec((4, 3)).with_leading_dim(2) == TensorSpec((2, 3))
        with pytest.raises(ValueError):
            TensorSpec(()).with_leading_dim(2)

    def test_str(self):
        assert str(TensorSpec((2, 3), DType.BF16)) == "bf16[2x3]"
        assert str(TensorSpec.scalar()) == "f32[scalar]"


class TestSharding:
    def test_replicated_shard_spec_unchanged(self):
        spec = TensorSpec((8, 4))
        assert Sharding.REPLICATED.shard_spec(spec, 4) == spec

    def test_split_divides_leading(self):
        spec = TensorSpec((8, 4))
        assert Sharding.SPLIT_LEADING.shard_spec(spec, 4) == TensorSpec((2, 4))

    def test_split_indivisible_rejected(self):
        with pytest.raises(ValueError):
            Sharding.SPLIT_LEADING.shard_spec(TensorSpec((7, 4)), 2)

    def test_split_scalar_rejected(self):
        with pytest.raises(ValueError):
            Sharding.SPLIT_LEADING.shard_spec(TensorSpec.scalar(), 2)

    def test_resharding_bytes(self):
        spec = TensorSpec((8, 4))
        assert Sharding.SPLIT_LEADING.resharding_bytes(spec, 4, 4) == 0
        assert Sharding.SPLIT_LEADING.resharding_bytes(spec, 2, 4) == spec.nbytes
        assert Sharding.REPLICATED.resharding_bytes(spec, 2, 4) == 2 * spec.nbytes
        assert Sharding.REPLICATED.resharding_bytes(spec, 4, 2) == 0


class TestCompiledFunction:
    def test_requires_exactly_one_cost(self):
        spec = TensorSpec.scalar()
        with pytest.raises(ValueError):
            CompiledFunction("f", (spec,), (spec,), duration_us=1.0, flops_per_shard=1.0)
        with pytest.raises(ValueError):
            CompiledFunction("f", (spec,), (spec,))

    def test_execute_validates_shapes(self):
        fn = scalar_allreduce_add(2, 1.0)
        with pytest.raises(TypeError, match="shape"):
            fn.execute(np.zeros((2,)))
        with pytest.raises(TypeError, match="expected 1 args"):
            fn.execute(np.float32(0), np.float32(0))

    def test_execute_semantics(self):
        fn = scalar_allreduce_add(2, 1.0)
        (out,) = fn.execute(np.float32(41.0))
        assert out == pytest.approx(42.0)

    def test_compute_time_explicit(self):
        fn = scalar_allreduce_add(2, 7.5)
        assert fn.compute_time_us(DEFAULT_CONFIG) == 7.5

    def test_compute_time_from_flops(self):
        spec = TensorSpec.scalar()
        fn = CompiledFunction(
            "f", (spec,), (spec,), n_shards=4,
            flops_per_shard=DEFAULT_CONFIG.tpu_flops_per_us * 100,
            efficiency=0.5,
        )
        assert fn.compute_time_us(DEFAULT_CONFIG) == pytest.approx(200.0)

    def test_output_bytes_respect_sharding(self):
        spec = TensorSpec((8, 4))
        fn = CompiledFunction(
            "f", (spec,), (spec,), n_shards=4, duration_us=1.0,
            in_shardings=(Sharding.SPLIT_LEADING,),
            out_shardings=(Sharding.SPLIT_LEADING,),
        )
        assert fn.output_nbytes_per_shard() == spec.nbytes // 4
        rep = CompiledFunction("g", (spec,), (spec,), n_shards=4, duration_us=1.0)
        assert rep.output_nbytes_per_shard() == spec.nbytes

    def test_collective_spec_validation(self):
        with pytest.raises(ValueError):
            CollectiveSpec("bogus", 4)
        with pytest.raises(ValueError):
            CollectiveSpec("allreduce", -1)
        with pytest.raises(ValueError):
            CollectiveSpec("allreduce", 4, count=0)

    def test_cost_only_function_has_no_semantics(self):
        spec = TensorSpec.scalar()
        fn = CompiledFunction("f", (spec,), (spec,), duration_us=1.0)
        with pytest.raises(RuntimeError, match="no semantics"):
            fn.execute(np.float32(0))


class TestFuse:
    def test_fused_semantics_compose(self):
        fn = scalar_allreduce_add(2, 1.0)
        fused = fuse([fn] * 5)
        (out,) = fused.execute(np.float32(0.0))
        assert out == pytest.approx(5.0)

    def test_fused_duration_sums(self):
        fn = scalar_allreduce_add(2, 3.0)
        assert fuse([fn] * 4).duration_us == pytest.approx(12.0)

    def test_fused_collective_count_preserved(self):
        fn = scalar_allreduce_add(2, 1.0)
        fused = fuse([fn] * 128)
        assert fused.collective is not None
        assert fused.collective.count == 128
        assert fused.collective.nbytes == 4

    def test_fuse_empty_rejected(self):
        with pytest.raises(ValueError):
            fuse([])

    def test_fuse_mismatched_shards_rejected(self):
        with pytest.raises(ValueError, match="shard counts"):
            fuse([scalar_allreduce_add(2, 1.0), scalar_allreduce_add(4, 1.0)])

    def test_fuse_shape_mismatch_rejected(self):
        spec_a, spec_b = TensorSpec((2,)), TensorSpec((3,))
        f1 = CompiledFunction("a", (spec_a,), (spec_a,), duration_us=1.0)
        f2 = CompiledFunction("b", (spec_b,), (spec_b,), duration_us=1.0)
        with pytest.raises(ValueError, match="mismatch"):
            fuse([f1, f2])
