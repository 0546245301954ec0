"""Tests for dispatch-layer features: irregular fallback, migration,
re-lowering, refcount lifecycle, failure GC."""

from __future__ import annotations

import numpy as np
from repro.core.dispatch import DispatchMode
from repro.core.system import PathwaysSystem
from repro.hw.cluster import ClusterSpec
from repro.xla.computation import CompiledFunction, scalar_allreduce_add
from repro.xla.shapes import TensorSpec


def _irregular(n_shards=2, duration=10.0):
    spec = TensorSpec.scalar()
    return CompiledFunction(
        "irregular", (spec,), (spec,),
        fn=lambda x: (x,), n_shards=n_shards, duration_us=duration,
        regular=False,
    )


class TestIrregularFallback:
    def test_irregular_node_forces_sequential(self, small_system):
        """Paper §4.5: parallel scheduling only applies to regular
        functions; irregular nodes fall back to the traditional model."""
        client = small_system.client()
        devs = small_system.make_virtual_device_set().add_slice(tpu_devices=2)
        step = client.wrap(_irregular(), devices=devs)
        execution = client.submit(step.solo_program, (0.0,),
                                  mode=DispatchMode.PARALLEL)
        small_system.sim.run_until_triggered(execution.done)
        assert execution.mode is DispatchMode.SEQUENTIAL

    def test_regular_program_stays_parallel(self, small_system):
        client = small_system.client()
        devs = small_system.make_virtual_device_set().add_slice(tpu_devices=2)
        step = client.wrap(scalar_allreduce_add(2, 10.0), devices=devs)
        execution = client.submit(step.solo_program, (0.0,))
        small_system.sim.run_until_triggered(execution.done)
        assert execution.mode is DispatchMode.PARALLEL

    def test_irregular_costs_more(self):
        def run(fn):
            system = PathwaysSystem.build(ClusterSpec(islands=((2, 4),)))
            client = system.client()
            devs = system.make_virtual_device_set().add_slice(tpu_devices=2)
            step = client.wrap(fn, devices=devs)

            @client.program
            def chain(v):
                x = v
                for _ in range(4):
                    x = step(x)
                return (x,)

            program = chain.trace(np.float32(0.0))
            ex = client.submit(program, (0.0,))
            system.sim.run_until_triggered(ex.done)
            return system.sim.now

        t_regular = run(scalar_allreduce_add(2, 10.0))
        t_irregular = run(_irregular())
        assert t_irregular > 2 * t_regular


class TestMigration:
    def test_rebind_triggers_relowering_onto_new_devices(self, small_system, vec2):
        system = small_system
        client = system.client()
        devs = system.make_virtual_device_set().add_slice(tpu_devices=2)
        spec = TensorSpec((2,))
        fn = client.wrap(
            CompiledFunction("m", (spec,), (spec,), fn=lambda x: (x * 2.0,),
                             n_shards=2, duration_us=20.0),
            devices=devs,
        )
        program = fn.solo_program
        low_before = client.lower(program)
        old_devices = [d.device_id for d in low_before.nodes[0].group.devices]

        np.testing.assert_allclose(client.run_and_wait(program, (vec2,)), vec2 * 2)

        # Transparent migration: the resource manager rebinds the slice.
        system.resource_manager.rebind_slice(devs)
        low_after = client.lower(program)
        new_devices = [d.device_id for d in low_after.nodes[0].group.devices]
        assert low_after is not low_before
        assert new_devices != old_devices

        # The client's code is unchanged and keeps working post-migration.
        np.testing.assert_allclose(client.run_and_wait(program, (vec2,)), vec2 * 2)

    def test_lowering_cached_when_placement_stable(self, small_system):
        client = small_system.client()
        devs = small_system.make_virtual_device_set().add_slice(tpu_devices=2)
        step = client.wrap(scalar_allreduce_add(2, 5.0), devices=devs)
        program = step.solo_program
        assert client.lower(program) is client.lower(program)


class TestFailureCleanup:
    def test_result_buffers_live_until_released(self, small_system):
        system = small_system
        client = system.client()
        devs = system.make_virtual_device_set().add_slice(tpu_devices=2)
        step = client.wrap(scalar_allreduce_add(2, 5.0), devices=devs)
        ex = client.submit(step.solo_program, (0.0,))
        system.sim.run_until_triggered(ex.done)
        # Result buffers linger (the client holds references)...
        assert len(system.object_store) > 0
        # ...until the client releases them.
        ex.release_results()
        assert len(system.object_store) == 0
        assert all(d.hbm.used == 0 for d in system.cluster.devices)

    def test_release_results_is_idempotent_across_futures(self, small_system):
        client = small_system.client()
        devs = small_system.make_virtual_device_set().add_slice(tpu_devices=2)
        spec = TensorSpec((2,))
        two_out = CompiledFunction(
            "pair", (spec,), (spec, spec),
            fn=lambda x: (x, x), n_shards=2, duration_us=5.0,
        )
        step = client.wrap(two_out, devices=devs)

        @client.program
        def f(v):
            a, b = step(v)
            return (a, b)

        program = f.trace(np.zeros(2, dtype=np.float32))
        ex = client.submit(program, (np.zeros(2, dtype=np.float32),))
        small_system.sim.run_until_triggered(ex.done)
        # Two result futures share one output handle; releasing must
        # free exactly once.
        ex.release_results()
        assert len(small_system.object_store) == 0


class TestBackpressureEndToEnd:
    def test_hbm_pressure_stalls_but_completes(self):
        """Programs whose buffers exceed HBM stall on back-pressure and
        finish once earlier buffers free (paper §4.6), instead of OOMing."""
        from repro.config import DEFAULT_CONFIG

        config = DEFAULT_CONFIG.with_overrides(hbm_bytes=1 << 20)  # 1 MiB
        system = PathwaysSystem.build(ClusterSpec(islands=((1, 2),)), config=config)
        client = system.client()
        devs = system.make_virtual_device_set().add_slice(tpu_devices=2)
        spec = TensorSpec((131072,))  # 512 KiB replicated output
        big = CompiledFunction(
            "big", (spec,), (spec,), fn=None, n_shards=2, duration_us=50.0,
        )
        step = client.wrap(big, devices=devs)
        driver = system.sim.process(
            client.drive_op_by_op(step.solo_program, (np.zeros(131072, dtype=np.float32),),
                                  n_iters=6)
        )
        system.sim.run_until_triggered(driver)
        assert all(d.hbm.used == 0 for d in system.cluster.devices)
        assert all(d.hbm.peak_used <= d.hbm.capacity for d in system.cluster.devices)
