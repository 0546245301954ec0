"""End-to-end tests of the Pathways system: Figure 2, dispatch modes,
numerical identity, multi-island execution, gang scheduling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dispatch import DispatchMode
from repro.core.system import PathwaysSystem
from repro.hw.cluster import ClusterSpec
from repro.xla.computation import CompiledFunction, scalar_allreduce_add
from repro.xla.shapes import TensorSpec


def wrapped(client, system, py_fn, name, n=2, duration=50.0):
    devs = system.make_virtual_device_set().add_slice(tpu_devices=n)
    return client.wrap_fn(py_fn, devices=devs, duration_us=duration,
                          spec=TensorSpec((2,)), name=name)


class TestFigure2Program:
    """The paper's Figure 2 example, verbatim semantics."""

    def test_traced_program_values(self, small_system, vec2):
        client = small_system.client()
        a = wrapped(client, small_system, lambda x: x * 2.0, "a")
        b = wrapped(client, small_system, lambda x: x + 1.0, "b")
        c = wrapped(client, small_system, lambda x: x / 2.0, "c")

        @client.program
        def f(v):
            x = a(v)
            y = b(x)
            z = a(c(x))
            return (y, z)

        y, z = f(vec2)
        np.testing.assert_allclose(y, [3.0, 5.0])
        np.testing.assert_allclose(z, [2.0, 4.0])

    def test_standalone_call_matches_traced(self, small_system, vec2):
        client = small_system.client()
        a = wrapped(client, small_system, lambda x: x * 2.0, "a")
        np.testing.assert_allclose(a(vec2), [2.0, 4.0])

    def test_retrace_on_new_shape(self, small_system):
        client = small_system.client()
        devs = small_system.make_virtual_device_set().add_slice(tpu_devices=2)

        def make(shape):
            spec = TensorSpec(shape)
            return client.wrap(
                CompiledFunction(
                    f"id{shape}", (spec,), (spec,),
                    fn=lambda x: (x,), n_shards=2, duration_us=1.0,
                ),
                devices=devs,
            )

        # Shape-specific callable; verify trace caching per shape.
        a2 = make((2,))
        # simpler: shape-specific callables; verify trace caching per shape
        @client.program
        def g(v):
            return (a2(v),)

        out1 = g(np.ones(2, dtype=np.float32))
        out2 = g(np.ones(2, dtype=np.float32))
        assert len(g._cache) == 1
        np.testing.assert_allclose(out1[0], out2[0])


class TestNumericalIdentity:
    def test_pathways_matches_direct_evaluation(self, small_system, vec2):
        """Paper §5.3: 'verified that numerical results are identical'."""
        client = small_system.client()
        a = wrapped(client, small_system, lambda x: x * 3.0, "m3")
        b = wrapped(client, small_system, lambda x: x - 1.0, "s1")

        @client.program
        def f(v):
            return (b(a(b(v))),)

        (got,) = f(vec2)
        expected = ((vec2 - 1.0) * 3.0) - 1.0
        np.testing.assert_allclose(got, expected)

    def test_chain_of_allreduce_adds(self, small_system):
        client = small_system.client()
        devs = small_system.make_virtual_device_set().add_slice(tpu_devices=8)
        step = client.wrap(scalar_allreduce_add(8, 1.0), devices=devs)

        @client.program
        def chain(v):
            x = v
            for _ in range(10):
                x = step(x)
            return (x,)

        (out,) = chain(np.float32(0.0))
        assert out == pytest.approx(10.0)


class TestDispatchModes:
    def _chained_program(self, system, n_nodes=4):
        client = system.client()
        devs = system.make_virtual_device_set().add_slice(tpu_devices=2)
        step = client.wrap(scalar_allreduce_add(2, 10.0), devices=devs)

        @client.program
        def chain(v):
            x = v
            for _ in range(n_nodes):
                x = step(x)
            return (x,)

        return client, chain.trace(np.float32(0.0))

    def test_parallel_faster_than_sequential(self):
        sys_p = PathwaysSystem.build(ClusterSpec(islands=((2, 4),)))
        client_p, prog_p = self._chained_program(sys_p)
        ex_p = client_p.submit(prog_p, (0.0,), mode=DispatchMode.PARALLEL)
        sys_p.sim.run_until_triggered(ex_p.done)
        t_parallel = sys_p.sim.now

        sys_s = PathwaysSystem.build(ClusterSpec(islands=((2, 4),)))
        client_s, prog_s = self._chained_program(sys_s)
        ex_s = client_s.submit(prog_s, (0.0,), mode=DispatchMode.SEQUENTIAL)
        sys_s.sim.run_until_triggered(ex_s.done)
        t_sequential = sys_s.sim.now

        assert t_parallel < t_sequential

    def test_both_modes_same_values(self):
        for mode in (DispatchMode.PARALLEL, DispatchMode.SEQUENTIAL):
            system = PathwaysSystem.build(ClusterSpec(islands=((2, 4),)))
            client, prog = self._chained_program(system)
            ex = client.submit(prog, (np.float32(0.0),), mode=mode)
            system.sim.run_until_triggered(ex.done)
            (out,) = ex.results()
            assert out == pytest.approx(4.0)


class TestMultiIsland:
    def test_program_spans_islands(self, two_island_system, vec2):
        system = two_island_system
        client = system.client()
        devs_a = system.make_virtual_device_set().add_slice(tpu_devices=2, island_id=0)
        devs_b = system.make_virtual_device_set().add_slice(tpu_devices=2, island_id=1)
        spec = TensorSpec((2,))
        fa = client.wrap(
            CompiledFunction("fa", (spec,), (spec,), fn=lambda x: (x + 1.0,),
                             n_shards=2, duration_us=20.0),
            devices=devs_a,
        )
        fb = client.wrap(
            CompiledFunction("fb", (spec,), (spec,), fn=lambda x: (x * 2.0,),
                             n_shards=2, duration_us=20.0),
            devices=devs_b,
        )

        @client.program
        def f(v):
            return (fb(fa(v)),)

        (out,) = f(vec2)
        np.testing.assert_allclose(out, (vec2 + 1.0) * 2.0)
        # The cross-island edge used DCN.
        assert system.cluster.transport.messages_sent > 0

    def test_per_island_schedulers_exist(self, two_island_system):
        assert len(two_island_system._schedulers) == 2


class TestGangScheduling:
    def test_concurrent_clients_never_deadlock(self):
        """Two clients gang-scheduling over the same devices: the
        centralized scheduler guarantees a consistent enqueue order, so
        this must complete (contrast test_hw_device's raw-device
        deadlock)."""
        system = PathwaysSystem.build(ClusterSpec(islands=((2, 4),)))
        drivers = []
        for name in ("alice", "bob"):
            client = system.client(name)
            devs = system.make_virtual_device_set().add_slice(tpu_devices=8)
            step = client.wrap(
                scalar_allreduce_add(8, 50.0, name=f"step_{name}"), devices=devs
            )
            drivers.append(
                system.sim.process(
                    client.drive_pipelined(step.solo_program, (0.0,), n_iters=10),
                    name=f"driver:{name}",
                )
            )
        system.sim.run_until_triggered(system.sim.all_of(drivers))
        assert system.computations_executed == 20

    def test_object_store_drains_after_runs(self, small_system):
        client = small_system.client()
        devs = small_system.make_virtual_device_set().add_slice(tpu_devices=2)
        step = client.wrap(scalar_allreduce_add(2, 5.0), devices=devs)
        driver = small_system.sim.process(
            client.drive_op_by_op(step.solo_program, (0.0,), n_iters=5)
        )
        small_system.sim.run_until_triggered(driver)
        # Driver releases results; nothing should be left alive.
        assert len(small_system.object_store) == 0

    def test_hbm_returns_to_zero(self, small_system):
        client = small_system.client()
        devs = small_system.make_virtual_device_set().add_slice(tpu_devices=2)
        step = client.wrap(scalar_allreduce_add(2, 5.0), devices=devs)
        driver = small_system.sim.process(
            client.drive_op_by_op(step.solo_program, (0.0,), n_iters=3)
        )
        small_system.sim.run_until_triggered(driver)
        assert all(d.hbm.used == 0 for d in small_system.cluster.devices)


class TestClientValidation:
    def test_shard_count_must_match_slice(self, small_system):
        client = small_system.client()
        devs = small_system.make_virtual_device_set().add_slice(tpu_devices=2)
        with pytest.raises(ValueError, match="shards"):
            client.wrap(scalar_allreduce_add(4, 1.0), devices=devs)

    def test_client_identity_by_name(self, small_system):
        assert small_system.client("x") is small_system.client("x")
        assert small_system.client("x") is not small_system.client("y")

    def test_compilation_cached_across_runs(self, small_system, vec2):
        client = small_system.client()
        a = wrapped(client, small_system, lambda x: x * 2.0, "cached_fn")
        a(vec2)
        a(vec2)
        compiler = small_system.resource_manager.compiler
        assert compiler.misses == 1
