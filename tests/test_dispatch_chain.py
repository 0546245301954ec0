"""Parallel dispatch's node chains: differential oracle and fault pins.

Each node of a PARALLEL dispatch runs prep on every host of its group,
waits for its gang grant and enqueues its kernels; each data-moving
edge waits for its producer and moves the output over ICI or DCN.
:mod:`repro.core.dispatch` wires these as event chains.  The oracle
(``tests/oracles.py``) runs the same steps as one generator ``Process``
per node and per edge; random DAGs must give the same results and the
same per-node completion times through both.  The fault pins fix what a
fault on that path does to an execution, however the chain is wired.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from test_random_programs import SPEC, _binary_fn, _unary_fn, dag_programs

from repro.config import DEFAULT_CONFIG
from repro.core.dispatch import DispatchMode, ExecutionAbandoned, ProgramExecution
from repro.core.ir import TransferRoute
from repro.core.program import ProgramTracer
from repro.core.scheduler import DeadlineExceeded
from repro.core.system import PathwaysSystem
from repro.hw.cluster import ClusterSpec
from repro.hw.device import DeviceFailure
from repro.resilience import RecoveryManager
from repro.sim import DeadlockError
from repro.xla.computation import scalar_allreduce_add


def _chain_program(client, devs, n_nodes: int, compute_us: float, name: str):
    step = client.wrap(scalar_allreduce_add(2, compute_us, name=name), devices=devs)

    @client.program
    def chain(v):
        x = v
        for _ in range(n_nodes):
            x = step(x)
        return x

    return chain.trace(np.float32(0.0))


def _run_dag(ops, two_islands: bool):
    """One random DAG program (as in ``test_random_programs``); returns
    the system, the execution and its result."""
    system = PathwaysSystem.build(
        ClusterSpec(islands=((2, 4), (2, 4))) if two_islands
        else ClusterSpec(islands=((3, 4),))
    )
    client = system.client("fuzz")
    n_islands = len(system.cluster.islands)
    slices = [
        system.make_virtual_device_set().add_slice(
            tpu_devices=2, island_id=(g % n_islands) if two_islands else None
        )
        for g in range(3)
    ]
    tracer = ProgramTracer("fuzz")
    with tracer:
        arg_t = tracer.add_arg(SPEC)
        values = []
        for i, (is_binary, op_idx, srcs, placement) in enumerate(ops):
            ins = [arg_t if s < 0 else values[s] for s in srcs]
            fn = (_binary_fn if is_binary else _unary_fn)(op_idx, i)[0]
            values.append(tracer.record_call(fn, slices[placement], ins)[0])
    program = tracer.finish((values[-1],))
    arg = np.array([0.25, 1.5, -1.0, 2.0], dtype=np.float32)
    execution = client.submit(program, (arg,), mode=DispatchMode.PARALLEL)
    system.sim.run_until_triggered(execution.done, limit=60_000_000.0)
    (result,) = execution.results()
    return system, execution, result


def _assert_same_as_oracle(ops, two_islands: bool) -> None:
    system, chained, got = _run_dag(ops, two_islands)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ProgramExecution, "_launch", oracles.launch_processes)
        oracle_system, reference, want = _run_dag(ops, two_islands)
    np.testing.assert_array_equal(got, want)
    assert chained._completed_at == reference._completed_at
    assert system.sim.now == oracle_system.sim.now


#: A five-node DAG over all three placements, with fan-in from two
#: groups: on one island its edges cross ICI, on two they cross DCN.
_MIXED_ROUTES = [
    (False, 0, (-1,), 0),
    (False, 1, (0,), 1),
    (True, 2, (0, 1), 2),
    (False, 3, (2,), 2),
    (True, 4, (3, 1), 0),
]


class TestOracle:
    @pytest.mark.parametrize("two_islands", [False, True])
    def test_mixed_routes_match_the_process_per_node_oracle(self, two_islands):
        _, execution, _ = _run_dag(_MIXED_ROUTES, two_islands)
        routes = {spec.route for n in execution.low.nodes for spec in n.incoming}
        assert (TransferRoute.DCN if two_islands else TransferRoute.ICI) in routes
        _assert_same_as_oracle(_MIXED_ROUTES, two_islands)

    @given(ops=dag_programs())
    @settings(max_examples=25, deadline=None)
    def test_random_dag_matches_oracle(self, ops):
        _assert_same_as_oracle(ops, two_islands=False)

    @given(ops=dag_programs())
    @settings(max_examples=25, deadline=None)
    def test_random_dag_across_islands_matches_oracle(self, ops):
        _assert_same_as_oracle(ops, two_islands=True)


class TestDeadlineEvictions:
    def test_several_evicted_gangs_count_one_rejection(self):
        """Every node of a bounded execution is evicted at the deadline:
        each gang counts as a scheduler eviction, the client counts one
        rejection, and the execution is abandoned, not replayed."""
        system = PathwaysSystem.build(
            ClusterSpec(islands=((1, 2),), name="deadline"),
            config=DEFAULT_CONFIG.with_overrides(scheduler_queue_depth=1),
        )
        RecoveryManager(system)
        client = system.client("tenant")
        devs = system.make_virtual_device_set().add_slice(tpu_devices=2)
        hog = client.wrap(scalar_allreduce_add(2, 50_000.0, name="hog"), devices=devs)
        bounded_program = _chain_program(client, devs, 3, 10.0, "fast")
        results = {}

        def driver():
            first = client.submit(hog.solo_program, (0.0,), compute_values=False)
            yield system.sim.timeout(5_000.0)
            bounded = client.submit(
                bounded_program,
                (0.0,),
                compute_values=False,
                retry_on_failure=True,
                deadline_us=1_000.0,
            )
            try:
                yield bounded.done
            except ExecutionAbandoned as exc:
                results["abandoned"] = exc
            results["execution"] = bounded
            yield first.done

        system.sim.process(driver())
        system.sim.run()
        assert isinstance(results["abandoned"].cause, DeadlineExceeded)
        assert results["execution"].attempts == 1
        assert system._schedulers[0].deadline_evictions == 3
        assert client.deadline_rejections == 1
        assert client.executions_abandoned == 1


class TestPrepOnFailedDevice:
    def _setup(self):
        system = PathwaysSystem.build(ClusterSpec(islands=((2, 4),), name="small"))
        recovery = RecoveryManager(system)
        client = system.client("c")
        devs = system.make_virtual_device_set().add_slice(tpu_devices=4)
        step = client.wrap(scalar_allreduce_add(4, 2_000.0, name="step"), devices=devs)
        return system, recovery, client, devs, step

    def test_allocation_fails_and_survivors_return_to_baseline(self):
        system, _, client, devs, step = self._setup()
        victim, *survivors = devs.group.devices
        baseline = [d.hbm.used for d in survivors]
        victim.fail("down")
        ex = client.submit(step.solo_program, (0.0,), compute_values=False)
        with pytest.raises(DeviceFailure, match="alloc on failed device") as info:
            system.sim.run_until_triggered(ex.done, limit=1e7)
        assert info.value.device_id == victim.device_id
        system.sim.run(detect_deadlock=False)
        assert [d.hbm.used for d in survivors] == baseline

    def test_retrying_execution_replays_the_node(self):
        system, recovery, client, devs, step = self._setup()
        victim = devs.group.devices[0]
        recovery.fail_device(victim)
        ex = client.submit(
            step.solo_program, (0.0,), compute_values=False, retry_on_failure=True
        )
        system.sim.run_until_triggered(ex.done, limit=1e7)
        assert ex.done.ok
        assert ex.attempts == 2
        assert victim not in devs.group.devices
        ex.release_results()
        assert all(d.hbm.used == 0 for d in system.cluster.devices if d is not victim)


class TestStalledChains:
    """A node chain or edge feed that never settles is a deadlock, as a
    blocked node or feeder process was, with the sanitizer on or off."""

    @pytest.mark.parametrize("sanitize", ["0", "1"])
    def test_output_allocation_never_granted(self, monkeypatch, sanitize):
        monkeypatch.setenv("REPRO_SIM_SANITIZE", sanitize)
        system = PathwaysSystem.build(ClusterSpec(islands=((1, 2),), name="full"))
        client = system.client("c")
        devs = system.make_virtual_device_set().add_slice(tpu_devices=2)
        step = client.wrap(scalar_allreduce_add(2, 10.0, name="step"), devices=devs)
        hbm = devs.group.devices[1].hbm
        assert hbm.alloc(hbm.capacity - hbm.used).triggered  # held for the whole run
        ex = client.submit(step.solo_program, (0.0,), compute_values=False)
        with pytest.raises(DeadlockError) as info:
            system.sim.run()
        assert [b.name for b in info.value.blocked] == [
            f"node {ex.name}:{node.label}" for node in ex.low.nodes
        ]
        assert hbm.queue_len == 1
        assert not ex.done.triggered

    @pytest.mark.parametrize("sanitize", ["0", "1"])
    def test_feed_whose_producer_never_runs(self, monkeypatch, sanitize):
        """The producer waits on a paused island; its consumer on the
        other island is granted and enqueued behind its gate, and the
        DCN edge's feed waits for the producer."""
        monkeypatch.setenv("REPRO_SIM_SANITIZE", sanitize)
        system = PathwaysSystem.build(
            ClusterSpec(islands=((1, 2), (1, 2)), name="stalled")
        )
        client = system.client("c")
        first = system.make_virtual_device_set().add_slice(tpu_devices=2, island_id=0)
        second = system.make_virtual_device_set().add_slice(tpu_devices=2, island_id=1)
        f = client.wrap(scalar_allreduce_add(2, 10.0, name="f"), devices=first)
        g = client.wrap(scalar_allreduce_add(2, 10.0, name="g"), devices=second)

        @client.program
        def two(v):
            return g(f(v))

        program = two.trace(np.float32(0.0))
        system.scheduler_for(first.group.island).pause()
        ex = client.submit(program, (0.0,), compute_values=False)
        with pytest.raises(DeadlockError) as info:
            system.sim.run()
        producer, consumer = ex.low.nodes
        assert [spec.route for spec in consumer.incoming] == [TransferRoute.DCN]
        assert [b.name for b in info.value.blocked] == [
            f"feed {ex.name}:{consumer.label}",
            f"node {ex.name}:{producer.label}",
        ]
