"""The execution driver: differential fault fuzz and contract pins.

``ProgramExecution`` drives each program through callbacks: a PARALLEL
or SEQUENTIAL pass is a timer chain on the controller thread, and only
a loss recovery runs as a generator process.  The oracle
(``tests/oracles.py``) drives the same execution with one generator
``Process`` per execution, with a SEQUENTIAL pass as the generator
:func:`oracles.dispatch_sequential`.  Random DAGs under random faults
must give the same ``done`` outcome and time, the same
``handles_ready`` time and the same attempt and client counts through
both drivers.  ``REPRO_DRIVER_FUZZ_EXAMPLES`` sets the fuzz budget (25
by default; CI's bench job runs 200).
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from test_random_programs import SPEC, _binary_fn, _unary_fn, dag_programs

from repro.core.dispatch import DispatchMode, ExecutionAbandoned
from repro.core.program import ProgramTracer
from repro.core.system import PathwaysSystem
from repro.hw.cluster import ClusterSpec
from repro.resilience import RecoveryManager
from repro.sim import engine
from repro.xla.computation import scalar_allreduce_add

EXAMPLES = int(os.environ.get("REPRO_DRIVER_FUZZ_EXAMPLES", "25"))


class _Checkpoint:
    """A fixed checkpoint: nodes completed by ``last_checkpoint_us``
    are not replayed, and a replay first pays ``restore_us``."""

    def __init__(self, last_checkpoint_us: float, restore_us: float):
        self.last_checkpoint_us = last_checkpoint_us
        self.restore_us = restore_us

    def restore_cost_us(self) -> float:
        return self.restore_us


@st.composite
def scenarios(draw):
    return {
        "ops": draw(dag_programs()),
        "two_islands": draw(st.booleans()),
        "mode": draw(st.sampled_from(list(DispatchMode))),
        "retry": draw(st.booleans()),
        "max_attempts": draw(st.integers(1, 3)),
        "checkpoint": draw(
            st.none()
            | st.tuples(st.floats(0.0, 400.0), st.sampled_from([0.0, 50.0]))
        ),
        "fault": draw(
            st.none()
            | st.tuples(
                st.sampled_from(["device", "host", "preempt"]),
                st.floats(0.0, 3000.0),
                st.integers(0, 63),
            )
        ),
        # A preemption takes every device of its island: a remap pinned
        # there backs off until the preemption ends.
        "preempt_us": draw(st.sampled_from([3_000.0, 4_700.0, 12_000.0])),
    }


def _record(event, key: str, seen: dict) -> None:
    def settled(ev) -> None:
        exc = ev._exc
        cause = exc.cause if isinstance(exc, ExecutionAbandoned) else None
        seen[key] = (ev.sim.now, type(exc).__name__, type(cause).__name__)

    event.add_callback(settled)


def _run(scn) -> dict:
    """One scenario through whichever driver is installed."""
    system = PathwaysSystem.build(
        ClusterSpec(islands=((2, 4), (2, 4))) if scn["two_islands"]
        else ClusterSpec(islands=((3, 4),))
    )
    recovery = RecoveryManager(system)
    client = system.client("fuzz")
    n_islands = len(system.cluster.islands)
    slices = [
        system.make_virtual_device_set().add_slice(
            tpu_devices=2, island_id=(g % n_islands) if scn["two_islands"] else None
        )
        for g in range(3)
    ]
    tracer = ProgramTracer("fuzz")
    with tracer:
        arg_t = tracer.add_arg(SPEC)
        values = []
        for i, (is_binary, op_idx, srcs, placement) in enumerate(scn["ops"]):
            ins = [arg_t if s < 0 else values[s] for s in srcs]
            fn = (_binary_fn if is_binary else _unary_fn)(op_idx, i)[0]
            values.append(tracer.record_call(fn, slices[placement], ins)[0])
    program = tracer.finish((values[-1],))
    ckpt = _Checkpoint(*scn["checkpoint"]) if scn["checkpoint"] else None
    execution = client.submit(
        program,
        (np.array([0.25, 1.5, -1.0, 2.0], dtype=np.float32),),
        mode=scn["mode"],
        retry_on_failure=scn["retry"],
        max_attempts=scn["max_attempts"],
        checkpoint=ckpt,
    )
    seen: dict = {}
    _record(execution.done, "done", seen)
    _record(execution.handles_ready, "handles_ready", seen)
    if scn["fault"] is not None:
        kind, at_us, index = scn["fault"]
        used = sorted(
            {d for s in slices for d in s.group.devices}, key=lambda d: d.device_id
        )
        victim = used[index % len(used)]
        fault = {
            "device": lambda ev: recovery.fail_device(victim),
            "host": lambda ev: recovery.crash_host(victim.host),
            "preempt": lambda ev: recovery.preempt_island(
                victim.island_id, scn["preempt_us"]
            ),
        }[kind]
        system.sim.timeout(at_us).add_callback(fault)
    try:
        system.sim.run()
        seen["run"] = None
    except Exception as exc:  # noqa: BLE001 - compared across drivers
        seen["run"] = type(exc).__name__
    seen.update(
        attempts=execution.attempts,
        completed_at=dict(execution._completed_at),
        abandoned=client.executions_abandoned,
        dispatched=system.programs_dispatched,
        remaps=recovery.remaps,
        recovered=recovery.programs_recovered,
        now=system.sim.now,
    )
    return seen


#: Both nodes of a chain are lost together; the second loss settles
#: while the first one's recovery runs and must not start another.
_TWO_LOSSES_ONE_RECOVERY = {
    "ops": [(False, 0, (-1,), 0), (False, 0, (0,), 0)],
    "two_islands": False,
    "mode": DispatchMode.PARALLEL,
    "retry": True,
    "max_attempts": 2,
    "checkpoint": None,
    "fault": ("device", 0.0, 0),
    "preempt_us": 3_000.0,
}

#: The only island is preempted mid-run: the remap finds no healthy
#: capacity and backs off (from 2,372 us to 7,372 us) until the
#: preemption has ended (at 4,750 us).
_REMAP_BACKS_OFF = {
    **_TWO_LOSSES_ONE_RECOVERY,
    "max_attempts": 3,
    "fault": ("preempt", 50.0, 0),
    "preempt_us": 4_700.0,
}


class TestDriverOracle:
    @given(scn=scenarios())
    @example(scn=_TWO_LOSSES_ONE_RECOVERY)
    @example(scn=_REMAP_BACKS_OFF)
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_random_faults_match_the_process_driver(self, scn):
        got = _run(scn)
        assert got["run"] is None
        with pytest.MonkeyPatch.context() as mp:
            oracles.patch_driver(mp)
            want = _run(scn)
        assert got == want


def _chain(n_nodes: int):
    system = PathwaysSystem.build(ClusterSpec(islands=((2, 4),), name="small"))
    client = system.client("c")
    devs = system.make_virtual_device_set().add_slice(tpu_devices=4)
    step = client.wrap(scalar_allreduce_add(4, 100.0, name="step"), devices=devs)

    @client.program
    def chain(v):
        for _ in range(n_nodes):
            v = step(v)
        return v

    program = chain.trace(np.float32(0.0))
    return system, client, program


def _processes_created(monkeypatch, mode: DispatchMode, retry: bool) -> list:
    system, client, program = _chain(3)
    created = []
    init = engine.Process.__init__

    def counting_init(self, sim, generator, name=""):
        created.append(generator.__qualname__)
        init(self, sim, generator, name)

    monkeypatch.setattr(engine.Process, "__init__", counting_init)
    execution = client.submit(program, (0.0,), mode=mode, retry_on_failure=retry)
    system.sim.run()
    assert execution.done.ok and execution.attempts == 1
    return created


class TestContract:
    @pytest.mark.parametrize("retry", [False, True])
    def test_parallel_execution_without_a_loss_creates_no_process(
        self, monkeypatch, retry
    ):
        assert _processes_created(monkeypatch, DispatchMode.PARALLEL, retry) == []

    @pytest.mark.parametrize("retry", [False, True])
    def test_sequential_execution_without_a_loss_creates_no_process(
        self, monkeypatch, retry
    ):
        assert _processes_created(monkeypatch, DispatchMode.SEQUENTIAL, retry) == []

    def test_sequential_replay_drains_after_a_loss_at_the_first_node(self):
        # The first node's loss leaves the other two undispatched; the
        # third node's feed waits on the second, which the failed pass
        # never ran.  The replay must still leave nothing live.
        system, client, program = _chain(3)
        clean = client.submit(program, (0.0,), mode=DispatchMode.SEQUENTIAL)
        system.sim.run()
        first_done = min(clean._completed_at.values())

        system, client, program = _chain(3)
        recovery = RecoveryManager(system)
        execution = client.submit(
            program, (0.0,), mode=DispatchMode.SEQUENTIAL, retry_on_failure=True
        )
        victim = execution.low.nodes[0].group.devices[0]
        # Mid-kernel: each step runs for 100 us.
        system.sim.timeout(first_done - 50.0).add_callback(
            lambda ev: recovery.fail_device(victim)
        )
        system.sim.run()
        assert execution.done.ok and execution.attempts == 2

    def test_sequential_done_fires_at_the_last_node_before_the_handle_trip(self):
        system, client, program = _chain(3)
        execution = client.submit(program, (0.0,), mode=DispatchMode.SEQUENTIAL)
        at_done = {}

        def on_done(ev) -> None:
            at_done["now"] = system.sim.now
            at_done["controller_held"] = client.controller.in_use

        execution.done.add_callback(on_done)
        handles_at = []
        execution.handles_ready.add_callback(lambda ev: handles_at.append(ev.sim.now))
        system.sim.run()
        cfg = system.config
        assert at_done["now"] == max(execution._completed_at.values())
        # The pass still holds the controller for the final handle round
        # trip; handles_ready fires when it ends.
        assert at_done["controller_held"] == 1
        assert handles_at == [at_done["now"] + cfg.dcn_latency_us]
