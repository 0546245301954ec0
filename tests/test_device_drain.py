"""Lockstep lanes and gang-granular phases: differential fuzz against
the per-device drain.

A gang's devices that hold the same FIFO drain as one lane: one pop,
one wait per phase, one ``join(n)`` and one completion for them all; a
group's hosts prep on one lane CPU slot.  Devices sharing a wait
resume in registration order; a rendezvous is one timer-queue entry
for its wire phase and the compute phase every join brings; a group's
HBM is reserved in one pass.  The oracle
(``oracles.patch_device_drain``) runs the same scenarios one device and
one host at a time, with a wire timeout per rendezvous, then each
device's compute phase on the gang's compute timeout, and one
allocator call per shard.

Random gangs of 1-8 devices on hosts shared between gangs -- one
shared kernel enqueued as a gang, on a rendezvous with or without the
launch folded in or on none, or distinct per-device kernels with or
without a shared rendezvous, each with a host prep and an HBM
allocation -- run under device failures
and host crashes on a 0.5 us grid, so faults land before, during and
after the wire phase and exactly at its end, armed before and after
the last join.  Device sets are often drawn from a few fixed lanes, in
any order or as a strict subset or superset, so groups over the same
devices interleave, lanes split under per-device kernels and wider or
narrower gangs, and re-form once they drain.  Probes read every
host's CPU mid-run, which hands a lane's CPU back to its members while
preps hold or queue for it.  Both drains must agree on kernel
outcomes, prep and allocation outcomes, ``kernels_run``,
``kernels_aborted``, HBM ``used``/``peak_used``, CPU holders and
queues and the final time, and the lane schedule must be the per-device one
with only ``timeout`` and ``event`` entries left out, every kept entry
at its time.

``REPRO_DEVICE_FUZZ_EXAMPLES`` sets the fuzz budget (60 by default; CI's
bench job runs 200).
"""

from __future__ import annotations

import dataclasses
import importlib.util
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles

import repro.core.executor as executor_module
import repro.hw.device as device_module
from repro.config import DEFAULT_CONFIG
from repro.core.object_store import MemorySpace, ShardedObjectStore
from repro.core.placement import DeviceGroup
from repro.core.resource_manager import ResourceManager
from repro.hw.device import Device, DeviceFailure, Kernel
from repro.hw.host import Host
from repro.sim import Simulator
from repro.telemetry import Tracer
from repro.workloads.microbench import run_pathways

EXAMPLES = int(os.environ.get("REPRO_DEVICE_FUZZ_EXAMPLES", "60"))

_GOLDEN_DIFF_PY = os.path.join(
    os.path.dirname(__file__), "..", "benchmarks", "golden_diff.py"
)
_spec = importlib.util.spec_from_file_location("golden_diff", _GOLDEN_DIFF_PY)
golden_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_diff)

N_HOSTS, PER_HOST = 4, 2
HBM_BYTES = 4
#: Launch, wire and compute times and fault instants on one dyadic grid:
#: sums stay exact, so phase ends and faults tie often.
GRID = 0.5


#: Device sets gangs are often drawn from (in any order, or as a strict
#: subset or superset), so lanes form, interleave, split and re-form.
LANES = ((0, 2, 4, 6), (1, 3), (0, 1, 2, 3, 4, 5, 6, 7), (4, 5, 6))


@dataclasses.dataclass(frozen=True)
class Gang:
    devices: tuple[int, ...]
    start: float
    #: "folded" | "unfolded": one shared kernel enqueued as a gang, its
    #: launch folded into the rendezvous (as the executor builds it) or
    #: not (as the baselines and trainers do);
    #: "gang-plain": one shared kernel, no rendezvous, as a gang;
    #: "split": distinct kernels on one rendezvous, one enqueue each;
    #: "plain": distinct kernels, no rendezvous.
    mode: str
    launch_us: float
    wire_us: float
    compute_us: float
    gate: object  # None, or (open_at, ok)
    prep_us: float
    hbm: int


@dataclasses.dataclass(frozen=True)
class Fault:
    kind: str  # "device" | "host"
    target: int
    armed: float
    at: float
    repair_us: object  # None: never repaired


@st.composite
def device_sets(draw):
    any_devices = st.lists(
        st.integers(0, N_HOSTS * PER_HOST - 1), min_size=1, max_size=8, unique=True
    )
    kind = draw(st.sampled_from(["any", "lane", "lane", "lane", "subset", "superset"]))
    if kind == "any":
        return tuple(draw(any_devices))
    lane = draw(st.sampled_from(LANES))
    if kind == "lane":
        return tuple(draw(st.permutations(lane)))
    if kind == "subset":
        return tuple(draw(st.lists(st.sampled_from(lane), min_size=1, max_size=len(lane) - 1,
                                   unique=True)))
    extra = draw(any_devices)
    return lane + tuple(d for d in extra if d not in lane)


@st.composite
def gangs(draw):
    devices = draw(device_sets())
    start = draw(st.integers(0, 36)) * GRID
    gate = None
    if draw(st.booleans()):
        gate = (start + draw(st.integers(0, 8)) * GRID, draw(st.booleans()))
    return Gang(
        devices=tuple(devices),
        start=start,
        mode=draw(st.sampled_from(["folded", "folded", "unfolded", "gang-plain", "split", "plain"])),
        launch_us=draw(st.sampled_from([0.0, 1.5])),
        wire_us=draw(st.sampled_from([0.0, 1.0, 2.5])),
        compute_us=draw(st.sampled_from([0.0, 2.0, 3.5])),
        gate=gate,
        prep_us=draw(st.sampled_from([0.0, 1.5, 3.0])),
        hbm=draw(st.integers(0, HBM_BYTES)),
    )


@st.composite
def faults(draw):
    kind = draw(st.sampled_from(["device", "device", "host"]))
    target = draw(st.integers(0, (N_HOSTS * PER_HOST if kind == "device" else N_HOSTS) - 1))
    at = draw(st.integers(0, 40)) * GRID
    armed = draw(st.sampled_from([0.0, at, at - GRID, at - 2 * GRID, at - 4 * GRID]))
    repair = draw(st.sampled_from([None, 1.0, 3.5, 10.0]))
    return Fault(kind, target, max(0.0, armed), at, repair)


scenarios = st.tuples(
    st.lists(gangs(), min_size=1, max_size=8),
    st.lists(faults(), max_size=4),
    st.lists(st.integers(0, 48).map(lambda k: k * GRID), max_size=2),
)


def _at(sim, when: float, fn) -> None:
    """Run ``fn()`` at ``when``, from a timeout armed now."""
    sim.timeout(when - sim.now).add_callback(lambda ev: fn())


def run_scenario(gang_specs, fault_specs, probes=()) -> dict:
    """Build the hosts and devices, run every gang, fault and probe, and
    return what the drain is judged on."""
    sim = Simulator(log_schedule=True, sanitize=True)
    config = dataclasses.replace(DEFAULT_CONFIG, hbm_bytes=HBM_BYTES)
    hosts = [Host(sim, config, h, island_id=0) for h in range(N_HOSTS)]
    devices = []
    for d in range(N_HOSTS * PER_HOST):
        dev = Device(sim, config, d, island_id=0, coords=(d, 0))
        hosts[d // PER_HOST].attach(dev)
        devices.append(dev)
    store = ShardedObjectStore(sim)
    #: Every outcome in the order it happened.
    log: list = []

    def launch(g: int, spec: Gang) -> None:
        group = DeviceGroup(None, [devices[d] for d in spec.devices], len(spec.devices))
        remaining = [len(group.hosts)]

        def on_prep(exc, parts=1):
            # A barrier over the hosts, as the executor's: it settles on
            # the first failure or the last host done.
            if remaining[0] > 0:
                remaining[0] = 0 if exc is not None else remaining[0] - parts
                if remaining[0] <= 0:
                    log.append(["prep", g, sim.now, type(exc).__name__])

        executor_module.prep_hosts(group.hosts, spec.prep_us, on_prep)
        handle, ready = store.allocate(spec.hbm, len(spec.devices), group, MemorySpace.HBM)
        ready.add_callback(lambda ev: log.append(["alloc", g, sim.now, type(ev._exc).__name__]))
        gate = None
        if spec.gate is not None:
            gate = sim.event()
            open_at, ok = spec.gate
            _at(sim, open_at, lambda: gate.succeed(None) if ok
                else gate.fail(DeviceFailure(-1, "producer lost")))
        rendezvous = device_module.CollectiveRendezvous
        n = len(spec.devices)
        if spec.mode == "folded":
            coll = rendezvous(sim, n, spec.wire_us, launch_us=spec.launch_us)
            kernels = [Kernel(sim, spec.compute_us, collective=coll, gate=gate)] * n
        elif spec.mode in ("unfolded", "gang-plain"):
            coll = rendezvous(sim, n, spec.wire_us) if spec.mode == "unfolded" else None
            kernels = [Kernel(sim, spec.compute_us, collective=coll, gate=gate)] * n
        else:
            coll = rendezvous(sim, n, spec.wire_us) if spec.mode == "split" else None
            kernels = [Kernel(sim, spec.compute_us, collective=coll, gate=gate)
                       for _ in range(n)]
        pending = [len(set(map(id, kernels)))]

        def settled(ev, k):
            log.append(["kernel", g, k, sim.now, type(ev._exc).__name__])
            pending[0] -= 1
            if pending[0] == 0:
                store.discard(handle)

        for k, kernel in enumerate(dict.fromkeys(kernels)):
            kernel.done.add_callback(lambda ev, k=k: settled(ev, k))
        if spec.mode in ("folded", "unfolded", "gang-plain"):
            executor_module.enqueue_gang(group.devices, kernels[0])
        else:
            for dev, kernel in zip(group.devices, kernels):
                dev.enqueue(kernel)

    def fault(spec: Fault) -> None:
        if spec.kind == "device":
            dev = devices[spec.target]
            dev.fail("fuzz")
            if spec.repair_us is not None:
                _at(sim, sim.now + spec.repair_us, dev.restart)
        else:
            host = hosts[spec.target]
            host.crash()
            if spec.repair_us is not None:
                _at(sim, sim.now + spec.repair_us, host.restore)

    for spec in fault_specs:
        if spec.armed <= 0.0:
            _at(sim, spec.at, lambda spec=spec: fault(spec))
        else:
            _at(sim, spec.armed, lambda spec=spec: _at(sim, spec.at, lambda: fault(spec)))
    def probe() -> None:
        log.append(["probe", sim.now, [
            (d.kernels_run, d.kernels_aborted, d.held_state()) for d in devices
        ], [(h.cpu.in_use, h.cpu.queue_len) for h in hosts]])

    for at in probes:
        _at(sim, at, probe)
    # Gangs are enqueued in one global order, so they cannot deadlock.
    for g, spec in sorted(enumerate(gang_specs), key=lambda item: item[1].start):
        _at(sim, spec.start, lambda g=g, spec=spec: launch(g, spec))
    sim.run()
    return {
        "now": sim.now,
        "log": log,
        "devices": [
            (d.kernels_run, d.kernels_aborted, d.fail_count,
             d.hbm.used, d.hbm.peak_used, d.hbm.cancellations)
            for d in devices
        ],
        "hosts": [(h.preps_aborted, h.cpu.in_use) for h in hosts],
        "schedule": list(sim.schedule_log),
    }


def _compare(gang_specs, fault_specs, probes=()) -> None:
    fast = run_scenario(gang_specs, fault_specs, probes)
    with pytest.MonkeyPatch.context() as mp:
        oracles.patch_device_drain(mp)
        slow = run_scenario(gang_specs, fault_specs, probes)
    schedule, reference = fast.pop("schedule"), slow.pop("schedule")
    assert fast == slow
    bad, removed = golden_diff.subsequence_diff(reference, schedule)
    assert bad is None, f"entry {schedule[bad]} of the gang drain is not in the oracle's"
    assert all(name == "event" or name.startswith("timeout(") for _, name in removed)


FOLDED = Gang((0, 2, 4), 0.0, "folded", 1.5, 2.5, 2.0, None, 1.5, 1)
#: No launch, wire or compute time of its own: waits on the 1.5 us
#: kernel-launch timeout only.
SYNC = Gang((0,), 0.0, "folded", 0.0, 0.0, 0.0, None, 0.0, 0)
#: A lane over four devices on four hosts, and the same gang once both
#: have long drained.
LANE = Gang((0, 2, 4, 6), 0.0, "folded", 1.5, 2.5, 2.0, None, 3.0, 1)
LATER = dataclasses.replace(LANE, start=16.0)


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(scenarios)
@example(([FOLDED], []))
# A device fault at the wire end (0 + 1.5 + 2.5), armed before and after
# the last join, then at the completion instant.
@example(([FOLDED], [Fault("device", 2, 0.0, 4.0, 1.0)]))
@example(([FOLDED], [Fault("device", 2, 2.0, 4.0, 1.0)]))
@example(([FOLDED], [Fault("device", 2, 0.0, 6.0, None)]))
@example(([FOLDED], [Fault("host", 1, 4.0, 4.0, 3.5)]))
# A wire phase with no length of its own, then a compute phase.
@example(([Gang((1, 3), 0.0, "folded", 0.0, 0.0, 3.5, None, 0.0, 0)],
          [Fault("device", 3, 0.0, 1.5, None)]))
# Consecutive gangs on shared hosts: queued preps take the CPU in a
# release and batch at the next instant.
@example(([FOLDED, dataclasses.replace(FOLDED, devices=(1, 5), mode="split"),
           dataclasses.replace(FOLDED, devices=(4, 6, 0), gate=(3.0, True))], []))
# Devices and a host prep share one 1.5 us timeout, registered device,
# prep, device: only consecutive devices may share a callback.
@example(([SYNC, Gang((0, 1), 0.0, "plain", 0.0, 0.0, 0.0, None, 1.5, 0)], []))
# A prep's CPUs are handed to queued preps of other callers in grant
# order, which orders their completions at the next instant.
@example(([dataclasses.replace(SYNC, start=0.5),
           dataclasses.replace(SYNC, devices=(0, 1, 2), start=0.5),
           dataclasses.replace(SYNC, devices=(0, 2), prep_us=1.5)], []))
# Lanes.  Two groups over one device set, in two orders, interleave.
@example(([LANE, dataclasses.replace(LANE, devices=(6, 4, 2, 0), start=0.5, mode="unfolded"),
           dataclasses.replace(LANE, start=1.0, gate=(6.0, True))], [], []))
# A strict subset, then a strict superset, of a busy lane.
@example(([LANE, dataclasses.replace(LANE, devices=(0, 2), start=0.5),
           dataclasses.replace(LANE, devices=(0, 2, 4, 6, 1), start=1.0), LATER], [], []))
# A distinct kernel sent to one lane member, then the lane re-forms.
@example(([LANE, Gang((4,), 0.5, "plain", 0.0, 0.0, 2.0, None, 1.5, 0), LATER], [], []))
# The lane re-forms in the reverse order, then splits under kernels of
# its first and last members, which resume in that order.
@example(([LANE, dataclasses.replace(LATER, devices=(6, 4, 2, 0)),
           Gang((0,), 16.5, "plain", 0.0, 0.0, 2.0, None, 0.0, 0),
           Gang((6,), 16.5, "plain", 0.0, 0.0, 2.0, None, 0.0, 0)], [], []))
# Faults while the lane is gated, joined, in the wire or compute phase.
@example(([dataclasses.replace(LANE, gate=(5.0, True)), LATER],
          [Fault("device", 2, 0.0, 2.0, 1.0)], []))
@example(([LANE, dataclasses.replace(LANE, start=0.5)], [Fault("device", 4, 0.0, 2.0, None)], []))
@example(([LANE, LATER], [Fault("device", 0, 1.0, 3.5, 3.5)], []))
@example(([LANE, LATER], [Fault("device", 6, 0.0, 6.0, 1.0)], []))
# A host crash while the lane's CPU is held, then while preps queue for
# it; probes hand the lane CPU back mid-hold and mid-queue.
@example(([LANE, dataclasses.replace(LANE, start=0.5), LATER],
          [Fault("host", 1, 0.0, 1.0, 1.0)], [0.5, 3.5]))
@example(([LANE, dataclasses.replace(LANE, start=0.0, devices=(2, 0, 6, 4)),
           dataclasses.replace(LANE, start=0.5)], [Fault("host", 2, 0.0, 2.0, None)], [1.0]))
def test_gang_drain_matches_per_device_drain(scenario):
    _compare(*scenario)


class TestRendezvousTimings:
    @pytest.mark.parametrize("field", ["duration_us", "compute_us", "launch_us"])
    def test_negative_timing_rejected(self, sim, field):
        if field == "compute_us":
            # The compute phase a join brings is its kernel's duration.
            with pytest.raises(ValueError, match="negative kernel duration"):
                Kernel(sim, -0.5)
            return
        kwargs = {"duration_us": 1.0, field: -0.5}
        with pytest.raises(ValueError, match="negative collective time"):
            device_module.CollectiveRendezvous(sim, 2, **kwargs)

    def test_release_is_one_entry_at_the_folded_instant(self):
        """Launch + wire and compute end at the float the two timeouts
        reached: ``(join + (launch + wire)) + compute``, one entry named
        for the compute timeout."""
        tracer = Tracer()
        sim = Simulator(log_schedule=True, tracer=tracer)
        dev = Device(sim, DEFAULT_CONFIG, 0, island_id=0, coords=(0, 0))
        coll = device_module.CollectiveRendezvous(sim, 1, 0.2, launch_us=1.5)
        kernel = Kernel(sim, 0.7, collective=coll)
        sim.timeout(0.1).add_callback(lambda ev: dev.enqueue(kernel))
        sim.run()
        assert sim.schedule_log == [
            (0.1, "timeout(0.1)"),
            ((0.1 + (1.5 + 0.2)) + 0.7, "timeout(0.7)"),
        ]
        assert kernel.done.ok and dev.kernels_run == 1
        [span] = tracer.by_cat("kernel")
        assert (span.start_us, span.end_us) == (0.1 + 1.5, sim.now)



class TestMemberSymmetry:
    """Without faults, how many devices stand for an aggregate gang
    changes no simulated result: the member-independence lanes build on."""

    @staticmethod
    def _chained(mp, reps: int):
        init = ResourceManager.__init__

        def with_reps(self, *args, **kwargs):
            kwargs["max_simulated_per_group"] = reps
            init(self, *args, **kwargs)

        mp.setattr(ResourceManager, "__init__", with_reps)
        r = run_pathways("chained", 16, devices_per_host=8, n_calls=4)
        return r.sim_elapsed_us, r.computations_per_second, r.sim_events

    def test_chained_dispatch_is_independent_of_simulated_members(self, monkeypatch):
        results = {reps: self._chained(monkeypatch, reps) for reps in (1, 4, 16)}
        assert results[1] == results[4] == results[16], results
