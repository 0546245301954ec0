"""Workloads as tenants on one system.

* **Composition** -- one two-island system carries a serving tenant, a
  churn training tenant and a netload tenant at once, under one
  recovery manager and one device fault delivered by a
  ``FaultInjector``, and drains once.  Each tenant's own outcomes are
  checked, then the shared transport and fabric (sanitized).
* **One build, one drain** -- the contract ``benchmarks/e2e/run.py``
  depends on: its ``Probe`` captures systems by wrapping
  ``PathwaysSystem.build`` and times drains by wrapping
  ``Simulator.run_until_triggered``, so each measured driver must build
  exactly one system and make exactly one outermost drain call.
* **Typed probe failures** -- the netload prober counts only typed
  losses as probe failures and re-raises anything else.
"""

from __future__ import annotations

import hashlib
import re
from unittest import mock

import pytest

import repro.workloads.netload as netload_module
from repro.config import DEFAULT_CONFIG
from repro.core.client import PathwaysClient
from repro.core.dispatch import ExecutionAbandoned
from repro.core.scheduler import EarliestDeadlinePolicy
from repro.core.system import PathwaysSystem
from repro.faults import FaultError
from repro.hw.cluster import ClusterSpec
from repro.resilience import FaultInjector, FaultSchedule, RecoveryManager
from repro.sim import ProcessFailed, Simulator
from repro.workloads import (
    attach_netload,
    attach_serving,
    attach_training,
    run_churn,
    run_net_congestion,
    run_pathways,
    run_serving,
)

TRAINING_STEPS = 10


@pytest.fixture(autouse=True)
def sanitized(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_SANITIZE", "1")


def _composed():
    """Serving, churn training and netload on one two-island system;
    a device under the training tenant's first slice fails at 3 ms and
    is repaired 10 ms later."""
    system = PathwaysSystem.build(
        ClusterSpec(islands=((4, 4),) * 2, name="tenants"),
        config=DEFAULT_CONFIG.with_overrides(net_contention=True),
        policy=EarliestDeadlinePolicy(),
        log_schedule=True,
    )
    recovery = RecoveryManager(system, detection_us=500.0)
    rm = system.resource_manager

    def bound() -> list:
        return [s for isl in rm.islands for s in rm.bound_slices_on(isl.island_id)]

    serving = attach_serving(system, rate_rps=400.0, duration_us=100_000.0)
    before = {id(s) for s in bound()}
    training = attach_training(
        system, n_clients=2, steps_per_client=TRAINING_STEPS,
        compute_time_us=1_000.0, checkpoint_interval_us=5_000.0,
        state_bytes=1 << 20,
    )
    victim = next(s for s in bound() if id(s) not in before).group.devices[0]
    with mock.patch.object(netload_module, "PROBE_ELEMS", 1 << 16):
        netload = attach_netload(
            system, n_senders=2, streams=2, flow_bytes=1 << 20,
            duration_us=20_000.0, n_probes=2, resilient=True,
        )
    injector = FaultInjector(
        recovery,
        FaultSchedule().device_failure(3_000.0, victim.device_id, repair_us=10_000.0),
    )
    sim = system.sim
    sim.drain(sim.all_of([serving.done, training.done, netload.done]))
    schedule = [(t, re.sub(r"#\d+", "#N", name)) for t, name in sim.schedule_log]
    digest = hashlib.sha256(repr(schedule).encode()).hexdigest()
    return system, injector, serving.result(), training.result(), netload.result(), digest


class TestComposedTenants:
    def test_each_tenant_and_the_shared_fabric_account_for_their_work(self):
        system, injector, serve, train, net, _ = _composed()
        assert system.sim.sanitize
        assert injector.stats().injected == 1

        # Serving: every request its own frontend saw ends in one outcome.
        assert serve.arrived > 0
        assert serve.arrived == serve.completed + serve.total_rejected + serve.abandoned
        [frontend] = system.frontends
        assert frontend.stats().arrived == serve.arrived

        # Training: every client reached its step count, or its step was
        # abandoned with a typed cause (the driver catches only
        # ExecutionAbandoned; anything else fails the drain).
        assert train.recoveries >= 1
        for name, steps in train.per_client_steps.items():
            if name in train.abandoned:
                assert system.client(name).stats().executions_abandoned >= 1
            else:
                assert steps == TRAINING_STEPS
        assert train.elapsed_us > 0

        # Netload: its senders delivered and its probes ran.
        assert net.bytes_delivered > 0
        assert net.probes_run + net.probe_failures == 2

        # The shared transport: every message delivered, typed-lost or
        # parked; the fabric idle and no NIC slot held.
        t = system.transport.stats()
        assert t.messages_sent == t.messages_delivered + t.messages_lost + t.parked_now
        assert system.cluster.fabric.idle and net.fabric_idle and serve.fabric_idle
        assert net.nic_slots_leaked == 0

        # Tenant results read tenant-owned state: serving's deadline
        # rejections count only its replica clients.
        assert serve.deadline_rejections == sum(
            c.deadline_rejections
            for c in system.stats().clients
            if c.name.startswith("serve.")
        )

    def test_rerun_gives_the_same_schedule(self):
        *_, first = _composed()
        *_, second = _composed()
        assert first == second


def _counting(monkeypatch) -> dict:
    """Class-level wrappers, as ``benchmarks/e2e/run.py``'s ``Probe``
    installs them (``monkeypatch`` restores both): systems built, and
    outermost drains by method."""
    counts = {"build": 0, "run": 0, "run_until_triggered": 0}
    build = PathwaysSystem.__dict__["build"].__func__

    def counting_build(*args, **kwargs):
        counts["build"] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(PathwaysSystem, "build", staticmethod(counting_build))
    draining = [False]
    for name in ("run", "run_until_triggered"):
        drain = getattr(Simulator, name)

        def counted(sim, *args, _drain=drain, _name=name, **kwargs):
            if draining[0]:
                return _drain(sim, *args, **kwargs)
            counts[_name] += 1
            draining[0] = True
            try:
                return _drain(sim, *args, **kwargs)
            finally:
                draining[0] = False

        monkeypatch.setattr(Simulator, name, counted)
    return counts


DRIVERS = {
    "serving": lambda: run_serving(duration_us=20_000.0, fail_replica_at=10_000.0),
    "churn": lambda: run_churn(
        n_clients=2, steps_per_client=4, compute_time_us=1_000.0,
        mtbf_us=20_000.0, checkpoint_interval_us=2_000.0, state_bytes=1 << 20,
        add_island_at=(2_000.0, 1, 4),
    ),
    "pathways": lambda: run_pathways("chained", 2, n_calls=2),
    "netload": lambda: run_net_congestion(
        n_senders=2, streams=1, hosts_per_island=2, devices_per_host=2,
        duration_us=10_000.0, n_probes=1, crash_sender_at=3_000.0,
        link_down_at=4_000.0,
    ),
}


class TestOneBuildOneDrain:
    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_one_build_and_one_outermost_drain(self, driver, monkeypatch):
        counts = _counting(monkeypatch)
        DRIVERS[driver]()
        assert counts == {"build": 1, "run": 0, "run_until_triggered": 1}


def _stub_probe(monkeypatch, exc: BaseException) -> None:
    """The probe client's first execution fails with ``exc`` 1 µs after
    submit; every other submission is untouched."""
    submit = PathwaysClient.submit

    class _Failed:
        def __init__(self, sim):
            self.done = sim.event()
            sim.timeout(1.0).add_callback(lambda _ev: self.done.fail(exc))

        def release_results(self):
            pass

    def stubbed(client, *args, **kwargs):
        if client.name == "probe":
            return _Failed(client.system.sim)
        return submit(client, *args, **kwargs)

    monkeypatch.setattr(PathwaysClient, "submit", stubbed)


_NET = dict(n_senders=1, streams=1, hosts_per_island=2, devices_per_host=2,
            duration_us=5_000.0, n_probes=1)


class TestTypedProbeFailures:
    @pytest.mark.parametrize("exc", [
        ExecutionAbandoned("probe", 16, FaultError("device lost")),
        FaultError("message lost"),
    ], ids=["abandoned", "fault"])
    def test_typed_loss_counts_as_a_probe_failure(self, exc, monkeypatch):
        _stub_probe(monkeypatch, exc)
        r = run_net_congestion(**_NET)
        assert r.probe_failures == 1 and r.probes_run == 0

    def test_other_exception_is_raised_not_counted(self, monkeypatch):
        bug = ValueError("a bug, not a lost probe")
        _stub_probe(monkeypatch, bug)
        with pytest.raises(ProcessFailed) as info:
            run_net_congestion(**_NET)
        assert info.value.cause is bug
