"""Fault paths no other test, bench, example or e2e workload executes.

One test per path, each under the sim-sanitizer (drain-end sweeps for
stranded waiters, leaked slots and lanes), and each asserting that
every request or step ends in exactly one typed outcome:

* serving -- a batch abandoned by a non-deadline failure, a request
  lost on its way in and a response lost on its way out (both
  ``net-lost``), and the batcher backing off while its replica's slice
  is unbound mid-remap;
* recovery -- a remap that exhausts its attempts with no healthy
  capacity, a remap that fails fatally, and the churn driver's exit on
  the abandoned step they end in.
"""

from __future__ import annotations

import pytest

from repro.config import DEFAULT_CONFIG
from repro.core.dispatch import MAX_REMAP_ATTEMPTS, ExecutionAbandoned
from repro.core.scheduler import EarliestDeadlinePolicy
from repro.core.system import PathwaysSystem
from repro.hw.cluster import ClusterSpec
from repro.models.transformer import DECODER_3B
from repro.resilience import RecoveryManager
from repro.serve import REJECT_NET_LOST, Frontend, ReplicaSet
from repro.workloads.churn import run_churn
from repro.xla.computation import scalar_allreduce_add

SLO_US = 500_000.0


@pytest.fixture(autouse=True)
def sanitized(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_SANITIZE", "1")


def _serving(hosts: int, recovery: bool = True):
    """One island of ``hosts`` x 4 devices serving one 4-device replica
    (on the first host, the frontend's) over the contended fabric."""
    system = PathwaysSystem.build(
        ClusterSpec(islands=((hosts, 4),), name="serve-faults"),
        config=DEFAULT_CONFIG.with_overrides(net_contention=True),
        policy=EarliestDeadlinePolicy(),
    )
    assert system.sim.sanitize
    if recovery:
        RecoveryManager(system, detection_us=500.0)
    rset = ReplicaSet(
        system, DECODER_3B, devices_per_replica=4, tokens_per_request=32,
        max_batch=4, max_wait_us=2_000.0,
    )
    frontend = Frontend(system, rset)
    rset.grow(initial=True)
    return system, frontend, rset.replicas[0]


def _outcomes(frontend, reqs) -> list[str]:
    """Each request's one terminal outcome; the frontend's counters
    must account for every arrival exactly once."""
    outcomes = []
    for req in reqs:
        ends = [
            name
            for name, ended in (
                ("completed", req.completed_us > 0),
                (req.rejected, req.rejected is not None),
                ("abandoned", req.abandoned),
            )
            if ended
        ]
        assert len(ends) == 1, (req.req_id, ends)
        outcomes.append(ends[0])
    assert frontend.outstanding == 0
    assert frontend.completed + frontend.total_rejected + frontend.abandoned == frontend.arrived
    return outcomes


class TestServeFaultPaths:
    def test_abandoned_batch_settles_each_rider_once(self):
        """With no recovery attached, a device lost under a batch fails
        its execution outright: the batcher abandons the whole batch."""
        system, frontend, replica = _serving(hosts=2, recovery=False)
        reqs = [frontend.submit_from(system.cluster.hosts[1], 24, 8, SLO_US) for _ in range(4)]
        system.sim.timeout(1_000.0).add_callback(
            lambda ev: replica.vslice.group.devices[0].fail("test")
        )
        system.sim.run()
        assert replica.batches == 1
        assert _outcomes(frontend, reqs) == ["abandoned"] * 4
        assert frontend.abandoned == 4

    def test_request_leg_loss_is_net_lost(self):
        """The frontend's host crashes while requests cross the fabric
        to it: they never arrive."""
        system, frontend, replica = _serving(hosts=2)
        reqs = [frontend.submit_from(system.cluster.hosts[1], 24, 8, SLO_US) for _ in range(2)]
        system.sim.timeout(1.0).add_callback(
            lambda ev: system.recovery.crash_host(frontend.host)
        )
        system.sim.run()
        assert _outcomes(frontend, reqs) == [REJECT_NET_LOST] * 2
        assert frontend.admitted == 0 and replica.batches == 0

    def test_response_leg_loss_is_net_lost(self, monkeypatch):
        """The batch is served, then the client's host crashes as the
        responses leave the replica: served on device, lost on the way
        back."""
        system, frontend, replica = _serving(hosts=2)
        client_host = system.cluster.hosts[1]
        reqs = [frontend.submit_from(client_host, 24, 8, SLO_US) for _ in range(2)]
        complete_batch = frontend.complete_batch

        def complete_then_crash(batch, replica):
            complete_batch(batch, replica)
            system.recovery.crash_host(client_host)

        monkeypatch.setattr(frontend, "complete_batch", complete_then_crash)
        system.sim.run()
        assert _outcomes(frontend, reqs) == [REJECT_NET_LOST] * 2
        assert replica.requests_served == 2
        assert all(req.done_us > 0 for req in reqs)

    def test_batcher_backs_off_while_slice_is_unbound(self):
        """Every device under the replica fails with a batch in flight,
        and recovery cannot rebind the slice until a repair: the batcher
        holds the requests that arrive meanwhile, backing off, and
        serves them once the slice is bound again."""
        system, frontend, replica = _serving(hosts=1)
        sim, recovery = system.sim, system.recovery
        host = system.cluster.hosts[0]
        first = [frontend.submit_from(host, 24, 8, SLO_US) for _ in range(4)]
        later = []
        seen = []

        def fail_all(ev):
            assert len(replica.in_flight) == 1
            for device in replica.vslice.group.devices:
                recovery.fail_device(device)
            sim.timeout(3_000.0).add_callback(
                lambda ev: later.extend(
                    frontend.submit_from(host, 24, 8, SLO_US) for _ in range(2)
                )
            )
            sim.timeout(17_500.0).add_callback(  # between two window closes
                lambda ev: seen.append((replica.vslice.bound, replica.batcher._state))
            )
            sim.timeout(30_000.0).add_callback(
                lambda ev: [recovery.repair_device(d) for d in system.cluster.devices]
            )

        sim.timeout(2_500.0).add_callback(fail_all)
        sim.run()
        assert seen == [(False, "backoff")]
        assert _outcomes(frontend, first + later) == ["completed"] * 6
        # Held through the outage: batched only after the repair.
        assert all(req.batched_us > 32_500.0 for req in later)
        assert recovery.stats().remaps == 1 and replica.batches == 2


def _stranded_steps(fail_rebind=None):
    """Two retrying steps on a 1 x 4 island whose devices all fail for
    good under them; returns each step's settle time and error."""
    system = PathwaysSystem.build(ClusterSpec(islands=((1, 4),), name="remap"))
    recovery = RecoveryManager(system)
    client = system.client("c")
    devs = system.make_virtual_device_set().add_slice(tpu_devices=4)
    step = client.wrap(scalar_allreduce_add(4, 1_000.0), devices=devs)
    sim = system.sim
    executions = [
        client.submit(step.solo_program, (0.0,), compute_values=False, retry_on_failure=True)
        for _ in range(2)
    ]
    sim.timeout(500.0).add_callback(
        lambda ev: [recovery.fail_device(d) for d in devs.group.devices]
    )
    if fail_rebind is not None:
        system.resource_manager.rebind_slice = fail_rebind
    outcomes = []
    for execution in executions:
        execution.done.add_callback(lambda ev: outcomes.append((sim.now, ev._exc)))
    sim.run()
    assert len(outcomes) == 2  # one outcome per step
    assert client.stats().executions_abandoned == 2
    assert recovery.stats().remaps == 0
    return outcomes


class TestRecoveryFaultPaths:
    def test_exhausted_remap_abandons_the_execution(self):
        """No healthy capacity ever returns: each step's remap backs off
        ``MAX_REMAP_ATTEMPTS`` times, then the step is abandoned with
        the remap's error as its cause."""
        outcomes = _stranded_steps()
        for _, exc in outcomes:
            assert isinstance(exc, ExecutionAbandoned)
            assert isinstance(exc.cause, RuntimeError)
            assert f"after {MAX_REMAP_ATTEMPTS} remap attempts" in str(exc.cause)
        assert outcomes[0][0] > MAX_REMAP_ATTEMPTS * 5_000.0 - 5_000.0

    def test_fatal_rebind_abandons_the_execution(self):
        """A rebind that fails with anything but "no capacity" is fatal:
        no backoff, each step is abandoned at once with that error."""

        def broken(vslice):
            raise KeyError("resource manager lost the island")

        outcomes = _stranded_steps(fail_rebind=broken)
        for when, exc in outcomes:
            assert isinstance(exc, ExecutionAbandoned)
            assert isinstance(exc.cause, KeyError)
            assert when < 5_000.0

    def test_churn_driver_exits_on_abandoned_step(self):
        """Permanent faults take every device of the only island: the
        tenant's step is abandoned and its driver stops there."""
        r = run_churn(
            n_clients=1, steps_per_client=6, slice_devices=4, n_hosts=1,
            devices_per_host=4, mtbf_us=3_000.0, repair_us=0.0, seed=1,
        )
        assert r.system_handle.sim.sanitize
        assert r.abandoned == ["tenant0"]
        assert r.useful_steps == r.per_client_steps["tenant0"] < 6
        client = r.system_handle.client("tenant0")
        assert client.stats().executions_abandoned == 1
        assert r.faults_injected == 4 and r.remaps == 0
