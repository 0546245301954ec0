"""Tests for the online-serving subsystem (repro.serve).

Covers the arrival generators, the latency recorder, continuous
batching (window semantics, partial-batch no-starvation), SLO admission
and every typed rejection path, replica retire/drain integration with
the elastic controller, the autoscaler's grow/shrink loop, and the
replica-loss recovery drill.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

import repro.serve.autoscale as autoscale_module
import repro.serve.frontend as frontend_module
import repro.serve.replicas as replicas_module
from repro.config import DEFAULT_CONFIG
from repro.core.scheduler import EarliestDeadlinePolicy
from repro.core.system import PathwaysSystem
from repro.hw.cluster import ClusterSpec
from repro.models.transformer import DECODER_3B
from repro.resilience import ElasticController, RecoveryManager
from repro.serve import (
    Autoscaler,
    Frontend,
    LatencyRecorder,
    REJECT_EVICTED,
    REJECT_EXPIRED,
    REJECT_INFEASIBLE,
    REJECT_NO_CAPACITY,
    REJECT_QUEUE_FULL,
    ReplicaSet,
)
from repro.telemetry.histogram import percentile
from repro.workloads.serving import (
    diurnal_arrivals,
    poisson_arrivals,
    run_serving,
)


# -- arrival processes --------------------------------------------------------
class TestArrivals:
    def test_poisson_rate_and_determinism(self):
        a = poisson_arrivals(1000.0, 1_000_000.0, seed=3)
        b = poisson_arrivals(1000.0, 1_000_000.0, seed=3)
        assert np.array_equal(a, b)
        # ~1000 arrivals over one second; Poisson 5-sigma band.
        assert 800 <= a.size <= 1200
        assert a[0] >= 0.0 and a[-1] < 1_000_000.0
        assert np.all(np.diff(a) >= 0)

    def test_poisson_empty_for_zero_rate(self):
        assert poisson_arrivals(0.0, 1e6).size == 0

    def test_diurnal_peaks_mid_period(self):
        a = diurnal_arrivals(1000.0, 1_000_000.0, amplitude=0.9, seed=1)
        # Trough at the edges, peak in the middle: the middle half
        # carries far more than the outer half.
        mid = ((a > 250_000.0) & (a < 750_000.0)).sum()
        outer = a.size - mid
        assert mid > 2 * outer
        assert 700 <= a.size <= 1300  # mean preserved-ish

    def test_diurnal_rejects_bad_amplitude(self):
        with pytest.raises(ValueError, match="amplitude"):
            diurnal_arrivals(100.0, 1e6, amplitude=1.5)


class TestPercentile:
    def test_nearest_rank(self):
        vals = list(range(1, 101))
        assert percentile(vals, 50) == 50
        assert percentile(vals, 99) == 99
        assert percentile(vals, 100) == 100
        assert percentile(vals, 0) == 1
        assert percentile([], 99) == 0.0

    def test_recorder_breakdown_sums_to_total(self):
        from repro.serve.frontend import Request

        rec = LatencyRecorder()
        req = Request(
            req_id=1, src_host=None, prompt_tokens=8, gen_tokens=8,
            slo_us=10_000.0, arrival_us=100.0,
        )
        req.received_us = 140.0
        req.batched_us = 1_140.0
        req.compute_us = 2_000.0
        req.done_us = 4_140.0
        req.completed_us = 4_180.0
        total = rec.record(req)
        assert total == pytest.approx(4_080.0)
        snap = rec.snapshot()
        assert sum(snap.stage_mean_us.values()) == pytest.approx(total)
        assert snap.slo_met == 1 and snap.slo_missed == 0


# -- unit-level serving stack -------------------------------------------------
def advance(sim, us):
    """Drive the simulator ``us`` microseconds forward (Timeout events
    are pre-valued, so run_until_triggered needs a process wrapper)."""

    def _sleep():
        yield sim.timeout(us)

    sim.run_until_triggered(sim.process(_sleep()))


def make_serving_system(islands=1, hosts=2, devices=4):
    system = PathwaysSystem.build(
        ClusterSpec(islands=((hosts, devices),) * islands, name="serve-test"),
        config=DEFAULT_CONFIG.with_overrides(net_contention=True),
        policy=EarliestDeadlinePolicy(),
    )
    RecoveryManager(system, detection_us=500.0)
    ElasticController(system)
    return system


def make_stack(system, n_replicas=1, max_batch=4, max_wait_us=2_000.0):
    rset = ReplicaSet(
        system, DECODER_3B, devices_per_replica=4, tokens_per_request=32,
        max_batch=max_batch, max_wait_us=max_wait_us,
    )
    frontend = Frontend(system, rset)
    for _ in range(n_replicas):
        rset.grow(initial=True)
    return frontend, rset


class TestContinuousBatching:
    def test_partial_batch_never_starves(self):
        """A lone request is served after max_wait_us, not never."""
        system = make_serving_system()
        frontend, rset = make_stack(system)
        host = system.cluster.hosts[1]
        req = frontend.submit_from(host, 24, 8, 50_000.0)
        system.sim.run()
        assert req.completed_us > 0 and req.rejected is None
        # It waited out (roughly) one full coalescing window.
        assert req.batched_us - req.received_us == pytest.approx(
            rset.max_wait_us, rel=0.01
        )
        assert rset.replicas[0].batches == 1

    def test_full_batch_closes_window_early(self):
        system = make_serving_system()
        frontend, rset = make_stack(system, max_batch=4)
        host = system.cluster.hosts[1]
        reqs = [frontend.submit_from(host, 24, 8, 50_000.0) for _ in range(4)]
        system.sim.run()
        assert all(r.completed_us > 0 for r in reqs)
        # All four arrived together: one batch, no window wait.
        assert rset.replicas[0].batches == 1
        assert reqs[0].batched_us - reqs[0].received_us < rset.max_wait_us

    def test_oversize_burst_splits_into_batches(self):
        system = make_serving_system()
        frontend, rset = make_stack(system, max_batch=4)
        host = system.cluster.hosts[1]
        for _ in range(10):
            frontend.submit_from(host, 24, 8, 200_000.0)
        system.sim.run()
        assert frontend.completed == 10
        assert rset.replicas[0].batches == 3  # 4 + 4 + 2
        assert rset.replicas[0].requests_served == 10

    def test_batch_latency_breakdown_recorded(self):
        system = make_serving_system()
        frontend, _ = make_stack(system)
        host = system.cluster.hosts[1]
        frontend.submit_from(host, 24, 8, 50_000.0)
        system.sim.run()
        snap = frontend.recorder.snapshot()
        assert snap.count == 1
        # Every stage contributed: net (two DCN legs), queue (window),
        # dispatch (controller+prep+grant), compute.
        assert snap.stage_mean_us["net"] >= 2 * system.config.dcn_latency_us
        assert snap.stage_mean_us["queue"] > 0
        assert snap.stage_mean_us["dispatch"] > 0
        assert snap.stage_mean_us["compute"] > 0


class TestAdmission:
    def test_no_capacity_rejection(self):
        system = make_serving_system()
        frontend, _ = make_stack(system, n_replicas=0)
        req = frontend.submit_from(system.cluster.hosts[1], 24, 8, 50_000.0)
        system.sim.run()
        assert req.rejected == REJECT_NO_CAPACITY
        assert frontend.rejections[REJECT_NO_CAPACITY] == 1
        assert frontend.outstanding == 0

    def test_infeasible_deadline_rejection(self):
        """A request whose SLO cannot cover even one batch service is
        turned away before hardware is committed."""
        system = make_serving_system()
        frontend, _ = make_stack(system)
        req = frontend.submit_from(system.cluster.hosts[1], 24, 8, 1_000.0)
        system.sim.run()
        assert req.rejected == REJECT_INFEASIBLE
        assert frontend.completed == 0

    def test_queue_full_rejection(self):
        system = make_serving_system()
        frontend, _ = make_stack(system)
        host = system.cluster.hosts[1]
        with mock.patch.multiple(
            frontend_module, MAX_QUEUE_PER_REPLICA=2, ADMISSION_SLACK=1e9
        ):
            for _ in range(30):
                frontend.submit_from(host, 24, 8, 10_000_000.0)
            system.sim.run()
        assert frontend.rejections.get(REJECT_QUEUE_FULL, 0) > 0
        assert frontend.completed + frontend.total_rejected == 30

    def test_expired_in_queue_rejection(self):
        """Admission off: a request whose deadline passes inside the
        coalescing window leaves as a typed expiry, not a submission."""
        system = make_serving_system()
        frontend, rset = make_stack(system, max_wait_us=5_000.0)
        with mock.patch.object(frontend_module, "ADMISSION", False):
            req = frontend.submit_from(system.cluster.hosts[1], 24, 8, 1_000.0)
            system.sim.run()
        assert req.rejected == REJECT_EXPIRED
        assert rset.replicas[0].batches == 0

    def test_every_arrival_gets_exactly_one_outcome(self):
        r = run_serving(
            rate_rps=1_500.0, duration_us=100_000.0, seed=9,
            islands=1, n_replicas=1, hosts_per_island=2,
        )
        assert r.completed + r.total_rejected == r.arrived
        assert r.abandoned == 0
        assert r.fabric_idle


class TestDeadlineEvictionBackstop:
    def test_scheduler_evicts_unwinnable_gangs_typed(self):
        """With admission off, overload reaches the island scheduler,
        whose PR-4 deadline eviction turns it into typed
        ``deadline-evicted`` rejections (and the per-client counter) —
        never abandons."""
        with mock.patch.object(frontend_module, "ADMISSION", False), \
                mock.patch.object(replicas_module, "MAX_IN_FLIGHT", 8):
            r = run_serving(
                rate_rps=2_500.0,
                duration_us=60_000.0,
                islands=1,
                hosts_per_island=2,
                n_replicas=1,
                max_batch=2,
                max_wait_us=200.0,
                slo_us=20_000.0,
                seed=4,
            )
        assert r.rejections.get(REJECT_EVICTED, 0) > 0, r.rejections
        assert r.deadline_rejections > 0
        assert r.abandoned == 0
        assert r.completed + r.total_rejected == r.arrived
        # The evictions freed the queue: completed requests still met
        # their SLO (nothing camped past its deadline on device queues).
        assert r.completed > 0


class TestRetireAndDrain:
    def test_retire_finishes_queue_then_releases(self):
        system = make_serving_system(islands=2)
        frontend, rset = make_stack(system, n_replicas=2)
        host = system.cluster.hosts[1]
        reqs = [frontend.submit_from(host, 24, 8, 100_000.0) for _ in range(6)]
        victim = rset.replicas[0]
        retired = rset.retire(victim)
        system.sim.run()
        assert retired.triggered
        assert victim not in rset.replicas
        assert not victim.vslice.bound
        # Everything it had queued still completed.
        assert all(r.completed_us > 0 for r in reqs)
        assert rset.width == 1
        assert rset.scale_downs == 1

    def test_island_drain_vacates_replicas_and_hands_back(self):
        """The autoscaler implements the elastic-workload protocol: an
        island drain retires its replicas and completes the handback."""
        system = make_serving_system(islands=2)
        frontend, rset = make_stack(system, n_replicas=2)
        scaler = Autoscaler(
            system, frontend, rset, min_replicas=1, max_replicas=2
        )
        assert scaler in system.elastic.workloads
        drained_island = rset.replicas[0].island_id
        handback = system.elastic.drain_island(drained_island)
        host = system.cluster.hosts[-1]
        for _ in range(4):
            frontend.submit_from(host, 24, 8, 100_000.0)
        all_done = frontend.close()
        # The autoscaler tick is a perpetual timer, so drive to
        # the drained-and-served condition rather than loop exhaustion.
        system.sim.run_until_triggered(system.sim.all_of([all_done, handback]))
        assert handback.triggered
        assert not rset.replicas_on(drained_island)
        # Serving continued on the surviving island.
        assert frontend.completed == 4
        assert system.elastic.handbacks == 1


class TestSpinupFailure:
    def test_lost_weights_transfer_unwinds_replica(self):
        """A crash under the weights transfer must not leave a zombie
        replica in the pool (it would block growth and wedge drains)."""
        system = make_serving_system(islands=2)
        frontend, rset = make_stack(system, n_replicas=1)
        victim_island = 1 - rset.replicas[0].island_id
        grown = rset.grow()  # the island with no replica yet
        assert grown is not None and not grown.active
        assert grown.island_id == victim_island
        target_host = grown.lead_host

        def crash():
            yield system.sim.timeout(10.0)  # mid-transfer (~5 ms for 64 MB)
            system.recovery.crash_host(target_host)

        system.sim.process(crash())
        advance(system.sim, 20_000.0)
        # The failed spin-up unwound: pool back to one replica, the
        # slice released, no scale-up or scale-down counted.
        assert grown not in rset.replicas
        assert not grown.vslice.bound
        assert len(rset.replicas) == 1
        assert rset.scale_ups == 0 and rset.scale_downs == 0
        # Retiring the unwound replica is a no-op with a fired event
        # (the drain path cannot wedge on it).
        assert rset.retire(grown).triggered

    def test_retire_during_spinup_hands_hardware_back(self):
        system = make_serving_system(islands=2)
        frontend, rset = make_stack(system, n_replicas=1)
        grown = rset.grow()
        assert grown.island_id == 1 - rset.replicas[0].island_id
        retired = rset.retire(grown)  # before the weights arrive
        advance(system.sim, 20_000.0)
        assert retired.triggered
        assert grown not in rset.replicas and not grown.vslice.bound
        assert rset.scale_ups == 0  # it never became routable


class TestAutoscaler:
    @mock.patch.object(autoscale_module, "SHRINK_PATIENCE", 10)
    def test_grows_from_zero_on_rejected_demand(self):
        """With no routable replica, demand shows up as instantly
        rejected arrivals (outstanding is only non-zero for µs); the
        tick keys growth off arrivals-since-last-tick instead."""
        system = make_serving_system(islands=2)
        frontend, rset = make_stack(system, n_replicas=1)
        Autoscaler(
            system, frontend, rset, min_replicas=0, max_replicas=1,
            interval_us=2_000.0,
        )
        sim = system.sim
        host = system.cluster.hosts[1]

        # Quiet spell: the autoscaler shrinks to zero replicas.
        advance(sim, 30_000.0)
        assert rset.width == 0
        # Demand returns: the first wave is rejected no-capacity
        # within microseconds (outstanding drops straight back to 0)...
        for _ in range(4):
            frontend.submit_from(host, 24, 8, 50_000.0)
        advance(sim, 12_000.0)  # one tick + the weights spin-up
        assert frontend.rejections.get(REJECT_NO_CAPACITY, 0) >= 1
        # ...but the arrivals-since-last-tick signal triggered a regrow.
        assert rset.width == 1
        assert rset.scale_ups == 1
        # The regrown replica serves the next wave.
        for _ in range(4):
            frontend.submit_from(host, 24, 8, 50_000.0)
        done = frontend.close()
        sim.run_until_triggered(done)
        assert frontend.completed >= 4

    def test_grows_on_backlog_and_shrinks_when_idle(self):
        """One diurnal day (50..950 rps): the pool grows into the peak
        and shrinks again as the evening trough empties the queues."""
        r = run_serving(
            arrival="diurnal",
            rate_rps=500.0,
            diurnal_amplitude=0.9,
            duration_us=600_000.0,
            islands=3,
            hosts_per_island=1,
            n_replicas=1,
            autoscale=True,
            max_replicas=3,
            autoscale_interval_us=5_000.0,
            slo_us=80_000.0,
            seed=6,
        )
        assert r.scale_ups >= 1
        assert r.scale_downs >= 1
        assert r.width_peak >= 2
        assert r.abandoned == 0

    def test_respects_max_replicas_and_island_slots(self):
        system = make_serving_system(islands=1, hosts=1, devices=4)
        frontend, rset = make_stack(system, n_replicas=1)
        # One island, one slot: no second replica can be placed.
        assert rset.pick_island() is None
        assert rset.grow() is None

    def test_prefers_idle_uplink_island(self):
        """Growth placement reads the fabric-utilization snapshot."""
        system = make_serving_system(islands=3)
        frontend, rset = make_stack(system, n_replicas=0)
        transport = system.transport
        # Saturate island 1's uplink with background traffic.
        src = system.cluster.islands[1].hosts[0]
        dst = system.cluster.islands[2].hosts[0]

        def bulk():
            for _ in range(4):
                yield transport.send(src, dst, 8 << 20)

        proc = system.sim.process(bulk())
        system.sim.run_until_triggered(proc)
        # Islands 1 and 2 carried uplink traffic; island 0 did not.
        assert rset.pick_island() == 0


class TestReplicaRecovery:
    def test_device_failure_replays_and_recovers(self):
        r = run_serving(
            rate_rps=500.0,
            duration_us=150_000.0,
            fail_replica_at=50_000.0,
            repair_us=30_000.0,
            seed=2,
        )
        assert r.recoveries >= 1
        assert r.abandoned == 0
        assert r.completed + r.total_rejected == r.arrived
        assert r.slo_attainment >= 0.8
        assert r.fabric_idle

    def test_capacity_model_sane(self):
        r = run_serving(rate_rps=100.0, duration_us=50_000.0, seed=1)
        assert r.capacity_rps > 0
        assert r.width_peak == 2 and r.width_min == 2
        assert r.goodput_rps <= r.capacity_rps
