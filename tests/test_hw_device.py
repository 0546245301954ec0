"""Tests for the TPU device model: FIFO, gating, HBM, collectives."""

from __future__ import annotations

import pytest

from repro.config import DEFAULT_CONFIG
from repro.hw.device import CollectiveRendezvous, Device, HbmAllocator, Kernel
from repro.sim import DeadlockError, Simulator
from repro.telemetry import Tracer


def make_device(sim, device_id=0):
    return Device(sim, DEFAULT_CONFIG, device_id, island_id=0, coords=(0, 0))


def kernel_busy_us(tracer):
    """Device time the kernel spans cover (µs)."""
    return sum(span.duration_us for span in tracer.by_cat("kernel"))


class TestDeviceExecution:
    def test_kernels_run_in_fifo_order(self, sim):
        dev = make_device(sim)
        done_times = {}
        for i, dur in enumerate([5.0, 1.0, 3.0]):
            k = Kernel(sim, duration_us=dur, tag=f"k{i}")
            k.done.add_callback(lambda e, i=i: done_times.setdefault(i, sim.now))
            dev.enqueue(k)
        sim.run()
        # FIFO: short kernel 1 cannot overtake long kernel 0.
        assert done_times[0] < done_times[1] < done_times[2]

    def test_busy_time_accumulates(self):
        tracer = Tracer()
        sim = Simulator(tracer=tracer)
        dev = make_device(sim)
        for dur in (5.0, 7.0):
            dev.enqueue(Kernel(sim, duration_us=dur))
        sim.run()
        assert kernel_busy_us(tracer) == pytest.approx(12.0)
        assert dev.kernels_run == 2

    def test_gated_kernel_blocks_queue_head(self, sim):
        dev = make_device(sim)
        gate = sim.event("gate")
        first = Kernel(sim, duration_us=1.0, gate=gate)
        second = Kernel(sim, duration_us=1.0)
        dev.enqueue(first)
        dev.enqueue(second)

        def opener():
            yield sim.timeout(50.0)
            gate.succeed(None)

        sim.process(opener())
        sim.run()
        # Head-of-line blocking: both finish only after the gate opens.
        assert sim.now >= 50.0
        assert second.done.triggered

    def test_negative_duration_rejected(self, sim):
        with pytest.raises(ValueError):
            Kernel(sim, duration_us=-1.0)

    def test_utilization(self):
        tracer = Tracer()
        sim = Simulator(tracer=tracer)
        dev = make_device(sim)
        dev.enqueue(Kernel(sim, duration_us=10.0))
        sim.run()
        sim.timeout(10.0)
        sim.run()
        assert 0.4 < kernel_busy_us(tracer) / sim.now < 0.6


class TestHbmAllocator:
    def test_alloc_and_free(self, sim):
        hbm = HbmAllocator(sim, capacity_bytes=100)
        ev = hbm.alloc(60)
        assert ev.triggered
        assert hbm.used == 60 and hbm.capacity - hbm.used == 40
        hbm.free_bytes(60)
        assert hbm.used == 0

    def test_backpressure(self, sim):
        hbm = HbmAllocator(sim, capacity_bytes=100)
        hbm.alloc(80)
        blocked = hbm.alloc(50)
        assert not blocked.triggered
        hbm.free_bytes(80)
        assert blocked.triggered
        assert hbm.used == 50

    def test_fifo_no_small_request_overtaking(self, sim):
        hbm = HbmAllocator(sim, capacity_bytes=100)
        hbm.alloc(90)
        big = hbm.alloc(50)      # blocks
        small = hbm.alloc(5)     # would fit, but must not overtake
        assert not big.triggered and not small.triggered
        hbm.free_bytes(90)
        assert big.triggered and small.triggered

    def test_oversized_request_rejected(self, sim):
        hbm = HbmAllocator(sim, capacity_bytes=100)
        with pytest.raises(MemoryError):
            hbm.alloc(101)

    def test_negative_request_rejected(self, sim):
        hbm = HbmAllocator(sim, capacity_bytes=100)
        with pytest.raises(ValueError):
            hbm.alloc(-1)

    def test_over_free_rejected(self, sim):
        hbm = HbmAllocator(sim, capacity_bytes=100)
        hbm.alloc(10)
        with pytest.raises(RuntimeError):
            hbm.free_bytes(20)

    def test_peak_tracking(self, sim):
        hbm = HbmAllocator(sim, capacity_bytes=100)
        hbm.alloc(70)
        hbm.free_bytes(70)
        hbm.alloc(30)
        assert hbm.peak_used == 70


class TestCollectives:
    def test_rendezvous_synchronizes_participants(self, sim):
        dev_a, dev_b = make_device(sim, 0), make_device(sim, 1)
        coll = CollectiveRendezvous(sim, participants=2, duration_us=10.0)
        ka = Kernel(sim, duration_us=0.0, collective=coll)
        kb = Kernel(sim, duration_us=0.0, collective=coll)
        dev_a.enqueue(ka)

        def late():
            yield sim.timeout(30.0)
            dev_b.enqueue(kb)

        sim.process(late())
        sim.run()
        # Both finish together, 10us after the late joiner arrives.
        assert ka.done.triggered and kb.done.triggered
        assert sim.now >= 40.0

    def test_rendezvous_too_many_joins_rejected(self, sim):
        coll = CollectiveRendezvous(sim, participants=1, duration_us=1.0)
        coll.join(1, 2.0)
        with pytest.raises(RuntimeError, match="joins"):
            coll.join(1, 2.0)

    def test_join_with_mismatched_compute_rejected(self, sim):
        """The release carries one compute phase for the whole gang, so
        a participant bringing a different one is an error, not ignored."""
        coll = CollectiveRendezvous(sim, participants=2, duration_us=1.0)
        coll.join(1, 2.0)
        with pytest.raises(ValueError, match="compute"):
            coll.join(1, 3.0)

    def test_mismatched_gang_kernels_rejected(self, sim):
        dev_a, dev_b = make_device(sim, 0), make_device(sim, 1)
        coll = CollectiveRendezvous(sim, participants=2, duration_us=1.0)
        dev_a.enqueue(Kernel(sim, duration_us=2.0, collective=coll))
        dev_b.enqueue(Kernel(sim, duration_us=3.0, collective=coll))
        with pytest.raises(ValueError, match="compute"):
            sim.run()

    def test_inconsistent_enqueue_order_deadlocks(self, sim):
        """The paper's core gang-scheduling motivation: two communicating
        programs enqueued in opposite orders on two devices deadlock."""
        dev_a, dev_b = make_device(sim, 0), make_device(sim, 1)
        coll_x = CollectiveRendezvous(sim, 2, 1.0, name="X")
        coll_y = CollectiveRendezvous(sim, 2, 1.0, name="Y")
        # Device A: X then Y.  Device B: Y then X.  Non-preemptible
        # queues mean neither X nor Y can complete.
        dev_a.enqueue(Kernel(sim, collective=coll_x, tag="X@a"))
        dev_a.enqueue(Kernel(sim, collective=coll_y, tag="Y@a"))
        dev_b.enqueue(Kernel(sim, collective=coll_y, tag="Y@b"))
        dev_b.enqueue(Kernel(sim, collective=coll_x, tag="X@b"))

        def watcher():
            yield sim.all_of(
                [k.done for k in []]
            )  # pragma: no cover - placeholder

        # Track completion through a process.
        def waiter():
            yield coll_x._done

        sim.process(waiter(), name="wait_x")
        with pytest.raises(DeadlockError):
            sim.run()

    def test_consistent_enqueue_order_completes(self, sim):
        dev_a, dev_b = make_device(sim, 0), make_device(sim, 1)
        coll_x = CollectiveRendezvous(sim, 2, 1.0, name="X")
        coll_y = CollectiveRendezvous(sim, 2, 1.0, name="Y")
        kernels = []
        for dev in (dev_a, dev_b):
            for coll, tag in ((coll_x, "X"), (coll_y, "Y")):
                k = Kernel(sim, collective=coll, tag=tag)
                dev.enqueue(k)
                kernels.append(k)
        sim.run()
        assert all(k.done.triggered for k in kernels)
