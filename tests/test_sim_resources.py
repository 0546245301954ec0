"""Unit tests for the Resource primitive."""

from __future__ import annotations

import pytest

from repro.sim import Resource, Simulator
from repro.sim.sanitize import UnsettledWaitersError
from repro.workloads.microbench import run_pathways


def _take(res):
    """Acquire a slot, asserting it is granted at once."""
    granted = []
    res.acquire(lambda: granted.append(None))
    assert granted == [None]


class TestResource:
    def test_grant_within_capacity_is_immediate(self, sim):
        res = Resource(sim, capacity=2)
        _take(res)
        _take(res)
        assert res.in_use == 2

    def test_excess_requests_queue(self, sim):
        res = Resource(sim, capacity=1)
        _take(res)
        second = []
        res.acquire(lambda: second.append(None))
        assert not second
        assert res.queue_len == 1
        res.release()
        assert second == [None]
        assert res.in_use == 1

    def test_fifo_grant_order(self, sim):
        res = Resource(sim, capacity=1)
        _take(res)
        granted = []
        for i in range(3):
            res.acquire(lambda i=i: granted.append(i))
        res.release()
        assert granted == [0]
        res.release()
        assert granted == [0, 1]

    def test_release_idle_rejected(self, sim):
        res = Resource(sim, capacity=1)
        with pytest.raises(RuntimeError, match="idle"):
            res.release()

    def test_invalid_capacity(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_acquire_holds_for_duration(self, sim):
        res = Resource(sim, capacity=1)
        spans = []

        def hold(name):
            start = sim.now

            def release(ev):
                res.release()
                spans.append((name, start, sim.now))

            res.acquire(lambda: sim.timeout(10.0).add_callback(release))

        hold("a")
        hold("b")
        sim.run()
        # b cannot start until a releases: completion at 10 then 20.
        assert spans == [("a", 0.0, 10.0), ("b", 0.0, 20.0)]

    def test_busy_time_accounting(self, sim):
        res = Resource(sim, capacity=2)
        holds = []

        def hold():
            start = sim.now

            def release(ev):
                res.release()
                holds.append((start, sim.now))

            sim.timeout(10.0).add_callback(release)

        for _ in range(2):
            res.acquire(hold)
        sim.run()
        # Two slots: both holders run at once, 20 µs·holders in 10 µs.
        assert holds == [(0.0, 10.0), (0.0, 10.0)]
        assert sim.now == 10.0


class TestAcquire:
    """The callback form: contended grants run inside release(), and a
    dropped queue makes no loop entry at all."""

    def test_contended_acquire_is_granted_inside_release(self, sim):
        res = Resource(sim, capacity=1)
        grants = []
        res.acquire(lambda: grants.append(("first", sim.now)))
        res.acquire(lambda: grants.append(("second", sim.now)))
        assert grants == [("first", 0.0)] and res.queue_len == 1

        def release(ev):
            res.release()
            # Granted before release() returned, at the same instant.
            assert grants[-1] == ("second", 5.0)

        sim.timeout(5.0).add_callback(release)
        sim.run()
        assert len(grants) == 2
        assert res.in_use == 1 and res.queue_len == 0
        assert sim.events_processed == 1  # the timeout; the grant adds none

    def test_fail_waiters_empties_the_queue_at_once(self, sim):
        res = Resource(sim, capacity=1)
        _take(res)
        seen = []
        res.acquire(lambda: seen.append("granted"))
        assert res.fail_waiters() == 1
        assert seen == [] and res.queue_len == 0
        assert sim.run() == 0.0 and sim.events_processed == 0  # no loop entry
        res.release()
        assert seen == [] and res.in_use == 0  # a dropped wait is never granted

    def test_sanitizer_reports_stranded_acquire_waiter(self):
        sim = Simulator(sanitize=True)
        pool = Resource(sim, capacity=1, name="pool")
        _take(pool)
        pool.acquire(lambda: None)  # queued forever: never released
        with pytest.raises(UnsettledWaitersError, match="lost wakeup"):
            sim.run()

    def test_contended_prep_grants_add_no_loop_entries(self):
        """Work-count pin: each host's queued preps take the CPU inside
        release(), adding no loop entry and leaving simulated time as is."""
        result = run_pathways("chained", 4, devices_per_host=4, n_calls=4)
        assert result.sim_events == 3_593
        assert result.sim_elapsed_us == 22319.000075

