"""Unit tests for Resource and Store primitives."""

from __future__ import annotations

import pytest

from repro.sim import Resource, Simulator, Store
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
        for _ in range(2):
            res.acquire(lambda: sim.timeout(10.0).add_callback(lambda ev: res.release()))
        sim.run()
        assert res.busy_time() == pytest.approx(20.0)


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


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("x")
        got = store.get()
        assert got.triggered and got.value == "x"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        got = store.get()
        assert not got.triggered
        store.put("y")
        assert got.triggered and got.value == "y"

    def test_fifo_item_order(self, sim):
        store = Store(sim)
        for item in ("a", "b", "c"):
            store.put(item)
        assert [store.get().value for _ in range(3)] == ["a", "b", "c"]

    def test_fifo_getter_order(self, sim):
        store = Store(sim)
        getters = [store.get() for _ in range(3)]
        for item in ("a", "b", "c"):
            store.put(item)
        assert [g.value for g in getters] == ["a", "b", "c"]

    def test_try_get(self, sim):
        store = Store(sim)
        ok, item = store.try_get()
        assert not ok and item is None
        store.put("z")
        ok, item = store.try_get()
        assert ok and item == "z"

    def test_len(self, sim):
        store = Store(sim)
        assert len(store) == 0
        store.put(1)
        store.put(2)
        assert len(store) == 2

    def test_producer_consumer_pipeline(self, sim):
        store = Store(sim)
        consumed = []

        def producer():
            for i in range(5):
                store.put(i)
                yield sim.timeout(1.0)

        def consumer():
            for _ in range(5):
                item = yield store.get()
                consumed.append((item, sim.now))
                yield sim.timeout(3.0)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert [i for i, _ in consumed] == [0, 1, 2, 3, 4]
        # Consumer is the bottleneck: items arrive every 3us after warmup.
        assert consumed[-1][1] == pytest.approx(12.0)
