"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest

from repro.sim import (
    DeadlockError,
    ProcessFailed,
    Simulator,
)


class TestEvent:
    def test_succeed_sets_value(self, sim):
        ev = sim.event("e")
        ev.succeed(42)
        assert ev.triggered and ev.ok
        assert ev.value == 42

    def test_fail_raises_on_value_access(self, sim):
        ev = sim.event("e")
        ev.fail(ValueError("boom"))
        assert ev.triggered and not ev.ok
        with pytest.raises(ValueError, match="boom"):
            _ = ev.value

    def test_double_trigger_rejected(self, sim):
        ev = sim.event("e")
        ev.succeed(1)
        with pytest.raises(RuntimeError, match="already triggered"):
            ev.succeed(2)

    def test_value_before_trigger_rejected(self, sim):
        ev = sim.event("e")
        with pytest.raises(RuntimeError, match="no value yet"):
            _ = ev.value

    def test_callback_after_processing_runs_inline(self, sim):
        ev = sim.event("e")
        ev.succeed(7)
        sim.run()
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        assert got == [7]


class TestTimeout:
    def test_advances_clock(self, sim):
        sim.timeout(10.0)
        assert sim.run() == 10.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError, match="negative"):
            sim.timeout(-1.0)

    def test_zero_delay_fires_at_current_time(self, sim):
        fired = []
        sim.timeout(0.0).add_callback(lambda e: fired.append(sim.now))
        sim.run()
        assert fired == [0.0]

    def test_timeout_carries_value(self, sim):
        def proc():
            v = yield sim.timeout(5.0, value="hello")
            return v

        p = sim.process(proc())
        sim.run()
        assert p.value == "hello"


class TestProcess:
    def test_return_value(self, sim):
        def proc():
            yield sim.timeout(1.0)
            return "done"

        p = sim.process(proc())
        sim.run()
        assert p.value == "done"

    def test_processes_interleave_by_time(self, sim):
        order = []

        def proc(name, delay):
            yield sim.timeout(delay)
            order.append(name)

        sim.process(proc("b", 2.0))
        sim.process(proc("a", 1.0))
        sim.process(proc("c", 3.0))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_process_waits_on_process(self, sim):
        def child():
            yield sim.timeout(5.0)
            return 99

        def parent():
            v = yield sim.process(child())
            return v + 1

        p = sim.process(parent())
        sim.run()
        assert p.value == 100

    def test_exception_wrapped_with_provenance(self, sim):
        def bad():
            yield sim.timeout(1.0)
            raise ValueError("inner")

        p = sim.process(bad(), name="badproc")
        sim.run(detect_deadlock=False)
        assert not p.ok
        with pytest.raises(ProcessFailed, match="badproc"):
            _ = p.value

    def test_exception_propagates_to_waiter(self, sim):
        def bad():
            yield sim.timeout(1.0)
            raise ValueError("inner")

        def waiter():
            try:
                yield sim.process(bad())
            except ProcessFailed as exc:
                return f"caught {type(exc.cause).__name__}"

        p = sim.process(waiter())
        sim.run()
        assert p.value == "caught ValueError"


class TestComposites:
    def test_all_of_collects_values_in_order(self, sim):
        ev1, ev2 = sim.event(), sim.event()
        combined = sim.all_of([ev1, ev2])
        ev2.succeed("second")
        ev1.succeed("first")
        sim.run()
        assert combined.value == ["first", "second"]

    def test_all_of_empty_triggers_immediately(self, sim):
        combined = sim.all_of([])
        assert combined.triggered

    def test_all_of_with_pretriggered(self, sim):
        ev1 = sim.event()
        ev1.succeed(1)
        sim.run()
        ev2 = sim.event()
        combined = sim.all_of([ev1, ev2])
        ev2.succeed(2)
        sim.run()
        assert combined.value == [1, 2]

    def test_all_of_fails_fast(self, sim):
        ev1, ev2 = sim.event(), sim.event()
        combined = sim.all_of([ev1, ev2])
        ev1.fail(RuntimeError("x"))
        sim.run(detect_deadlock=False)
        assert combined.triggered and not combined.ok


class TestRun:
    def test_run_until_stops_clock(self, sim):
        sim.timeout(100.0)
        t = sim.run(until=30.0)
        assert t == 30.0
        assert sim.now == 30.0

    def test_run_until_triggered(self, sim):
        def proc():
            yield sim.timeout(7.0)
            return "x"

        p = sim.process(proc())
        assert sim.run_until_triggered(p) == "x"
        assert sim.now == 7.0

    def test_run_until_triggered_with_limit(self, sim):
        def proc():
            yield sim.timeout(100.0)

        p = sim.process(proc())
        with pytest.raises(TimeoutError):
            sim.run_until_triggered(p, limit=10.0)

    def test_deadlock_detected(self, sim):
        def stuck():
            yield sim.event("never")

        sim.process(stuck(), name="stuckproc")
        with pytest.raises(DeadlockError, match="stuckproc"):
            sim.run()

    def test_deadlock_reports_blocked_processes(self, sim):
        def stuck():
            yield sim.event("never")

        sim.process(stuck(), name="p1")
        sim.process(stuck(), name="p2")
        with pytest.raises(DeadlockError) as exc_info:
            sim.run()
        assert len(exc_info.value.blocked) == 2

    def test_determinism_same_seed_same_schedule(self):
        def trace_run():
            sim = Simulator()
            order = []

            def proc(name, delay):
                yield sim.timeout(delay)
                order.append((name, sim.now))

            for i in range(20):
                sim.process(proc(f"p{i}", (i * 7) % 5))
            sim.run()
            return order

        assert trace_run() == trace_run()

    def test_ties_broken_by_creation_order(self, sim):
        order = []

        def proc(name):
            yield sim.timeout(5.0)
            order.append(name)

        for name in ("a", "b", "c"):
            sim.process(proc(name))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_yield_non_event_raises(self, sim):
        def bad():
            yield 42

        p = sim.process(bad())
        sim.run(detect_deadlock=False)
        assert not p.ok


class TestDrainDedupe:
    """run() and run_until_triggered() share one _drain core; both paths
    must walk the identical (time, name) schedule."""

    @staticmethod
    def _build(sim):
        done = sim.event("done")

        def worker(i):
            for step in range(5):
                yield sim.timeout((i * 13 + step * 7) % 11)
            if i == 9:
                done.succeed()

        for i in range(10):
            sim.process(worker(i), name=f"w{i}")
        return done

    def test_identical_schedules(self):
        a = Simulator(log_schedule=True)
        self._build(a)
        a.run()

        b = Simulator(log_schedule=True)
        done = self._build(b)
        b.run_until_triggered(done)
        b.run()  # drain the stragglers past the trigger point

        assert a.schedule_log == b.schedule_log
        assert a.now == b.now
        assert a.events_processed == b.events_processed

    def test_run_until_time_then_resume_matches_one_shot(self):
        a = Simulator(log_schedule=True)
        self._build(a)
        a.run()

        b = Simulator(log_schedule=True)
        self._build(b)
        for horizon in (3.0, 11.0, 29.0):
            b.run(until=horizon, detect_deadlock=False)
        b.run()
        assert a.schedule_log == b.schedule_log


class TestTimerHandle:
    """A recurring clock re-arms its ``TimerHandle`` from its own action
    (the serving batcher, autoscaler and fault injector all do)."""

    @staticmethod
    def _clock(sim, period_us, on_tick):
        def tick(timer):
            timer.schedule(sim.now + period_us)  # re-arm first: on_tick may cancel
            on_tick(timer)

        timer = sim.timer_handle(tick, name="clock")
        timer.schedule(sim.now + period_us)
        return timer

    def test_stop_from_action(self, sim):
        seen = []

        def on_tick(timer):
            seen.append(sim.now)
            if len(seen) == 3:
                timer.cancel()

        self._clock(sim, 1.0, on_tick)
        assert sim.run() == 3.0
        assert seen == [1.0, 2.0, 3.0]

    def test_stop_discards_pending_occurrence(self, sim):
        """A cancelled clock must not hold the clock: its queued
        occurrence leaves the timer queue at once, so ``run()`` ends at
        the last real event instead of the next tick."""
        ticks = []
        clock = self._clock(sim, 1000.0, lambda timer: ticks.append(sim.now))
        pending = []

        def workload():
            yield sim.timeout(1500.0)
            clock.cancel()
            pending.append(sim.stats().pending_timers)
            yield sim.timeout(100.0)

        sim.process(workload())
        assert sim.run() == 1600.0
        assert pending == [0]
        assert ticks == [1000.0]
