"""The unified stats/snapshot protocol (``repro.stats``).

Every subsystem's ``stats()`` returns a frozen dataclass deriving from
:class:`~repro.stats.Stats`; ``PathwaysSystem.stats()`` aggregates the
whole stack; everything serializes to plain JSON-ready dicts through
one ``as_dict()``.  These tests pin the protocol itself (immutability,
recursive serialization) and the per-subsystem wirings benches now
depend on instead of raw attribute pokes.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.stats import (
    ClientStats,
    ServeStats,
    SimStats,
    Stats,
    SystemStats,
    stats_to_dict,
)
from repro.xla.shapes import TensorSpec


def wrapped(client, system, py_fn, name, n=2, duration=50.0):
    devs = system.make_virtual_device_set().add_slice(tpu_devices=n)
    return client.wrap_fn(py_fn, devices=devs, duration_us=duration,
                          spec=TensorSpec((2,)), name=name)


class TestProtocol:
    def test_snapshots_are_frozen(self):
        s = SimStats(now_us=1.0, events_processed=2, pending_timers=3,
                     immediate_depth=0, live_processes=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.events_processed = 99

    def test_stats_to_dict_passes_scalars_through(self):
        assert stats_to_dict(42) == 42
        assert stats_to_dict("x") == "x"
        assert stats_to_dict(None) is None
        assert stats_to_dict([1, (2, 3)]) == [1, [2, 3]]
        assert stats_to_dict({"a": 1}) == {"a": 1}

    def test_as_dict_recurses_into_object_typed_fields(self):
        """Nested snapshots behind ``object`` fields (pre-protocol
        dataclasses like LatencySnapshot) must flatten too — the part
        dataclasses.asdict can't do."""

        @dataclasses.dataclass(frozen=True)
        class Legacy:
            p50: float
            p99: float

        s = ServeStats(arrived=5, admitted=4, completed=3, abandoned=0,
                       rejections={"deadline": 1}, latency=Legacy(1.0, 9.0))
        d = s.as_dict()
        assert d["latency"] == {"p50": 1.0, "p99": 9.0}
        assert d["rejections"] == {"deadline": 1}
        json.dumps(d)  # JSON-ready end to end

    def test_serve_rejected_sums_rejections(self):
        s = ServeStats(arrived=0, admitted=0, completed=0, abandoned=0,
                       rejections={"deadline": 2, "queue_full": 3})
        assert s.rejected == 5


class TestSimulatorStats:
    def test_fields_track_the_engine(self, sim):
        def proc():
            yield sim.timeout(5.0)
            yield sim.timeout(5.0)

        sim.process(proc())
        sim.ticker(100.0, lambda tk: None)
        sim.run(until=6.0, detect_deadlock=False)
        s = sim.stats()
        assert isinstance(s, SimStats)
        assert s.now_us == 6.0
        assert s.events_processed == sim.events_processed > 0
        assert s.pending_timers == 2  # second timeout + ticker re-arm
        assert s.immediate_depth == 0
        assert s.live_processes == 1


class TestSystemStats:
    def test_aggregates_the_whole_stack(self, small_system):
        client = small_system.client(name="tenant")
        a = wrapped(client, small_system, lambda x: x * 2.0, "a")

        @client.program
        def f(v):
            return (a(a(v)),)

        f(np.array([1.0, 2.0], dtype=np.float32))
        s = small_system.stats()
        assert isinstance(s, SystemStats)
        assert s.programs_dispatched >= 1
        assert s.computations_executed >= 2
        assert s.sim.events_processed == small_system.sim.events_processed
        assert [sch.island_id for sch in s.schedulers] == [0]
        assert s.schedulers[0].decisions > 0
        assert s.schedulers[0].pending == 0
        # Grants release lazily; the field just mirrors the live map.
        assert s.schedulers[0].live_grants >= 0
        assert [c.name for c in s.clients] == ["tenant"]
        assert isinstance(s.clients[0], ClientStats)
        assert s.net is not None and s.net.messages_lost == 0
        assert s.serve == ()  # no frontend attached
        assert s.recovery is None or s.recovery.epoch >= 0
        json.dumps(s.as_dict())

    def test_two_islands_sorted_by_id(self, two_island_system):
        s = two_island_system.stats()
        assert [sch.island_id for sch in s.schedulers] == [0, 1]

    def test_snapshot_is_point_in_time(self, small_system):
        """A stashed snapshot must not move when the system does."""
        client = small_system.client()
        before = small_system.stats()
        a = wrapped(client, small_system, lambda x: x + 1.0, "inc")
        a(np.array([0.0, 0.0], dtype=np.float32))
        after = small_system.stats()
        assert before.programs_dispatched == 0
        assert after.programs_dispatched >= 1
        assert before.sim.events_processed < after.sim.events_processed


class TestServeStatsWiring:
    def test_frontend_registers_and_reports(self):
        from repro.workloads.serving import run_serving

        r = run_serving(rate_rps=200.0, duration_us=30_000.0,
                        fail_replica_at=None, seed=3)
        s = r.system_handle.stats()
        assert len(s.serve) == 1
        fe = s.serve[0]
        assert isinstance(fe, Stats)
        assert fe.completed == r.completed
        assert fe.arrived >= fe.admitted >= fe.completed
        assert fe.latency is not None
        d = fe.as_dict()
        assert d["completed"] == r.completed
        json.dumps(d)
