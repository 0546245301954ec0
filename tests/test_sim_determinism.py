"""Golden event-order determinism, plus units for the hot-path APIs.

The engine overhaul (lazy names, counter barriers, inline completions,
shared timeouts, the device state machine) must not perturb the one
property everything else rests on: two runs of the same seeded program
produce *identical* schedules.  Each golden test runs a seeded program
twice — once plain and once under the sim-sanitizer, which also audits
every golden scenario for leaks at drain end — and asserts the
``(time, seq, event)`` schedule streams match.

Comparing two runs in one process only catches nondeterminism: a change
that moves every run's schedule the same way passes it.  So each golden
schedule is also pinned by a checked-in sha256 (``GOLDEN_DIGESTS``);
a refactor that claims byte-identical behaviour must leave them alone.
"""

from __future__ import annotations

import hashlib
import re
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.dispatch import DispatchMode
from repro.core.system import PathwaysSystem
from repro.hw.cluster import ClusterSpec
from repro.resilience import RecoveryManager
from repro.sim import Event, Simulator
from repro.workloads.churn import run_churn
from repro.workloads.netload import run_net_congestion
from repro.workloads.serving import run_serving
from repro.xla.computation import scalar_allreduce_add

#: Small but eventful: 2 resilient tenants, device churn, checkpoints,
#: remaps — every hot path of the engine fires.
CHURN_KWARGS = dict(
    n_clients=2,
    steps_per_client=8,
    compute_time_us=1_000.0,
    slice_devices=4,
    n_hosts=4,
    devices_per_host=4,
    mtbf_us=30_000.0,
    repair_us=20_000.0,
    checkpoint_interval_us=10_000.0,
    state_bytes=1 << 20,
    seed=7,
)


def _schedule(result):
    """(time, seq, event): seq is the position in the processed stream.
    Execution ids ("prog#42") come from a process-global label counter
    that does not reset between runs; normalize them so the comparison
    sees the schedule, not the label allocator."""
    return [
        (t, seq, re.sub(r"#\d+", "#N", name))
        for seq, (t, name) in enumerate(result.system_handle.sim.schedule_log)
    ]


def _golden_run():
    result = run_churn(log_schedule=True, **CHURN_KWARGS)
    return _schedule(result), result


@pytest.fixture(params=[False, True])
def sanitize(request, monkeypatch):
    """Run the golden scenario plain and under the sim-sanitizer."""
    monkeypatch.setenv("REPRO_SIM_SANITIZE", "1" if request.param else "0")
    return request.param


class TestGoldenEventOrder:
    def test_two_runs_identical_schedule(self, sanitize):
        first, r1 = _golden_run()
        second, r2 = _golden_run()
        # The scenario did the work it exists for.  Most of that work
        # runs inline inside loop entries, so the floor is on faults,
        # recoveries and checkpoints, not on the entry count.
        assert r1.faults_injected >= 10 and r1.recoveries >= 3
        assert r1.checkpoints_taken >= 4
        assert first == second
        assert r1.elapsed_us == r2.elapsed_us
        assert r1.useful_steps == r2.useful_steps
        assert r1.replayed_steps == r2.replayed_steps
        assert r1.per_client_steps == r2.per_client_steps


#: Contended-fabric scenario: fluid fair-share flows over the island
#: uplink, probe dispatch through the congested fabric, a sender-host
#: crash with in-flight message loss, retransmits, and recovery — every
#: hot path of the repro.net layer fires.
NET_KWARGS = dict(
    n_senders=2,
    streams=2,
    hosts_per_island=2,
    devices_per_host=2,
    duration_us=30_000.0,
    n_probes=3,
    crash_sender_at=8_000.0,
    crash_repair_us=6_000.0,
)


def _golden_net_run():
    result = run_net_congestion(log_schedule=True, **NET_KWARGS)
    return _schedule(result), result


class TestGoldenContendedFabric:
    def test_two_runs_identical_schedule(self, sanitize):
        first, r1 = _golden_net_run()
        second, r2 = _golden_net_run()
        assert len(first) > 300
        assert first == second
        assert r1.elapsed_us == r2.elapsed_us
        assert r1.bytes_delivered == r2.bytes_delivered
        assert r1.messages_lost == r2.messages_lost
        assert r1.probe_latency_us == r2.probe_latency_us


#: ECMP/fault variant of the contended-fabric golden: two spine paths,
#: a mid-run spine-path LINK_DOWN (so flows actually reroute) and its
#: restore — the seeded-CRC hash, eviction, rehash, and park/wake paths
#: all fire under a schedule that must stay byte-identical.
ECMP_KWARGS = dict(
    n_senders=4,
    streams=2,
    hosts_per_island=4,
    devices_per_host=4,
    flow_bytes=4 << 20,
    duration_us=30_000.0,
    n_probes=3,
    spine_paths=2,
    link_down_at=8_000.0,
    link_repair_us=10_000.0,
)


def _golden_ecmp_run():
    result = run_net_congestion(log_schedule=True, **ECMP_KWARGS)
    return _schedule(result), result


class TestGoldenEcmpReroute:
    def test_two_runs_identical_schedule(self, sanitize):
        first, r1 = _golden_ecmp_run()
        second, r2 = _golden_ecmp_run()
        # The drill is only meaningful if the fault really forced a
        # reroute mid-run — and it must cost no messages.
        assert r1.link_faults == 1 and r1.reroutes > 0
        assert r1.messages_lost == 0
        assert len(first) > 300
        assert first == second
        assert r1.elapsed_us == r2.elapsed_us
        assert r1.bytes_delivered == r2.bytes_delivered
        assert r1.reroutes == r2.reroutes
        assert r1.messages_parked == r2.messages_parked


#: Serving scenario on the contended fabric: Poisson admission over the
#: transport, continuous batching, deadline-armed gangs, an autoscaler
#: growing/shrinking replicas, and a mid-run device failure recovered
#: through remap/replay — every hot path of the repro.serve layer fires.
SERVE_KWARGS = dict(
    rate_rps=700.0,
    duration_us=80_000.0,
    islands=2,
    hosts_per_island=2,
    devices_per_host=4,
    n_replicas=1,
    max_batch=4,
    slo_us=60_000.0,
    autoscale=True,
    max_replicas=2,
    autoscale_interval_us=10_000.0,
    fail_replica_at=30_000.0,
    repair_us=20_000.0,
    contention=True,
    seed=11,
)


def _golden_serve_run():
    result = run_serving(log_schedule=True, **SERVE_KWARGS)
    return _schedule(result), result


class TestGoldenServing:
    def test_two_runs_identical_schedule(self, sanitize):
        first, r1 = _golden_serve_run()
        second, r2 = _golden_serve_run()
        assert len(first) > 300
        assert first == second
        assert r1.elapsed_us == r2.elapsed_us
        assert r1.completed == r2.completed
        assert r1.rejections == r2.rejections
        assert r1.p99_us == r2.p99_us
        assert r1.width_history == r2.width_history
        # The scenario really exercised the serving fault paths.
        assert r1.recoveries >= 1 and r1.scale_ups >= 1
        assert r1.abandoned == 0


def _golden_seq_run():
    """Two tenants' SEQUENTIAL chains gang-scheduled on the same six
    devices, with ``retry_on_failure``; a shared device fails mid-run
    (both executions recover and replay) and is repaired later."""
    system = PathwaysSystem.build(
        ClusterSpec(islands=((2, 4),), name="golden-seq"), log_schedule=True
    )
    recovery = RecoveryManager(system)
    executions = []
    for c in range(2):
        client = system.client(f"tenant{c}")
        devs = system.make_virtual_device_set().add_slice(tpu_devices=6)
        step = client.wrap(
            scalar_allreduce_add(6, 300.0, name=f"step{c}"), devices=devs
        )

        @client.program
        def chain(v):
            for _ in range(4):
                v = step(v)
            return v

        executions.append(
            client.submit(
                chain.trace(np.float32(0.0)),
                (0.0,),
                mode=DispatchMode.SEQUENTIAL,
                retry_on_failure=True,
            )
        )
    victim = devs.group.devices[1]
    system.sim.timeout(4_000.0).add_callback(lambda ev: recovery.fail_device(victim))
    system.sim.timeout(30_000.0).add_callback(
        lambda ev: recovery.repair_device(victim)
    )
    system.sim.run()
    result = SimpleNamespace(system_handle=system, executions=executions)
    return _schedule(result), result


class TestGoldenSequential:
    def test_two_runs_identical_schedule(self, sanitize):
        first, r1 = _golden_seq_run()
        second, r2 = _golden_seq_run()
        # Both tenants lost a node to the fault and replayed.
        for ex in r1.executions:
            assert ex.done.ok and ex.attempts == 2
            assert ex.results() == 4.0
        assert first == second
        assert [ex.results() for ex in r1.executions] == [
            ex.results() for ex in r2.executions
        ]
        assert [sorted(ex._completed_at.values()) for ex in r1.executions] == [
            sorted(ex._completed_at.values()) for ex in r2.executions
        ]


def _schedule_digest(schedule) -> str:
    h = hashlib.sha256()
    for t, seq, name in schedule:
        h.update(f"{t!r} {seq} {name}\n".encode())
    return h.hexdigest()


#: sha256 of each golden ``#N``-normalised schedule.
#: Identical across PYTHONHASHSEED values; update only for a change that
#: deliberately alters simulated behaviour, and say so in its description.
GOLDEN_DIGESTS = {
    "churn": "c027039c2c193e8a2f2c0bb90a9e3f5f480e55bd6651501fe6beaa13d67b0cb6",
    "contended_fabric": "43483815fe8b425fcef6417ec92604082acffb34defb1d4d82e1b1332765af67",
    "ecmp_reroute": "3a52900e353e1734e1ac038d1287a5ec33bfe8f5398a619348e5c49b35e244d2",
    "serving": "583f4b2da81bcebf4dd861d4e15fcfca6ac6cbba0eedf3c8ff950631f74bc507",
    "sequential": "39946e6da8e6fca72719ee14084772e650843ab66e3ebdb5f2cab7184189fb08",
}

_GOLDEN_RUNS = {
    "churn": _golden_run,
    "contended_fabric": _golden_net_run,
    "ecmp_reroute": _golden_ecmp_run,
    "serving": _golden_serve_run,
    "sequential": _golden_seq_run,
}


class TestGoldenDigests:
    @pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
    def test_schedule_matches_pinned_digest(self, name):
        schedule, _ = _GOLDEN_RUNS[name]()
        assert _schedule_digest(schedule) == GOLDEN_DIGESTS[name]


class TestGoldenTracing:
    """Tracing is schedule-neutral: attaching a live Tracer must leave
    the golden schedule byte-identical — spans are passive appends, so
    the run with tracing on replays the run with tracing off exactly."""

    def _traced(self, run_fn, kwargs):
        from repro.telemetry import Tracer

        tracer = Tracer()
        result = run_fn(log_schedule=True, tracer=tracer, **kwargs)
        return _schedule(result), result, tracer

    def test_serving_fault_drill_schedule_neutral(self):
        base, r_off = _golden_serve_run()
        traced, r_on, tracer = self._traced(run_serving, SERVE_KWARGS)
        assert base == traced
        assert r_off.completed == r_on.completed
        assert r_off.p99_us == r_on.p99_us
        # The tracer really captured the stack while staying neutral.
        cats = {s.cat for s in tracer.spans}
        assert "serve.request" in cats and "dispatch.prep" in cats
        assert "sched.granted" in cats and "net.msg" in cats

    def test_contended_fabric_schedule_neutral(self):
        base, r_off = _golden_net_run()
        traced, r_on, tracer = self._traced(run_net_congestion, NET_KWARGS)
        assert base == traced
        assert r_off.bytes_delivered == r_on.bytes_delivered
        assert r_off.messages_lost == r_on.messages_lost
        # The crash drill loses messages: the typed-loss instants fired.
        assert any(s.cat == "net.lost" for s in tracer.spans)

    def test_ecmp_reroute_schedule_neutral(self):
        base, r_off = _golden_ecmp_run()
        traced, r_on, tracer = self._traced(run_net_congestion, ECMP_KWARGS)
        assert base == traced
        assert r_off.reroutes == r_on.reroutes
        assert any(s.cat == "net.reroute" for s in tracer.spans)
        assert any(s.cat == "fault.injected" for s in tracer.spans)

    def test_perfetto_export_matches_chrome_trace_shape(self):
        """The exported JSON is loadable by Perfetto/chrome://tracing:
        a ``traceEvents`` list whose rows carry the event-format keys."""
        _, _, tracer = self._traced(run_serving, SERVE_KWARGS)
        doc = tracer.to_chrome_trace()
        events = doc["traceEvents"]
        assert isinstance(events, list) and events
        phases = {e["ph"] for e in events}
        assert phases <= {"X", "i", "M"}
        assert {"X", "i", "M"} <= phases  # spans, instants, track names
        for e in events:
            assert isinstance(e["name"], str) and e["name"]
            assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
            if e["ph"] == "M":
                assert e["name"] == "thread_name"
                assert isinstance(e["args"]["name"], str)
                continue
            assert isinstance(e["ts"], float) and e["ts"] >= 0.0
            if e["ph"] == "X":
                assert isinstance(e["dur"], float) and e["dur"] >= 0.0
            else:
                assert e["s"] == "t"


class TestHotPathPrimitives:
    def test_settled_counts_failures_as_settled(self, sim):
        good, bad = sim.event(), sim.event()
        barrier = sim.all_settled([good, bad])
        bad.fail(RuntimeError("x"))
        assert not barrier.triggered
        good.succeed(1)
        sim.run(detect_deadlock=False)
        assert barrier.triggered and barrier.ok

    def test_settled_over_already_settled_events(self, sim):
        ev = sim.event()
        ev.succeed(1)
        sim.run()
        barrier = sim.all_settled([ev])
        assert barrier.triggered and barrier.ok

    def test_settled_empty_fires_immediately(self, sim):
        assert sim.all_settled([]).triggered

    def test_completed_event_runs_callbacks_inline(self, sim):
        ev = sim.completed("v")
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        assert got == ["v"]
        assert ev.triggered and ev.ok

    def test_succeed_inline_runs_pending_callbacks(self, sim):
        ev = sim.event()
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        ev.succeed_inline(3)
        assert got == [3]
        with pytest.raises(RuntimeError, match="already triggered"):
            ev.succeed(4)

    def test_shared_timeout_coalesces_same_instant(self, sim):
        a = sim.shared_timeout(5.0)
        b = sim.shared_timeout(5.0)
        c = sim.shared_timeout(7.0)
        assert a is b and a is not c

    def test_shared_timeout_not_shared_across_instants(self, sim):
        first = sim.shared_timeout(5.0)
        sim.timeout(1.0)
        sim.run()
        sim_now = sim.now
        assert sim_now > 0
        second = sim.shared_timeout(5.0)
        assert first is not second

    def test_shared_timeout_zero_delay_not_coalesced(self, sim):
        assert sim.shared_timeout(0.0) is not sim.shared_timeout(0.0)

    def test_lazy_names_resolve_on_access(self, sim):
        ev = Event(sim, lambda: "expensive-name")
        assert ev.name == "expensive-name"
        anonymous = sim.event()
        assert anonymous.name == "event"
        to = sim.timeout(2.5)
        assert to.name == "timeout(2.5)"

    def test_resource_acquire_respects_capacity(self, sim):
        from repro.sim import Resource

        res = Resource(sim)
        grants = []
        res.acquire(lambda: grants.append(None))
        res.acquire(lambda: grants.append(None))
        assert grants == [None] and res.queue_len == 1
        res.release()
        assert grants == [None, None] and res.in_use == 1

    def test_schedule_log_disabled_by_default(self):
        sim = Simulator()
        assert sim.schedule_log is None
        sim.timeout(1.0)
        sim.run()
        assert sim.events_processed == 1

    def test_events_processed_counts_loop_entries(self, sim):
        for _ in range(5):
            sim.event().succeed(None)
        sim.run()
        assert sim.events_processed == 5
