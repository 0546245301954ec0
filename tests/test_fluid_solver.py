"""The scoped fluid solver against the dense reference, property-style.

The scoped incremental engine must be *byte-identical* to the dense
reference — not approximately equal: same per-flow delivery times, same
link counters, same busy fractions, and the same whole-simulation event
schedule — for every interleaving of flow starts, aborts, link faults,
and restores.  The equivalence argument is that a flow's rate is a pure
function of its route links' flow counts, so the dense engine's
"rate unchanged -> skip" set equals the scoped engine's unaffected set
exactly; these tests pin that argument at the fabric layer (where
hypothesis shrinking is cheap) and then end to end through the full
transport scenarios, the fault drills included.
"""

from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import DenseFluidSolver
from repro.config import SystemConfig
from repro.net import fabric as fabric_module
from repro.net.fabric import Fabric, ScopedFluidSolver
from repro.sim import Simulator
from repro.stats import FabricStats
from repro.workloads.netload import run_flow_fleet, run_net_congestion


def _solver(cls):
    """Every Fabric built inside the block runs ``cls`` as its solver."""
    return mock.patch.object(fabric_module, "ScopedFluidSolver", cls)


#: Two islands x 4 hosts: intra-island, cross-island, and ECMP'd routes.
_HOSTS = [
    SimpleNamespace(host_id=i, island_id=i // 4, name=f"h{i}") for i in range(8)
]

#: Inter-op delays: heavy on 0.0 (same-instant membership churn) plus a
#: spread that lands completions between, at, and far past op times.
_DELAYS = st.sampled_from([0.0, 0.0, 0.0, 1.0, 7.5, 64.0, 1000.0])

#: Flow sizes repeat deliberately: equal-size flows sharing a route
#: project the *same* finish time (the same-instant completion path).
_NBYTES = st.sampled_from([1000, 1000, 4096, 65536, 1 << 20])

_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("start"),
            st.integers(0, 7), st.integers(0, 7), _NBYTES, _DELAYS,
        ),
        st.tuples(st.just("abort"), st.integers(0, 30), _DELAYS),
        st.tuples(st.just("down"), st.integers(0, 40), _DELAYS),
        st.tuples(st.just("restore"), _DELAYS),
    ),
    min_size=1,
    max_size=60,
)


def _run_fabric_scenario(solver, ops, debug_names: bool = False):
    """Drive one op stream straight into a Fabric; returns the full
    observable record (deliveries, victims, link counters, schedule)."""
    sim = Simulator(debug_names=debug_names, log_schedule=True)
    config = SystemConfig(net_link_sharing="fair", spine_paths=2)
    with _solver(solver):
        fabric = Fabric(sim, config)
    deliveries: list = []
    log: list = []

    def driver():
        next_key = 0
        for op in ops:
            yield sim.timeout(op[-1])
            if op[0] == "start":
                src, dst = _HOSTS[op[1]], _HOSTS[op[2]]
                route = fabric.route(src, dst, flow_seq=next_key)
                if not route or any(not link.up for link in route):
                    continue
                key = next_key = next_key + 1
                ev = fabric.start_flow(key, route, op[3])
                ev.add_callback(
                    lambda ev, k=key: deliveries.append((k, sim.now))
                )
            elif op[0] == "abort":
                live = list(fabric._solver.flows)
                if live:
                    key = live[op[1] % len(live)]
                    log.append(("abort", key, fabric.abort_flow(key)))
            elif op[0] == "down":
                links = fabric.links()
                if links:
                    link = links[op[1] % len(links)]
                    victims = fabric.take_down(link)
                    log.append(("down", link.name, victims))
            else:
                down = fabric.down_links()
                if down:
                    fabric.restore_link(down[0])
                    log.append(("restore", down[0].name))

    sim.process(driver(), name="driver" if debug_names else "")
    sim.run()
    links = [
        (
            link.name, link.bytes_carried, link.flows_completed,
            link.flows_aborted, link.max_concurrency, link.up,
            link.busy_fraction(now=sim.now),
        )
        for link in fabric.links()
    ]
    return {
        "deliveries": deliveries,
        "log": log,
        "links": links,
        "now": sim.now,
        "events": sim.events_processed,
        "schedule": list(sim.schedule_log),
        "pending_timers": sim.stats().pending_timers,
        "fabric_stats": fabric.stats(),
    }


@given(ops=_OPS)
@settings(max_examples=150, deadline=None)
def test_scoped_matches_dense_exactly(ops):
    dense = _run_fabric_scenario(DenseFluidSolver, ops)
    scoped = _run_fabric_scenario(ScopedFluidSolver, ops)
    assert scoped["deliveries"] == dense["deliveries"]
    assert scoped["log"] == dense["log"]  # abort results + eviction victims
    assert scoped["links"] == dense["links"]
    assert scoped["now"] == dense["now"]
    # Byte-identity: the very same events at the very same (time, name)s.
    assert scoped["schedule"] == dense["schedule"]
    assert scoped["events"] == dense["events"]
    # Both engines end clean: no live flows, no stranded timer.
    assert scoped["pending_timers"] == dense["pending_timers"] == 0


@given(ops=_OPS)
@settings(max_examples=50, deadline=None)
def test_schedule_independent_of_debug_names(ops):
    """Lazy event naming may never perturb the solver's schedule."""
    plain = _run_fabric_scenario(ScopedFluidSolver, ops, debug_names=False)
    named = _run_fabric_scenario(ScopedFluidSolver, ops, debug_names=True)
    assert [t for t, _ in named["schedule"]] == [
        t for t, _ in plain["schedule"]
    ]
    assert named["deliveries"] == plain["deliveries"]
    assert named["links"] == plain["links"]


def _scenario_fingerprint(r):
    """Every simulated observable of one run_net_congestion result."""
    return (
        r.elapsed_us, r.bytes_delivered, r.per_sender_bytes,
        r.achieved_gbps, r.probe_latency_us, r.probes_run,
        r.probe_failures, r.messages_lost, r.retransmits, r.reroutes,
        r.messages_parked, r.lost_by_reason, r.fabric_idle,
        r.nic_slots_leaked,
    )


class TestFullScenarioEquivalence:
    """End-to-end dense == scoped through the real transport scenarios
    (the PR-8 fault matrix: eviction, reroute-with-remaining, park)."""

    def _pair(self, **kwargs):
        runs = []
        for solver in (DenseFluidSolver, ScopedFluidSolver):
            with _solver(solver):
                runs.append(run_net_congestion(log_schedule=True, **kwargs))
        return runs

    def test_plain_congestion(self):
        dense, scoped = self._pair(
            n_senders=2, streams=2, hosts_per_island=2, devices_per_host=2,
            flow_bytes=2 << 20, duration_us=20_000.0, n_probes=2,
        )
        assert _scenario_fingerprint(dense) == _scenario_fingerprint(scoped)
        assert (
            dense.system_handle.sim.schedule_log
            == scoped.system_handle.sim.schedule_log
        )

    def test_ecmp_reroute_with_remaining_bytes(self):
        cfg = SystemConfig(
            net_island_uplink_gbps=100.0, net_spine_gbps=8.0
        )
        dense, scoped = self._pair(
            n_senders=4, streams=2, hosts_per_island=4, devices_per_host=2,
            flow_bytes=4 << 20, duration_us=30_000.0, n_probes=0,
            spine_paths=2, link_down_at=8_000.0, link_repair_us=8_000.0,
            config=cfg,
        )
        assert dense.reroutes > 0  # the drill actually rerouted
        assert _scenario_fingerprint(dense) == _scenario_fingerprint(scoped)
        assert (
            dense.system_handle.sim.schedule_log
            == scoped.system_handle.sim.schedule_log
        )

    def test_zero_surviving_path_park_and_restore(self):
        dense, scoped = self._pair(
            n_senders=2, streams=2, hosts_per_island=2, devices_per_host=2,
            flow_bytes=2 << 20, duration_us=30_000.0, n_probes=0,
            spine_paths=1, link_down_at=5_000.0, link_repair_us=6_000.0,
        )
        assert dense.messages_parked > 0  # the no-path episode happened
        assert _scenario_fingerprint(dense) == _scenario_fingerprint(scoped)

    def test_host_crash_eviction(self):
        dense, scoped = self._pair(
            n_senders=2, streams=2, hosts_per_island=2, devices_per_host=2,
            flow_bytes=2 << 20, duration_us=30_000.0, n_probes=2,
            crash_sender_at=6_000.0, crash_repair_us=5_000.0,
        )
        assert dense.messages_lost > 0  # the crash cost something
        assert _scenario_fingerprint(dense) == _scenario_fingerprint(scoped)

    def test_flow_fleet_deliveries_identical(self):
        with _solver(DenseFluidSolver):
            dense = run_flow_fleet(n_flows=300, hosts=8)
        scoped = run_flow_fleet(n_flows=300, hosts=8)
        assert dense.deliveries == scoped.deliveries
        assert dense.elapsed_us == scoped.elapsed_us
        assert dense.events == scoped.events
        assert dense.fabric.idle and scoped.fabric.idle


class TestSolverSelection:
    def test_default_is_scoped(self):
        fabric = Fabric(Simulator(), SystemConfig())
        assert type(fabric._solver) is ScopedFluidSolver


SOLVERS = [DenseFluidSolver, ScopedFluidSolver]
SOLVER_IDS = ["dense", "scoped"]


class TestTimerHygiene:
    """The dead-timer-leak regression: the historical engine armed a
    fresh timeout on every membership change and abandoned the old one,
    so the queue filled with dead events.  The solver (and the dense
    reference) drive one cancellable handle: at most one live timer,
    zero after drain."""

    @staticmethod
    def _fabric(solver=ScopedFluidSolver):
        sim = Simulator()
        with _solver(solver):
            fabric = Fabric(sim, SystemConfig())
        hosts = [SimpleNamespace(host_id=i, island_id=0) for i in range(2)]
        route = fabric.route(hosts[0], hosts[1])
        return sim, fabric, route

    @pytest.mark.parametrize("solver", SOLVERS, ids=SOLVER_IDS)
    def test_one_live_timer_despite_churn(self, solver):
        sim, fabric, route = self._fabric(solver)
        for key in range(50):
            fabric.start_flow(key, route, 10_000 + key)
            # Every start re-projects the next finish; a leaked timer
            # per change would make this grow linearly.
            assert sim.stats().pending_timers == 1
        sim.run()
        assert fabric.idle
        assert sim.stats().pending_timers == 0
        # Not merely "no live entries": physically empty post-drain.
        assert len(sim._queue) == 0

    @pytest.mark.parametrize("solver", SOLVERS, ids=SOLVER_IDS)
    def test_abort_all_cancels_the_timer(self, solver):
        sim, fabric, route = self._fabric(solver)
        for key in range(10):
            fabric.start_flow(key, route, 50_000)
        assert sim.stats().pending_timers == 1
        for key in range(10):
            assert fabric.abort_flow(key)
        # The last abort cancels the next-finish timer on the spot.
        assert sim.stats().pending_timers == 0
        assert sim.run() or True
        assert sim.stats().pending_timers == 0 and len(sim._queue) == 0


class TestFabricStats:
    def test_snapshot_is_frozen_and_serializable(self):
        sim, fabric, route = TestTimerHygiene._fabric()
        fabric.start_flow("a", route, 10_000)
        sim.run()
        snap = fabric.stats()
        assert isinstance(snap, FabricStats)
        with pytest.raises(Exception):
            snap.active_flows = 5  # frozen dataclass
        d = snap.as_dict()
        assert d["flows_completed"] == 1 and d["idle"] is True
        assert snap.timer_fires >= 1

    def test_scoped_touches_no_more_than_dense(self):
        with _solver(DenseFluidSolver):
            dense = run_flow_fleet(n_flows=200, hosts=16)
        scoped = run_flow_fleet(n_flows=200, hosts=16)
        assert scoped.fabric.flows_touched < dense.fabric.flows_touched
        assert (
            scoped.fabric.flows_touched_per_update
            < dense.fabric.flows_touched_per_update
        )
        # Same membership history — only the touch sets differ.
        assert (
            scoped.fabric.membership_updates
            == dense.fabric.membership_updates
        )
        assert scoped.fabric.timer_fires == dense.fabric.timer_fires

    def test_transport_stats_carries_fabric_snapshot(self):
        r = run_flow_fleet(n_flows=50, hosts=4)
        assert isinstance(r.fabric, FabricStats)
        assert r.fabric.flows_started == 50
        assert r.fabric.peak_concurrent_flows == r.peak_concurrent_flows
