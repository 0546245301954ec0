"""The route-class fluid solver against the per-flow reference,
property-style.

The scoped route-class engine must be *byte-identical* to the dense
per-flow reference (``tests/oracles.py``, which shares no code with it)
— not approximately equal: same per-flow delivery times, same link
counters, same busy fractions, and the same whole-simulation event
schedule — for every interleaving of flow starts, aborts, link faults,
and restores.  The equivalence argument has two parts.  A flow's rate
is a pure function of its route links' flow counts, so the dense
engine's "rate unchanged -> skip" set equals the scoped engine's
unaffected set exactly.  And every flow on one route shares that rate
and changes it at the same instants, so a route class integrating its
members in lockstep performs the very float operations the per-flow
engine performs one flow at a time: the class subtracts ``rate *
elapsed`` from its float64 buffer of remaining bytes with one NumPy
operation, and elementwise IEEE subtraction rounds each member exactly
as the per-flow ``remaining -= rate * elapsed`` does.  The class keeps
its members sorted by remaining bytes, and lockstep keeps them sorted:
IEEE subtraction is monotone, so ``a <= b`` implies ``a - x <= b - x``,
and a projected finish ``at + max(r, 0) / rate`` is monotone in ``r``.
The head is the first member, the due members are a prefix, and
ordering the due set by start order gives the per-flow engine's
completion order.  These tests pin the argument at the fabric layer
(where hypothesis shrinking is cheap), with a stream built to grow
large classes and one pinned class of 160 members (the e2e ``fabric``
workload's scale), and then end to end through the full transport
scenarios, the fault drills included.

Both engines share :class:`~repro.net.fabric.Link`, so equivalence
alone cannot see a busy-log defect.  Every fabric-layer stream
therefore also records each flow's lifetime (start to completion,
abort or eviction) and checks each link's busy fraction against the
union of the lifetimes of the flows crossing it.

``REPRO_FLUID_FUZZ_EXAMPLES`` sets the budget of both fuzzes (150 and
100 by default; CI's bench job runs 500).
"""

from __future__ import annotations

import os
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from oracles import DenseFluidSolver
from repro.config import SystemConfig
from repro.net import fabric as fabric_module
from repro.net.fabric import Fabric, ScopedFluidSolver
from repro.sim import Simulator
from repro.stats import FabricStats
from repro.workloads.netload import run_flow_fleet, run_net_congestion

EXAMPLES = int(os.environ.get("REPRO_FLUID_FUZZ_EXAMPLES", "0"))


def _ignore() -> None:
    """Completion callback for a flow whose completion is not observed."""


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


#: Two hosts on island 0 and one on island 1: only a handful of distinct
#: routes exist, so route classes collect many members.
_FEW_HOSTS = [_HOSTS[0], _HOSTS[1], _HOSTS[4]]

#: Links each shared by two or more routes among ``_FEW_HOSTS``.
_SHARED_LINKS = [
    "nic_tx[h0]", "nic_rx[h1]", "uplink_tx[i0]", "spine[p0]", "spine[p1]",
]

_CLASS_START = st.builds(
    lambda pair, nbytes, delay: ("start", *pair, nbytes, delay),
    # Mostly one route: members pile up.
    st.sampled_from([(0, 1), (0, 1), (0, 1), (1, 0), (0, 2), (1, 2)]),
    st.one_of(
        # Equal-size members started together complete as a
        # same-instant tie.
        st.sampled_from([1 << 20, 1 << 20, 1 << 20, 65536, 1 << 22]),
        # Mixed sizes: a newcomer lands at the head, mid-list or tail.
        st.integers(1 << 16, 1 << 22),
    ),
    # Non-zero delays start newcomers into classes already part-drained.
    st.sampled_from([0.0, 0.0, 0.0, 0.0, 1.0, 10.0, 100.0]),
)

_CLASS_OPS = st.tuples(
    st.lists(_CLASS_START, min_size=12, max_size=40),
    st.lists(
        st.one_of(
            _CLASS_START,
            st.tuples(st.just("abort_head"), st.integers(0, 5), _DELAYS),
            st.tuples(st.just("abort_member"), st.integers(0, 40), _DELAYS),
            st.tuples(st.just("down_link"), st.sampled_from(_SHARED_LINKS), _DELAYS),
            st.tuples(st.just("restore"), _DELAYS),
        ),
        max_size=30,
    ),
).map(lambda parts: parts[0] + parts[1])


def _remaining(solver) -> dict:
    """Live key -> remaining bytes as of its last sync.  Both solvers
    sync a flow at the same instants to the same bits, so the two
    views agree."""
    if isinstance(solver, ScopedFluidSolver):
        return {
            f.key: r
            for c in solver.classes.values()
            for f, r in zip(c.flows, c.rem)
        }
    return {k: f.remaining for k, f in solver.flows.items()}


def _assert_sorted(solver) -> None:
    """Each route class's members stay sorted by remaining bytes."""
    for cls in solver.classes.values():
        rem = cls.rem
        assert len(rem) == len(cls.flows)
        assert all(a <= b for a, b in zip(rem, rem[1:])), rem


def _union_busy(spans, lo: float, hi: float) -> float:
    """Length of the union of closed ``[start, end]`` spans inside
    ``[lo, hi]``."""
    busy, cur = 0.0, None
    for start, end in sorted(spans):
        if cur is not None and start <= cur[1]:
            cur[1] = max(cur[1], end)
            continue
        if cur is not None:
            busy += max(0.0, min(cur[1], hi) - max(cur[0], lo))
        cur = [start, end]
    if cur is not None:
        busy += max(0.0, min(cur[1], hi) - max(cur[0], lo))
    return busy


def _assert_busy_matches_flows(fabric, spans, routes, now) -> None:
    """Each link's busy fraction is the union of the lifetimes (start to
    completion, abort or eviction) of the flows crossing it, over the
    trailing window -- recomputed from the flows alone, so it does not
    trust the busy log both solvers share through ``Link``."""
    for link in fabric.links():
        lo = max(0.0, now - link.util_window_us)
        crossing = [spans[k] for k, route in routes.items() if link in route]
        expected = _union_busy(crossing, lo, now) / (now - lo) if now > lo else 0.0
        assert abs(link.busy_fraction(now) - expected) <= 1e-12, link.name


def _run_fabric_scenario(solver, ops, hosts=_HOSTS):
    """Drive one op stream straight into a Fabric; returns the full
    observable record (deliveries, victims, link counters, schedule)
    after checking every link's busy time against the flows' own
    lifetimes."""
    sim = Simulator(log_schedule=True)
    config = SystemConfig(spine_paths=2)
    with _solver(solver):
        fabric = Fabric(sim, config)
    deliveries: list = []
    log: list = []
    routes: dict = {}  # key -> route tuple, as started
    spans: dict = {}  # key -> [start, end] instants
    peak_class = 0

    def delivered(key):
        deliveries.append((key, sim.now))
        spans[key][1] = sim.now

    def live_on(route):
        return [k for k in fabric._solver.flows if routes[k] == route]

    def driver():
        nonlocal peak_class
        next_key = 0
        for op in ops:
            yield sim.timeout(op[-1])
            if op[0] == "start":
                src, dst = hosts[op[1]], hosts[op[2]]
                route = fabric.route(src, dst, flow_seq=next_key)
                if route and all(link.up for link in route):
                    key = next_key = next_key + 1
                    routes[key] = tuple(route)
                    spans[key] = [sim.now, None]
                    fabric.start_flow(
                        key, route, op[3], lambda k=key: delivered(k)
                    )
                    peak_class = max(peak_class, len(live_on(routes[key])))
            elif op[0] == "abort":
                live = list(fabric._solver.flows)
                if live:
                    key = live[op[1] % len(live)]
                    log.append(("abort", key, fabric.abort_flow(key)))
                    spans[key][1] = sim.now
            elif op[0] == "abort_head":
                # The oldest live member of one route: with equal sizes,
                # the member whose projection keys its class's entry.
                live_routes = list(dict.fromkeys(
                    routes[k] for k in fabric._solver.flows
                ))
                if live_routes:
                    key = live_on(live_routes[op[1] % len(live_routes)])[0]
                    log.append(("abort_head", key, fabric.abort_flow(key)))
                    spans[key][1] = sim.now
            elif op[0] == "abort_member":
                # A member of the largest class other than its head:
                # members sorted by remaining bytes, then start order.
                by_route: dict = {}
                for k in fabric._solver.flows:
                    by_route.setdefault(routes[k], []).append(k)
                members = max(by_route.values(), key=len, default=[])
                if len(members) > 1:
                    rem = _remaining(fabric._solver)
                    members.sort(key=lambda k: (rem[k], k))
                    key = members[1 + op[1] % (len(members) - 1)]
                    log.append(("abort_member", key, fabric.abort_flow(key)))
                    spans[key][1] = sim.now
            elif op[0] in ("down", "down_link"):
                if op[0] == "down_link":
                    link = fabric.link_by_name(op[1])
                else:
                    links = fabric.links()
                    link = links[op[1] % len(links)] if links else None
                if link is not None:
                    victims = fabric.take_down(link)
                    log.append(("down", link.name, victims))
                    for key, _ in victims:
                        spans[key][1] = sim.now
            else:
                down = [link for link in fabric.links() if not link.up]
                if down:
                    fabric.restore_link(down[0])
                    log.append(("restore", down[0].name))
            if isinstance(fabric._solver, ScopedFluidSolver):
                _assert_sorted(fabric._solver)

    sim.process(driver())
    sim.run()
    _assert_busy_matches_flows(fabric, spans, routes, sim.now)
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
        "peak_class": peak_class,
    }


def _assert_identical(dense, scoped):
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
@settings(max_examples=EXAMPLES or 150, deadline=None)
def test_scoped_matches_dense_exactly(ops):
    dense = _run_fabric_scenario(DenseFluidSolver, ops)
    scoped = _run_fabric_scenario(ScopedFluidSolver, ops)
    _assert_identical(dense, scoped)


@given(ops=_CLASS_OPS)
@settings(max_examples=EXAMPLES or 100, deadline=None)
def test_large_route_classes_match_per_flow_exactly(ops):
    """Few endpoints, many flows: classes of ten and more members,
    newcomers landing anywhere in a class, same-instant completion
    ties, head and mid-class aborts, and take-downs of links that two
    classes share."""
    dense = _run_fabric_scenario(DenseFluidSolver, ops, hosts=_FEW_HOSTS)
    scoped = _run_fabric_scenario(ScopedFluidSolver, ops, hosts=_FEW_HOSTS)
    target(float(scoped["peak_class"]), label="peak route-class size")
    _assert_identical(dense, scoped)


def test_large_class_ties_head_abort_and_shared_takedown():
    """One pinned stream through every class-specific path: twelve
    equal flows on one route start together (a same-instant tie), a
    second class shares the sender NIC, the head of the big class is
    aborted, then that shared NIC is taken down and restored."""
    same = [("start", 0, 1, 65536, 0.0)] * 12
    other = [("start", 0, 2, 65536, 0.0)] * 3
    ops = same + other + [
        ("abort_head", 0, 1.0),
        ("down_link", "nic_tx[h0]", 2.0),
        ("restore", 5.0),
    ] + same + [("restore", 0.0)]
    dense = _run_fabric_scenario(DenseFluidSolver, ops, hosts=_FEW_HOSTS)
    scoped = _run_fabric_scenario(ScopedFluidSolver, ops, hosts=_FEW_HOSTS)
    _assert_identical(dense, scoped)
    assert scoped["peak_class"] >= 12
    head_abort, takedown = scoped["log"][0], scoped["log"][1]
    assert head_abort == ("abort_head", 1, True)
    # Both classes crossing the NIC were evicted, in start order.
    victims = [key for key, _ in takedown[2]]
    assert takedown[1] == "nic_tx[h0]" and victims == list(range(2, 16))
    # The second burst completes as one same-instant tie.
    times = [t for k, t in scoped["deliveries"] if k > 15]
    assert len(times) == 12 and len(set(times)) == 1


def test_route_class_at_flow_scale():
    """One class as large as the e2e fabric workload's (160 members on
    one NIC pair, joining at distinct instants with mixed sizes): the
    class partly drains, a mid-class member aborts, then the sender NIC
    goes down and evicts the rest."""
    n = 160
    joins = [
        ("start", 0, 1, (1 << (16 + 2 * (i % 4))) + 977 * i, 3.0)
        for i in range(n)
    ]
    ops = joins + [
        ("abort_member", 70, 4000.0),
        ("down_link", "nic_tx[h0]", 1.0),
        ("restore", 5.0),
    ]
    dense = _run_fabric_scenario(DenseFluidSolver, ops, hosts=_FEW_HOSTS)
    scoped = _run_fabric_scenario(ScopedFluidSolver, ops, hosts=_FEW_HOSTS)
    _assert_identical(dense, scoped)
    assert scoped["peak_class"] >= 150
    abort, takedown = scoped["log"][0], scoped["log"][1]
    assert abort[0] == "abort_member" and abort[2] is True
    assert takedown[1] == "nic_tx[h0]"
    # Partly drained: some members delivered before the take-down, the
    # rest evicted with their exact remaining bytes.
    drained, victims = len(scoped["deliveries"]), takedown[2]
    assert drained > 20 and len(victims) > 20
    assert drained + len(victims) + 1 == n
    assert all(r > 0.0 for _, r in victims)


class _DustProbe(ScopedFluidSolver):
    """The solver, recording every negative remaining byte count a
    completion pass sees."""

    dust: list = []

    def _collect_due(self, now):
        for cls in self.classes.values():
            _DustProbe.dust.extend(r for r in cls.rem if r < 0.0)
        return super()._collect_due(now)


class TestSortedClassBoundaries:
    """Pinned streams through the sorted-member edges, each against the
    per-flow reference."""

    @staticmethod
    def _pair(ops, scoped=ScopedFluidSolver):
        dense = _run_fabric_scenario(DenseFluidSolver, ops, hosts=_FEW_HOSTS)
        result = _run_fabric_scenario(scoped, ops, hosts=_FEW_HOSTS)
        _assert_identical(dense, result)
        return result

    def test_smaller_newcomer_becomes_head_and_finishes_first(self):
        ops = [("start", 0, 1, 1 << 20, 0.0)] * 4 + [
            ("start", 0, 1, 65536, 10.0),
        ]
        deliveries = self._pair(ops)["deliveries"]
        assert [k for k, _ in deliveries] == [5, 1, 2, 3, 4]
        assert deliveries[0][1] < deliveries[1][1]

    def test_equal_remaining_newcomer_ties_in_start_order(self):
        # 2 MB and 4 MB share the NIC at 6,250 B/us: after 80 us the
        # 2 MB flow has exactly 1.5 MB left, the newcomer's size.
        ops = [
            ("start", 0, 1, 2_000_000, 0.0),
            ("start", 0, 1, 4_000_000, 0.0),
            ("start", 0, 1, 1_500_000, 80.0),
        ]
        deliveries = self._pair(ops)["deliveries"]
        assert [k for k, _ in deliveries] == [1, 3, 2]
        assert deliveries[0][1] == deliveries[1][1] < deliveries[2][1]

    def test_float_dust_members_complete_as_one_prefix(self):
        # Two equal flows share the sender NIC with a short one; the
        # fourth start lands exactly on their projected finish, so they
        # integrate a hair past zero and complete at once, ahead of
        # the newcomer that joined their class.
        ops = [
            ("start", 0, 1, 1_000_000, 0.0),
            ("start", 0, 1, 1_000_000, 0.0),
            ("start", 0, 2, 65536, 0.0),
            ("start", 0, 1, 4_000_000, 165.24288),
        ]
        _DustProbe.dust = []
        deliveries = self._pair(ops, scoped=_DustProbe)["deliveries"]
        assert len(_DustProbe.dust) == 2 and max(_DustProbe.dust) < 0.0
        assert [k for k, _ in deliveries] == [3, 1, 2, 4]
        assert deliveries[1][1] == deliveries[2][1] == 165.24288


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
            dense = run_flow_fleet(n_flows=300)
        scoped = run_flow_fleet(n_flows=300)
        assert dense.deliveries == scoped.deliveries
        assert dense.elapsed_us == scoped.elapsed_us
        assert dense.events == scoped.events
        assert dense.fabric.idle and scoped.fabric.idle


class TestSolverSelection:
    def test_default_is_scoped(self):
        fabric = Fabric(Simulator(), SystemConfig())
        assert type(fabric._solver) is ScopedFluidSolver


class TestRouteClassLifecycle:
    """A route class is every live flow on one route tuple: created
    with its first member, dropped with its last, and indexed by every
    link it crosses exactly while it lives."""

    @staticmethod
    def _fabric():
        sim = Simulator()
        fabric = Fabric(sim, SystemConfig())
        h0, h1, h4 = _FEW_HOSTS
        routes = {
            "a": tuple(fabric.route(h0, h1)),
            "b": tuple(fabric.route(h1, h0)),
            "c": tuple(fabric.route(h0, h4)),
        }
        return sim, fabric, routes

    @staticmethod
    def _assert_indexed(fabric):
        classes = list(fabric._solver.classes.values())
        for link in fabric.links():
            assert list(link._fluid) == [c for c in classes if link in c.route]
            assert link.fluid_flows == sum(len(c.flows) for c in link._fluid)

    def test_one_class_per_distinct_route(self):
        sim, fabric, routes = self._fabric()
        for key, name in enumerate("aabacb"):
            fabric.start_flow(key, list(routes[name]), 10_000 + key, _ignore)
        solver = fabric._solver
        assert list(solver.classes) == [routes["a"], routes["b"], routes["c"]]
        members = [{f.key for f in c.flows} for c in solver.classes.values()]
        assert members == [{0, 1, 3}, {2, 5}, {4}]
        # Members share one rate; remaining bytes stay parallel and sorted.
        _assert_sorted(solver)
        assert all(c.rate > 0.0 for c in solver.classes.values())
        self._assert_indexed(fabric)
        sim.run()

    def test_class_removed_with_its_last_member(self):
        sim, fabric, routes = self._fabric()
        for key, name in enumerate("aab"):
            fabric.start_flow(key, list(routes[name]), 50_000, _ignore)
        solver = fabric._solver
        assert fabric.abort_flow(2)  # "b"'s only member
        assert routes["b"] not in solver.classes
        self._assert_indexed(fabric)
        assert fabric.abort_flow(0)  # "a" keeps one member
        assert [f.key for f in solver.classes[routes["a"]].flows] == [1]
        self._assert_indexed(fabric)
        assert fabric.abort_flow(1)
        assert not solver.classes and not solver.flows
        self._assert_indexed(fabric)

    def test_drain_leaves_no_class_and_no_link_index(self):
        sim, fabric, routes = self._fabric()
        for key in range(30):
            fabric.start_flow(
                key, list(routes["abc"[key % 3]]), 4096 * (1 + key % 4), _ignore
            )
        victims = fabric.take_down(fabric.link_by_name("nic_tx[h0]"))
        assert [key for key, _ in victims] == [k for k in range(30) if k % 3 != 1]
        fabric.restore_link(fabric.link_by_name("nic_tx[h0]"))
        sim.run()
        solver = fabric._solver
        assert not solver.classes and not solver.flows and not solver.calendar
        assert all(not link._fluid and link.fluid_flows == 0 for link in fabric.links())
        assert fabric.idle


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
            fabric.start_flow(key, route, 10_000 + key, _ignore)
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
            fabric.start_flow(key, route, 50_000, _ignore)
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
        fabric.start_flow("a", route, 10_000, _ignore)
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
            dense = run_flow_fleet(n_flows=200)
        scoped = run_flow_fleet(n_flows=200)
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
        # The same flows are examined, but rated once per route class:
        # each NIC pair is one class, so one evaluation per change.
        assert dense.fabric.rate_recomputes == dense.fabric.flows_touched
        assert scoped.fabric.rate_recomputes <= scoped.fabric.membership_updates

    def test_transport_stats_carries_fabric_snapshot(self):
        r = run_flow_fleet(n_flows=50)
        assert isinstance(r.fabric, FabricStats)
        assert r.fabric.flows_started == 50
        assert r.fabric.peak_concurrent_flows == r.peak_concurrent_flows
