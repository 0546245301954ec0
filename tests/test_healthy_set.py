"""Healthy capacity: the up flags against a scan of the devices.

``Island.n_healthy`` and ``Island.healthy_at`` read one byte per device
that every device transition sets, and ``ResourceManager.bind_slice``
picks a slice's devices by their positions among the healthy ones (a
run, or every step-th, wrapping).  The
oracles (``tests/oracles.py``) scan the island's devices instead.  Random
fault schedules (Poisson device faults applied lazily on cold devices
and eagerly on bound ones, hand-written host crashes, preemptions and an
``add_island``) are probed at random times: the healthy count, random
positions, and the devices a slice bind picks must match the scan.
``REPRO_HEALTHY_FUZZ_EXAMPLES`` sets the budget (25 by default).
"""

from __future__ import annotations

import os

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from repro.core.system import PathwaysSystem
from repro.core.virtual_device import VirtualSlice
from repro.hw.cluster import ClusterSpec
from repro.resilience import FaultInjector, FaultSchedule, RecoveryManager

EXAMPLES = int(os.environ.get("REPRO_HEALTHY_FUZZ_EXAMPLES", "25"))


@st.composite
def scenarios(draw):
    times = st.integers(1, 80).map(lambda k: k * 1_000.0 + 0.5)
    return {
        "seed": draw(st.integers(0, 10_000)),
        "mtbf_us": draw(st.sampled_from([10_000.0, 40_000.0])),
        "repair_us": draw(st.sampled_from([0.0, 3_000.0, 15_000.0])),
        "aggregate_threshold": draw(st.sampled_from([2, 64])),
        "disjoint": draw(st.booleans()),
        "hosts": draw(st.lists(
            st.tuples(times, st.integers(0, 3), st.sampled_from([0.0, 9_000.0])),
            max_size=2,
        )),
        "preemptions": draw(st.lists(
            st.tuples(times, st.sampled_from([2_000.0, 20_000.0])), max_size=2
        )),
        "grow_at": draw(st.none() | times),
        # (bind time, slice size, island, hold time): a slice held for a
        # while keeps its devices warm, so their faults are eager.
        "binds": draw(st.lists(
            st.tuples(times, st.sampled_from([1, 2, 3, 5, 12]), st.integers(0, 1),
                      st.sampled_from([0.0, 4_000.0, 30_000.0])),
            min_size=1, max_size=8,
        )),
        "probes": draw(st.lists(times, min_size=1, max_size=8)),
    }


def _check_positions(island, seen: list) -> None:
    want = oracles.healthy_devices(island)
    n = len(want)
    assert island.n_healthy == n
    for start, count, step in [(0, n, 1), (n - 1, 1, 1), (n // 2, n, 1),
                               (n // 3, n // 2, 2), (n - 1, n // 3, 3)]:
        if 0 <= start < n and step <= n:
            got = island.healthy_at(start, count, step)
            assert got == [want[(start + i * step) % n] for i in range(count)]
    seen.append(n)


def _bind(system, size: int, island_index: int, hold_us: float, seen: list) -> None:
    rm = system.resource_manager
    island = rm.islands[island_index % len(rm.islands)]
    if island.n_healthy < size:
        return
    want = oracles.bind_choice(rm, island, size)
    vslice = VirtualSlice(size, island_id=island.island_id)
    group = rm.bind_slice(vslice)
    assert group.devices == want
    seen.append([d.device_id for d in want])
    system.sim.timeout(hold_us).add_callback(lambda ev: rm.release_slice(vslice))


@settings(max_examples=EXAMPLES, deadline=None)
@given(scn=scenarios())
def test_healthy_set_matches_the_scan(scn):
    system = PathwaysSystem.build(
        ClusterSpec(islands=((4, 4),), name="healthy"),
        aggregate_threshold=scn["aggregate_threshold"],
        disjoint_aggregate_reps=scn["disjoint"],
    )
    sim = system.sim
    recovery = RecoveryManager(system)
    schedule = FaultSchedule.poisson_device_failures(
        scn["mtbf_us"], 90_000.0, range(16), seed=scn["seed"],
        repair_us=scn["repair_us"],
    )
    for at, host, repair in scn["hosts"]:
        schedule.host_crash(at, host, repair_us=repair)
    for at, duration in scn["preemptions"]:
        schedule.island_preemption(at, 0, duration)
    FaultInjector(recovery, schedule)
    if scn["grow_at"] is not None:
        sim.timeout(scn["grow_at"]).add_callback(lambda ev: system.add_island(2, 4))
    seen: list = []
    for at, size, island, hold in scn["binds"]:
        sim.timeout(at).add_callback(
            lambda ev, a=(size, island, hold): _bind(system, *a, seen)
        )
    for at in scn["probes"]:
        sim.timeout(at).add_callback(
            lambda ev: [_check_positions(i, seen) for i in system.cluster.islands]
        )
    sim.run()
    for island in system.cluster.islands:
        _check_positions(island, seen)
    assert seen
