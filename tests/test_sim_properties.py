"""Property-based tests on the simulation kernel (hypothesis)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Resource, Simulator


@given(delays=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_completion_times_are_sorted_event_order(delays):
    """Events must be processed in nondecreasing time order."""
    sim = Simulator()
    seen = []
    for d in delays:
        sim.timeout(d).add_callback(lambda e, dd=d: seen.append(sim.now))
    sim.run()
    assert seen == sorted(seen)
    assert len(seen) == len(delays)


@given(delays=st.lists(st.floats(min_value=0, max_value=1000), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_final_time_is_max_delay(delays):
    sim = Simulator()
    for d in delays:
        sim.timeout(d)
    assert sim.run() == max(delays)


@given(
    capacity=st.integers(min_value=1, max_value=5),
    works=st.lists(st.floats(min_value=0.1, max_value=50), min_size=1, max_size=25),
)
@settings(max_examples=60, deadline=None)
def test_resource_never_exceeds_capacity(capacity, works):
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    max_seen = [0]
    held = []

    def hold(w):
        max_seen[0] = max(max_seen[0], res.in_use)
        start = sim.now

        def release(ev):
            res.release()
            held.append(sim.now - start)

        sim.timeout(w).add_callback(release)

    for w in works:
        res.acquire(lambda w=w: hold(w))
    sim.run()
    assert max_seen[0] <= capacity
    assert res.in_use == 0
    # Work conservation: total busy time equals the sum of holds.
    assert abs(sum(held) - sum(works)) < 1e-6


@given(n=st.integers(min_value=1, max_value=30))
@settings(max_examples=40, deadline=None)
def test_all_of_waits_for_every_event(n):
    sim = Simulator()
    events = [sim.timeout(float(i), value=i) for i in range(n)]
    combined = sim.all_of(events)
    sim.run()
    assert combined.value == list(range(n))
