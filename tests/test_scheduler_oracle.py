"""The island scheduler's state machine against its mailbox oracle.

:class:`repro.core.scheduler.IslandScheduler` runs its grant loop as a
callback state machine.  The oracle (``tests/oracles.py``) runs the same
loop as one generator ``Process`` reading a mailbox.  Random timed
scripts of submissions, acks, completions and control messages, on a
coarse time grid so that many of them coincide, must end every request
the same way at the same time through both, with the same counters and
the same drain times.

The state machine counts admission per device tuple; the oracle counts
per device.  Gangs are drawn mostly from a small pool of shared tuples
on six devices -- disjoint groups, tuples that every client submits to,
and tuples that overlap others -- so the one-counter path, the
per-device path for overlapping tuples and purges of saturated tuples
all run; after every scripted action and completion the state machine's
counters must match the sanitizer's per-device recount of its live
grants.  ``REPRO_SCHED_FUZZ_EXAMPLES`` sets the fuzz budget (25 by
default).
"""

from __future__ import annotations

import os

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles

from repro.config import DEFAULT_CONFIG
from repro.core.scheduler import (
    EarliestDeadlinePolicy,
    FifoPolicy,
    IslandScheduler,
    ProportionalSharePolicy,
)
from repro.hw.topology import Island
from repro.sim import Simulator

EXAMPLES = int(os.environ.get("REPRO_SCHED_FUZZ_EXAMPLES", "25"))

_N_DEVICES = 6
#: Disjoint groups (drawn twice as often), tuples overlapping them and
#: each other, a single device and the whole island.
_POOL = [
    {0, 1}, {0, 1}, {2, 3}, {2, 3}, {4, 5}, {4, 5},
    {1, 2}, {3, 4, 5}, {5}, set(range(_N_DEVICES)),
]
#: A 2 µs grid: decisions of 2 or 4 µs end on it, so control messages
#: land exactly as a grant decides or acks.
_TIMES = st.integers(0, 10).map(lambda k: 2.0 * k)

_SUBMIT = st.tuples(
    st.just("submit"),
    _TIMES,
    st.sampled_from("abc"),
    st.one_of(
        st.sampled_from(_POOL),
        st.sets(st.integers(0, _N_DEVICES - 1), min_size=1, max_size=3),
    ),
    st.sampled_from([1.0, 4.0, 16.0]),
    st.one_of(st.none(), st.sampled_from([0.0, 2.0, 6.0, 20.0])),  # deadline
    st.sampled_from([0.0, 2.0]),  # ack delay after the grant
    st.sampled_from([2.0, 6.0, 30.0]),  # completion after the ack
)
_CONTROL = st.tuples(
    st.sampled_from(
        ["evict", "evict", "readmit", "readmit", "pause", "resume", "drain", "undrain"]
    ),
    _TIMES,
    st.integers(0, _N_DEVICES - 1),
)
_SCRIPTS = st.tuples(
    st.sampled_from(["fifo", "share", "edf"]),
    st.sampled_from([0.0, 2.0, 4.0, 4.0]),  # scheduler_decision_us
    st.sampled_from([1, 2, 3]),  # scheduler_queue_depth (3 is the default)
    st.lists(st.one_of(_SUBMIT, _CONTROL), min_size=4, max_size=24),
)

_POLICIES = {
    "fifo": FifoPolicy,
    "share": lambda: ProportionalSharePolicy({"a": 1.0, "b": 2.0, "c": 4.0}),
    "edf": EarliestDeadlinePolicy,
}


def _state_machine(sim, cfg, policy):
    island = Island(sim, cfg, 0, n_hosts=1, devices_per_host=_N_DEVICES)
    return IslandScheduler(sim, island, cfg, policy=policy)


def _play(make, script):
    """Run ``script`` on a fresh scheduler; what happened, comparably."""
    policy, decision_us, depth, actions = script
    sim = Simulator()
    cfg = DEFAULT_CONFIG.with_overrides(
        scheduler_decision_us=decision_us, scheduler_queue_depth=depth
    )
    sched = make(sim, cfg, _POLICIES[policy]())
    outcomes: dict[int, tuple] = {}
    drains: list[tuple[int, float]] = []

    def conserved():
        if isinstance(sched, IslandScheduler):
            problems = sched._sanitizer_problems()
            assert [p for p in problems if p[0] == "conservation"] == []

    def submit(i, client, devices, cost, deadline, ack_us, hold_us):
        req = sched.submit(
            client, "p", f"g{i}", cost_us=cost, device_ids=tuple(sorted(devices)),
            deadline_at_us=None if deadline is None else sim.now + deadline,
        )

        def finish(ev=None):
            req.enqueued_ack.succeed_inline(None)
            sim.timeout(hold_us).add_callback(lambda ev: (sched.complete(req), conserved()))

        def on_grant(ev):
            if ev._exc is not None:
                outcomes[i] = (type(ev._exc).__name__, sim.now)
            else:
                outcomes[i] = ("granted", sim.now)
                if ack_us > 0:
                    sim.timeout(ack_us).add_callback(finish)
                else:
                    finish()

        req.grant.add_callback(on_grant)
        conserved()

    def control(i, kind, device):
        if kind == "evict":
            sched.evict_device(device)
        elif kind == "readmit":
            sched.readmit_device(device)
        elif kind == "drain":
            sched.drain().add_callback(lambda ev: drains.append((i, sim.now)))
        else:
            getattr(sched, kind)()
        conserved()

    for i, action in enumerate(actions):
        if action[0] == "submit":
            _, at, *args = action
            sim.timeout(at).add_callback(lambda ev, i=i, args=args: submit(i, *args))
        else:
            kind, at, device = action
            sim.timeout(at).add_callback(
                lambda ev, i=i, kind=kind, device=device: control(i, kind, device)
            )
    # Leave nothing parked: every pending gang is granted or expires.
    end = sim.timeout(40.0)
    end.add_callback(lambda ev: (sched.resume(), sched.undrain()))
    counters = lambda: (  # noqa: E731
        sched.decisions, sched.evictions, sched.deadline_evictions,
        sched.stale_completions, sched.rejected_draining, sched.in_flight,
    )
    return sim, outcomes, drains, counters


@given(script=_SCRIPTS)
# An evict while the gang on that device is deciding, and a readmit at
# the instant the next gang's decision ends: each is applied after the
# gang's ack, so both gangs are purged and their completions are stale.
@example(script=("fifo", 4.0, 1, [
    ("submit", 0.0, "a", {0}, 1.0, None, 2.0, 6.0),
    ("submit", 0.0, "b", {1}, 1.0, None, 0.0, 2.0),
    ("evict", 2.0, 0),
    ("readmit", 10.0, 1),
]))
# A submission reaching the stalled loop while its tuple is saturated
# is applied without a wake; the ``done`` that frees the tuple lands at
# the same instant and wakes the loop, which grants the older waiter.
@example(script=("fifo", 0.0, 1, [
    ("submit", 0.0, "a", {0, 1}, 1.0, None, 0.0, 2.0),
    ("submit", 0.0, "b", {0, 1}, 1.0, None, 0.0, 2.0),
    ("submit", 2.0, "c", {0, 1}, 1.0, None, 0.0, 2.0),
]))
# An overlapping tuple goes live while another tuple is saturated: the
# tuple it overlaps switches to per-device counting mid-grant, the
# saturated one keeps its single counter.
@example(script=("fifo", 2.0, 2, [
    ("submit", 0.0, "a", {0, 1}, 1.0, None, 0.0, 30.0),
    ("submit", 0.0, "b", {0, 1}, 1.0, None, 0.0, 30.0),
    ("submit", 0.0, "c", {2, 3}, 1.0, None, 0.0, 30.0),
    ("submit", 2.0, "a", {3, 4}, 1.0, None, 2.0, 6.0),
    ("submit", 4.0, "b", {2}, 1.0, None, 0.0, 2.0),
    ("submit", 4.0, "c", {0, 1}, 1.0, None, 0.0, 2.0),
]))
# An evict inside a saturated tuple purges its grant and decrements the
# tuple, which the single-device gangs then overlap holding no grant and
# forget; the grant's ``done`` arrives later, stale, and must not free a
# slot that the gangs granted since hold.
@example(script=("fifo", 2.0, 1, [
    ("submit", 0.0, "a", {0, 1}, 1.0, None, 0.0, 8.0),
    ("submit", 0.0, "b", {0, 1}, 1.0, None, 0.0, 2.0),
    ("evict", 2.0, 1),
    ("submit", 4.0, "b", {0}, 1.0, None, 0.0, 6.0),
    ("submit", 4.0, "c", {0}, 1.0, None, 0.0, 2.0),
]))
# A submission whose deadline is already due reaches the stalled loop
# with its tuple saturated, and a ``done`` frees the tuple at that
# instant: it still wakes the loop, since its expiry lands behind that
# wake, after the next gang is granted.
@example(script=("fifo", 0.0, 1, [
    ("submit", 0.0, "a", {0, 1}, 1.0, None, 0.0, 2.0),
    ("submit", 0.0, "a", {0, 1}, 1.0, None, 0.0, 2.0),
    ("submit", 0.0, "a", {0, 1}, 1.0, None, 0.0, 2.0),
    ("submit", 0.0, "a", {0, 1}, 1.0, None, 2.0, 2.0),
    ("submit", 0.0, "a", {0, 1}, 1.0, None, 0.0, 2.0),
    ("submit", 6.0, "a", {0, 1}, 1.0, 0.0, 0.0, 2.0),
]))
@settings(max_examples=EXAMPLES, deadline=None)
def test_state_machine_matches_mailbox_oracle(script):
    sim, got, got_drains, got_counters = _play(_state_machine, script)
    sim.run()
    oracle_sim, want, want_drains, want_counters = _play(
        oracles.MailboxScheduler, script
    )
    oracle_sim.run(detect_deadlock=False)
    assert got == want
    assert got_drains == want_drains
    assert got_counters() == want_counters()
    n_submits = sum(action[0] == "submit" for action in script[3])
    assert len(got) == n_submits
    assert sim.sanitizer is None or sim.sanitizer.sweeps >= 1
