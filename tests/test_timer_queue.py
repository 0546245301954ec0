"""The timer queue against a sorted-list model, property-style.

The reference model is the sorted list of *live* ``(when, seq, event)``
entries.  For every interleaving of pushes, pops and discards (``TimerHandle``
cancellations) the queue must pop the model's head, report the model's
earliest time as ``min_when`` (``inf`` when empty), and count only live
entries.  ``min_when`` matters beyond the queue: the drain loop orders
timer entries against the zero-delay FIFO with it, so a stale value
after a cancellation would reorder real schedules.  Whole-run schedules
are pinned end to end by ``test_sim_determinism.py``'s golden digests.
"""

from __future__ import annotations

import bisect
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import TimerQueue

#: Fire times: same-instant ties (seq tie-break), a near-future spread,
#: and far-future outliers.
WHENS = st.one_of(
    st.sampled_from([0.0, 1.0, 5.0, 5.0, 32.0]),
    st.floats(min_value=0.0, max_value=1e4),
    st.floats(min_value=1e8, max_value=1e12),
)

#: Push a `when`, or pop (``None``).
PUSH_POP_OPS = st.lists(st.one_of(WHENS, st.none()), min_size=1, max_size=200)

#: Push a `when`, pop (``None``), or discard a random live entry.
OPS = st.lists(
    st.one_of(WHENS, st.none(), st.tuples(st.just("x"), st.integers(0, 40))),
    min_size=1,
    max_size=200,
)


class _Shot:
    """Minimal cancellable entry (the TimerHandle-shot contract)."""

    __slots__ = ("tag", "_dead")

    def __init__(self, tag):
        self.tag = tag
        self._dead = False


def _key(entry):
    return entry[0], entry[1]


def _run(ops, check=None):
    """Apply `ops` to a queue and to the sorted-list model of its live
    entries; pops must agree.  `check(q, model)` runs after every op.
    Returns the queue and model, drained."""
    q = TimerQueue()
    model = []  # live entries, sorted by (when, seq)
    seq = 0
    for op in ops:
        if op is None:
            if model:
                assert q.pop() == model.pop(0)
        elif isinstance(op, tuple):
            if model:
                when, _, shot = model.pop(op[1] % len(model))
                shot._dead = True
                q.discard(when, shot)
        else:
            seq += 1
            entry = (op, seq, _Shot(seq))
            bisect.insort(model, entry, key=_key)
            q.push(*entry)
        if check is not None:
            check(q, model)
    while model:
        assert q.pop() == model.pop(0)
    assert len(q) == 0 and q.min_when == float("inf") and not q._heap


def _check_live_view(q, model):
    assert len(q) == len(model)
    assert q.min_when == (model[0][0] if model else float("inf"))


@given(ops=PUSH_POP_OPS)
@settings(max_examples=200, deadline=None)
def test_pop_order_matches_heap_reference(ops):
    _run(ops)


@given(ops=PUSH_POP_OPS)
@settings(max_examples=100, deadline=None)
def test_min_when_tracks_heap_reference(ops):
    _run(ops, _check_live_view)


@given(ops=OPS)
@settings(max_examples=300, deadline=None)
def test_discard_matches_heap_reference(ops):
    """Random push/pop/discard streams: ``min_when`` must always name
    the earliest *live* entry, and once nothing is live no tombstone may
    linger."""

    def check(q, model):
        _check_live_view(q, model)
        if not model:
            assert not q._heap

    _run(ops, check)


def test_zero_delay_burst_pops_in_seq_order():
    q = TimerQueue()
    for seq in range(100):
        q.push(0.0, seq, seq)
    assert [q.pop()[1] for _ in range(100)] == list(range(100))


def test_interleaved_steady_state_churn():
    """Steady state: pop one, push one a random distance past it."""
    rng = random.Random(3)
    q, model = TimerQueue(), []
    now = 0.0
    for seq in range(500):
        entry = (now + rng.random() * 1000.0, seq, seq)
        bisect.insort(model, entry)
        q.push(*entry)
    for seq in range(500, 20_000):
        want = model.pop(0)
        assert q.pop() == want
        now = want[0]
        entry = (now + rng.random() * 1000.0, seq, seq)
        bisect.insort(model, entry)
        q.push(*entry)
        assert q.min_when == model[0][0]


def _discarder(q):
    shots = {}

    def push(when, seq):
        shots[seq] = (when, _Shot(seq))
        q.push(when, seq, shots[seq][1])

    def discard(seq):
        when, shot = shots.pop(seq)
        shot._dead = True
        q.discard(when, shot)

    return push, discard


def test_head_discard_below_min_sweeps_exposed_tombstone():
    """Regression (a silently dropped timeout in an earlier queue):
    discarding the head must sweep the tombstones the removal exposes,
    or a dead entry becomes the head — ``min_when`` goes stale-early,
    a later ``pop`` returns the dead entry, and the live count drifts
    below the truth."""
    q = TimerQueue()
    push, discard = _discarder(q)
    push(100.0, 1)
    push(101.0, 2)
    push(102.0, 3)
    push(90.0, 0)
    assert q.pop()[0] == 90.0
    discard(2)  # a non-head tombstone
    push(10.0, 4)  # a new minimum
    assert q.min_when == 10.0
    discard(1)  # not the head: another tombstone
    assert len(q) == 2 and q.min_when == 10.0
    discard(4)  # the head: exposes the 100/101 tombstones
    assert len(q) == 1 and q.min_when == 102.0
    when, seq, shot = q.pop()
    assert (when, seq, shot._dead) == (102.0, 3, False)
    assert len(q) == 0 and q.min_when == float("inf") and not q._heap


def test_head_discard_below_min_drains_loaded_bucket():
    """Companion regression: the same discards where the live minimum
    is the only survivor — it must still be delivered, not stranded
    behind the tombstones."""
    q = TimerQueue()
    push, discard = _discarder(q)
    push(100.0, 1)
    push(101.0, 2)
    push(90.0, 0)
    assert q.pop()[0] == 90.0
    discard(2)
    push(10.0, 4)
    discard(1)
    assert len(q) == 1 and q.min_when == 10.0
    when, seq, shot = q.pop()
    assert (when, seq, shot._dead) == (10.0, 4, False)
    assert len(q) == 0 and q.min_when == float("inf") and not q._heap
