"""Per-island centralized gang scheduler (paper §4.4).

Every accelerator computation on an island is sequenced by one
scheduler.  The scheduler's serial grant loop guarantees the property
TPUs require: if two programs' computations overlap in device sets, all
devices observe the same relative enqueue order — so communicating
computations can never interleave inconsistently and deadlock.

Policies decide *which* pending computation is sequenced next:

* :class:`FifoPolicy` — the paper's current implementation ("simply
  enqueues work in FIFO order").
* :class:`ProportionalSharePolicy` — stride scheduling over client
  weights, the policy behind Figure 9's 1:1:1:1 and 1:2:4:8 traces.

Scheduling happens at millisecond timescales; each decision costs
``config.scheduler_decision_us`` on the scheduler's serial loop.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Optional, Protocol

from repro.config import SystemConfig
from repro.hw.device import DeviceFailure
from repro.hw.topology import Island
from repro.sim import Event, Simulator, TimerHandle

__all__ = [
    "DeadlineExceeded",
    "EarliestDeadlinePolicy",
    "FifoPolicy",
    "GangRequest",
    "IslandScheduler",
    "ProportionalSharePolicy",
]

_request_seq = itertools.count()


class DeadlineExceeded(RuntimeError):
    """A submission's deadline expired before the gang was granted.

    Deliberately *not* a :class:`~repro.faults.FaultError`: expired work
    is abandoned, not replayed — a retrying execution surfaces it as
    :class:`~repro.core.dispatch.ExecutionAbandoned` instead of burning
    replay attempts on a gang that would expire again.
    """

    def __init__(self, node_label: str, deadline_at_us: float):
        super().__init__(
            f"gang {node_label!r} evicted: deadline {deadline_at_us:.1f}us expired "
            "before grant"
        )
        self.node_label = node_label
        self.deadline_at_us = deadline_at_us


@dataclass(eq=False, slots=True)
class GangRequest:
    """One computation instance awaiting its enqueue turn."""

    client: str
    program: str
    node_label: str
    grant: Event
    enqueued_ack: Event
    #: Device-time estimate for this unit; lets proportional share charge
    #: by time consumed rather than unit count.
    cost_us: float = 1.0
    #: Devices the gang occupies (admission is counted per tuple).
    device_ids: tuple[int, ...] = ()
    #: Absolute sim-time grant deadline; an ungranted request past it is
    #: evicted with :class:`DeadlineExceeded` (None = wait forever).
    deadline_at_us: Optional[float] = None
    #: Lifecycle stamps (µs) — set unconditionally (two float stores),
    #: read only when a tracer is attached.
    submitted_us: float = 0.0
    granted_us: float = 0.0
    seq: int = field(default_factory=_request_seq.__next__)
    #: Armed at submit when there is a deadline; cancelled once the
    #: request leaves pending.
    deadline_timer: Optional[TimerHandle] = field(default=None, repr=False)


class SchedulingPolicy(Protocol):
    """Chooses the next request from the eligible pending ones (any order)."""

    def pick(self, pending: list[GangRequest]) -> GangRequest: ...


class FifoPolicy:
    """Strict arrival order."""

    #: The grant loop's fast path: since the pending list is kept in
    #: arrival (= seq) order, the first eligible request IS the FIFO
    #: winner — no eligible-list materialization needed.
    picks_first_eligible = True

    def pick(self, pending: list[GangRequest]) -> GangRequest:
        return min(pending, key=lambda r: r.seq)

    def __repr__(self) -> str:
        return "FifoPolicy()"


class ProportionalSharePolicy:
    """Stride scheduling: clients receive device time ∝ their weight.

    Each client carries a *pass* value; the pending request whose client
    has the lowest pass wins, and the winner's pass advances by
    ``cost / weight``.  Unknown clients default to weight 1.
    """

    def __init__(self, weights: Optional[dict[str, float]] = None):
        self.weights: dict[str, float] = dict(weights or {})
        for weight in self.weights.values():
            if weight <= 0:
                raise ValueError(f"weight must be positive, got {weight}")
        self._pass: dict[str, float] = {}

    def _weight(self, client: str) -> float:
        return self.weights.get(client, 1.0)

    def pick(self, pending: list[GangRequest]) -> GangRequest:
        # New clients join at the current minimum pass (so they cannot
        # monopolize by starting at zero) and advance independently from
        # there on.
        floor = min(self._pass.values(), default=0.0)
        for r in pending:
            self._pass.setdefault(r.client, floor)
        choice = min(pending, key=lambda r: (self._pass[r.client], r.seq))
        self._pass[choice.client] += choice.cost_us / self._weight(choice.client)
        return choice

    def __repr__(self) -> str:
        return f"ProportionalSharePolicy({self.weights})"


class EarliestDeadlinePolicy:
    """EDF for latency-class gangs: the pending request with the nearest
    deadline is sequenced first; deadline-free (best-effort) requests
    run behind every latency-class gang, in arrival order.

    The policy online serving installs on its islands: a just-admitted
    request with little SLO budget left overtakes queued work that can
    still afford to wait, which lowers deadline evictions without ever
    killing granted gangs (eviction semantics are unchanged — this only
    reorders *pending* work).
    """

    def pick(self, pending: list[GangRequest]) -> GangRequest:
        return min(
            pending,
            key=lambda r: (
                r.deadline_at_us if r.deadline_at_us is not None else math.inf,
                r.seq,
            ),
        )

    def __repr__(self) -> str:
        return "EarliestDeadlinePolicy()"


class IslandScheduler:
    """The serial sequencing loop for one island.

    Two responsibilities:

    * **consistent order** — grants are serialized (one at a time, each
      acknowledged after its kernels are appended), so every device
      observes the same relative order of overlapping gangs;
    * **admission control** — at most ``config.scheduler_queue_depth``
      granted-but-unfinished computations per device.  Deep enough to
      keep the non-preemptible queues busy (double buffering), shallow
      enough that the *policy*, not arrival order, apportions device
      time — this is what makes proportional share (Figure 9)
      enforceable at millisecond timescales.

    Admission counts grants per ``device_ids`` tuple (one per
    :class:`~repro.core.placement.DeviceGroup`): a tuple sharing no
    device with another registered tuple saturates exactly when its own
    count reaches the depth, so a grant or release touches one counter;
    overlapping tuples are counted per device.  Per-device work happens
    only when a tuple is first granted (a tuple it overlaps that holds
    no grant is then forgotten) or starts to overlap a live one.

    The loop is a callback state machine: *idle*, *wake queued* or
    *granting* (a grant deciding or awaiting its ack).  Idle, a control
    message (evict, readmit, done, expire, pause, resume, drain,
    undrain) with nothing pending is applied on delivery, since there
    is nothing it could make grantable; so is a submission to a stalled
    loop (idle, requests pending) naming a saturated device or while
    paused, since the last pick found nothing and it is no more
    grantable -- unless its deadline is already due, as its expiry then
    lands at this instant behind the wake it skips.  Any other message
    joins the inbox and queues one wake entry.  The wake applies the
    inbox in arrival order and grants, so the policy picks among every
    same-instant submission.  A message that arrives while a grant is
    in progress is applied after its ack: an ``evict`` mid-grant still
    purges the gang being granted.
    """

    def __init__(
        self,
        sim: Simulator,
        island: Island,
        config: SystemConfig,
        policy: Optional[SchedulingPolicy] = None,
    ):
        if config.scheduler_queue_depth < 1:
            raise ValueError(f"scheduler_queue_depth {config.scheduler_queue_depth} < 1")
        self.sim = sim
        self.island = island
        self.config = config
        self.policy: SchedulingPolicy = policy if policy is not None else FifoPolicy()
        self._first_eligible = getattr(self.policy, "picks_first_eligible", False)
        self._depth = config.scheduler_queue_depth
        self._decision_us = config.scheduler_decision_us
        #: Messages awaiting the loop, in arrival order.
        self._inbox: deque[tuple[str, object]] = deque()
        #: False while idle: no wake queued, no grant in progress.
        self._busy = False
        #: The wake entry, and the end of each grant decision.
        name = lambda: f"scheduler[{island.island_id}]"  # noqa: E731
        self._timer = sim.timer_handle(self._pump, name=name)
        self._decision = sim.timer_handle(self._grant, name=name)
        #: The request spending ``scheduler_decision_us`` on the loop.
        self._deciding: Optional[GangRequest] = None
        #: Pending requests by device tuple, each in arrival (seq) order.
        self._pending: dict[tuple[int, ...], deque[GangRequest]] = {}
        #: Live grants per registered tuple that overlaps no other, and
        #: per one that does, whose devices are summed in _outstanding.
        self._grants: dict[tuple[int, ...], int] = {}
        self._shared: dict[tuple[int, ...], int] = {}
        self._outstanding: dict[int, int] = {}
        #: Device -> the registered tuples naming it.
        self._users: dict[int, list[tuple[int, ...]]] = {}
        #: Devices at ``scheduler_queue_depth`` outstanding grants: a
        #: request is eligible when it names none of them.
        self._saturated: set[int] = set()
        #: Granted-but-unfinished requests by seq.  This is the
        #: authoritative admission-control record: a ``complete`` for a
        #: request no longer here (evicted, or its device was readmitted
        #: after a restart) is stale and must not touch the fresh
        #: counters.
        self._live_grants: dict[int, GangRequest] = {}
        self.decisions = 0
        self.evictions = 0
        self.deadline_evictions = 0
        self.stale_completions = 0
        self.rejected_draining = 0
        #: Set while the island is preempted: pending requests are kept
        #: (with their original sequence numbers) but nothing is granted.
        self._paused = False
        #: Set while the island is draining for a graceful handback:
        #: in-flight gangs finish, nothing new is granted.
        self._draining = False
        self._drain_waiters: list[Event] = []
        if sim.sanitize and sim.sanitizer is not None:
            sim.sanitizer.watch(self)

    def submit(
        self,
        client: str,
        program: str,
        node_label: str,
        cost_us: float = 1.0,
        device_ids: tuple[int, ...] = (),
        deadline_at_us: Optional[float] = None,
    ) -> GangRequest:
        """Register a computation for sequencing; caller waits on
        ``request.grant``, enqueues its kernels, triggers
        ``request.enqueued_ack`` so the next grant can proceed, and calls
        :meth:`complete` when the computation finishes on-device.

        ``deadline_at_us`` (absolute sim time) arms deadline eviction: if
        the request is still pending when the deadline passes, it leaves
        the queue through the eviction path and its grant fails with
        :class:`DeadlineExceeded`.  Granted gangs are never killed by
        their deadline — non-preemptible devices are already running
        them — so the timer is cancelled once the gang leaves pending.
        """
        clock = self.island._fault_clock
        if clock is not None:
            clock.warm_ids(device_ids)
        req = GangRequest(
            client=client,
            program=program,
            node_label=node_label,
            grant=self.sim.event(),
            enqueued_ack=self.sim.event(),
            cost_us=cost_us,
            device_ids=tuple(device_ids),
            deadline_at_us=deadline_at_us,
            submitted_us=self.sim._now,
        )
        self._deliver("req", req)
        if deadline_at_us is not None:
            now = self.sim.now
            req.deadline_timer = self.sim.timer_handle(
                lambda timer, r=req: self._deliver("expire", r)
            )
            req.deadline_timer.schedule(now + max(0.0, deadline_at_us - now))
        return req

    def complete(self, req: GangRequest) -> None:
        """Signal that a granted computation finished executing."""
        self._deliver("done", req)

    def stats(self):
        """Frozen scheduler snapshot (unified ``repro.stats`` protocol)."""
        from repro.stats import SchedulerStats

        return SchedulerStats(
            island_id=self.island.island_id,
            decisions=self.decisions,
            pending=sum(map(len, self._pending.values())),
            live_grants=len(self._live_grants),
            evictions=self.evictions,
            deadline_evictions=self.deadline_evictions,
            stale_completions=self.stale_completions,
            rejected_draining=self.rejected_draining,
        )

    def _sanitizer_problems(self) -> list[tuple[str, str]]:
        """Drain-end invariants: no gang may end pending with its grant
        unsettled, and none may end granted but never completed or
        purged (a leaked admission slot).  A dispatched node stuck
        pending is already a :class:`~repro.sim.DeadlockError` (its
        chain is still registered); this also covers gangs submitted
        directly and runs with deadlock detection off.  The admission
        counters must equal a per-device recount of the live grants."""
        problems = []
        name = f"scheduler[{self.island.island_id}]"
        pending = [req for bucket in self._pending.values() for req in bucket]
        stuck = [req.node_label for req in pending if not req.grant.triggered]
        if stuck:
            state = " (paused)" if self._paused else ""
            problems.append((
                "waiters",
                f"{name}{state} drained with {len(stuck)} gang(s) never "
                f"granted or evicted: {', '.join(stuck)}",
            ))
        if self._live_grants:
            live = [req.node_label for req in self._live_grants.values()]
            problems.append((
                "grants",
                f"{name} drained with {len(live)} gang(s) granted but never "
                f"completed or purged: {', '.join(live)}",
            ))
        # Conservation: no admission slot leaked or counted twice.
        live = Counter(req.device_ids for req in self._live_grants.values())
        want, got = Counter(), Counter(self._outstanding)
        for ids, n in live.items():
            want.update(dict.fromkeys(ids, n))
        for ids, n in self._grants.items():
            got.update(dict.fromkeys(ids, n))
        counted = (
            {ids: n for ids, n in {**self._grants, **self._shared}.items() if n},
            {d: n for d, n in got.items() if n},
            self._saturated,
        )
        recount = (dict(live), dict(want), {d for d, n in want.items() if n >= self._depth})
        if counted != recount:
            problems.append((
                "conservation",
                f"{name} admission counts (per tuple, per device, saturated) "
                f"{counted} disagree with its live grants' {recount}",
            ))
        return problems

    # -- fault tolerance ----------------------------------------------------
    def evict_device(self, device_id: int) -> None:
        """A device failed: fail every pending grant that names it and
        forget its granted-but-unfinished accounting.

        Requests on *surviving* devices keep their original sequence
        numbers, so the relative enqueue order of everything that can
        still run is unchanged — the consistent-order invariant survives
        the eviction.  Evicted work is replayed by the client's
        ``retry_on_failure`` path after the resource manager remaps its
        virtual slice.

        A gang being granted on the device when this arrives is purged
        once its ack is in (see the class docstring).
        """
        self._deliver("evict", device_id)

    def readmit_device(self, device_id: int) -> None:
        """A previously-evicted device restarted: drop any stale
        admission accounting so the device is schedulable again.

        Without this, a ``complete`` for a gang granted *before* the
        eviction can race work granted *after* the restart and corrupt
        the fresh counters (over-admitting past the queue depth).
        """
        self._deliver("readmit", device_id)

    def pause(self) -> None:
        """Island preemption: stop granting; pending requests are kept."""
        self._deliver("pause", None)

    def resume(self) -> None:
        """End of preemption: resume granting in original seq order."""
        self._deliver("resume", None)

    # -- elastic drain/handback --------------------------------------------
    def drain(self) -> Event:
        """Stop admitting new gangs; admitted work runs to completion.

        The graceful half of a preemption notice: unlike :meth:`pause`
        (which strands granted work when the island's devices are then
        failed), a drain lets everything already admitted — granted
        gangs *and* requests pending at drain time — finish in order.
        *New* submissions fail fast (their grant fails with
        :class:`DeviceFailure`), which sends resilient clients through
        their recovery path, where the resource manager remaps them off
        the draining island.  Returns an event that fires once nothing
        admitted remains (no pending requests, no granted-but-unfinished
        gangs).
        """
        drained = self.sim.event(name=lambda: f"drained[{self.island.island_id}]")
        self._deliver("drain", drained)
        return drained

    def undrain(self) -> None:
        """Resume granting after a drain (island handed back / kept)."""
        self._deliver("undrain", None)

    def held_device_ids(self) -> Optional[set[int]]:
        """Devices a queued, pending, deciding or granted gang names.
        None (every device of the island) while stalled -- idle with
        requests pending that nothing can grant yet -- since then any
        control message, even an evict naming no gang, wakes the loop."""
        if not self._busy and self._pending:
            return None
        named: set[int] = set().union(*self._pending)
        reqs = [*self._live_grants.values()]
        reqs += [p for kind, p in self._inbox if kind == "req"]
        if self._deciding is not None:
            reqs.append(self._deciding)
        for req in reqs:
            named.update(req.device_ids)
        return named

    @property
    def paused(self) -> bool:
        return self._paused

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def in_flight(self) -> int:
        """Granted-but-unfinished gangs."""
        return len(self._live_grants)

    # -- internals -----------------------------------------------------
    def _deliver(self, kind: str, payload) -> None:
        """Apply a message now if it cannot make anything grantable,
        else queue it, waking an idle loop (class docstring)."""
        if self._busy:
            self._inbox.append((kind, payload))
        elif not self._pending and kind != "req":
            self._apply(kind, payload)
        elif (
            # Stalled and this request no more grantable; one expiring
            # now keeps the wake, which must be applied before its expiry.
            kind == "req" and self._pending and not self._draining
            and (self._paused or not self._saturated.isdisjoint(payload.device_ids))
            and (payload.deadline_at_us is None or payload.deadline_at_us > self.sim._now)
        ):
            self._pending.setdefault(payload.device_ids, deque()).append(payload)
        else:
            self._inbox.append((kind, payload))
            self._busy = True
            self._timer.schedule(self.sim._now)

    @staticmethod
    def _cancel_deadline(req: GangRequest) -> None:
        if req.deadline_timer is not None:
            req.deadline_timer.cancel()

    def _count(self, ids: tuple[int, ...], k: int) -> None:
        """Add ``k`` grants to each device of a shared tuple."""
        depth = self._depth
        out = self._outstanding
        for d in ids:
            n = out[d] = out.get(d, 0) + k
            if n >= depth:
                self._saturated.add(d)
            else:
                self._saturated.discard(d)

    def _register(self, ids: tuple[int, ...]) -> None:
        """First grant of a tuple: record its devices.  A registered
        tuple it overlaps is forgotten if it holds no grant; otherwise
        both count per device from now on."""
        overlaps: dict[tuple[int, ...], None] = {}
        for d in ids:
            users = self._users.setdefault(d, [])
            overlaps.update(dict.fromkeys(users))
            users.append(ids)
        shared = ids in overlaps  # it names a device twice
        for t in overlaps:
            if t == ids:
                continue
            n = self._grants.get(t, self._shared.get(t))
            if not n:
                self._forget(t)
                continue
            shared = True
            if t in self._grants:
                self._shared[t] = self._grants.pop(t)
                self._count(t, n)
        (self._shared if shared else self._grants)[ids] = 0

    def _forget(self, ids: tuple[int, ...]) -> None:
        """Unregister a tuple that holds no grant."""
        if self._grants.pop(ids, None) is None:
            del self._shared[ids]
        for d in ids:
            self._users[d].remove(ids)
            if not self._users[d]:
                del self._users[d]

    def _release(self, ids: tuple[int, ...]) -> None:
        grants = self._grants
        if ids in grants:
            n = grants[ids] = grants[ids] - 1
            if n == self._depth - 1:
                self._saturated.difference_update(ids)
        else:
            self._shared[ids] -= 1
            self._count(ids, -1)

    def _purge_device(self, device_id: int) -> None:
        """Drop every live grant naming ``device_id`` (its kernels were
        aborted by the collective release), decrementing its tuple."""
        live = self._live_grants
        if not live:
            return
        for seq, req in list(live.items()):
            if device_id in req.device_ids:
                del live[seq]
                self._release(req.device_ids)

    def _apply(self, kind: str, payload) -> None:
        # Fault traffic first: under churn nearly every message is an
        # evict or a readmit.
        if kind == "evict":
            device_id = payload
            self._purge_device(device_id)
            hit = [ids for ids in self._pending if device_id in ids]
            doomed = [req for ids in hit for req in self._pending.pop(ids)]
            for req in sorted(doomed, key=lambda r: r.seq):
                self._cancel_deadline(req)
                self.evictions += 1
                if not req.grant.triggered:
                    req.grant.fail(DeviceFailure(device_id, f"evicted {req.node_label}"))
            self._check_drained()
        elif kind == "readmit":
            self._purge_device(payload)
            self._check_drained()
        elif kind == "req":
            if self._draining:
                # Not admitted: fail fast so the client's retry path can
                # remap onto a non-draining island instead of wedging on
                # a grant that will never come.
                self.rejected_draining += 1
                self._cancel_deadline(payload)
                if not payload.grant.triggered:
                    device = payload.device_ids[0] if payload.device_ids else -1
                    payload.grant.fail(
                        DeviceFailure(
                            device,
                            f"island {self.island.island_id} draining: "
                            f"rejected {payload.node_label}",
                        )
                    )
                return
            self._pending.setdefault(payload.device_ids, deque()).append(payload)
        elif kind == "done":
            if payload.seq not in self._live_grants:
                # Granted before an eviction/readmit of one of its
                # devices: the counters were already settled then.
                self.stale_completions += 1
            else:
                del self._live_grants[payload.seq]
                self._release(payload.device_ids)
                tr = self.sim.tracer
                if tr is not None:
                    tr.complete(
                        f"gang:{payload.node_label}",
                        "sched.granted",
                        payload.granted_us,
                        self.sim.now,
                        track=f"sched/island{self.island.island_id}",
                        args={
                            "client": payload.client,
                            "program": payload.program,
                            "devices": len(payload.device_ids),
                        },
                    )
            if self._draining:
                self._check_drained()
        elif kind == "expire":
            req = payload
            bucket = self._pending.get(req.device_ids)
            if bucket is not None and req in bucket:
                # Same removal path as a device eviction: surviving
                # requests keep their sequence numbers, so the relative
                # enqueue order of everything still eligible holds.
                bucket.remove(req)
                if not bucket:
                    del self._pending[req.device_ids]
                self.deadline_evictions += 1
                tr = self.sim.tracer
                if tr is not None:
                    tr.instant(
                        f"evict:{req.node_label}",
                        "sched.evict",
                        track=f"sched/island{self.island.island_id}",
                        args={"client": req.client, "reason": "deadline"},
                    )
                if not req.grant.triggered:
                    req.grant.fail(
                        DeadlineExceeded(req.node_label, req.deadline_at_us)
                    )
                self._check_drained()
        elif kind == "pause":
            self._paused = True
        elif kind == "resume":
            self._paused = False
        elif kind == "drain":
            self._draining = True
            self._drain_waiters.append(payload)
            self._check_drained()
        elif kind == "undrain":
            self._draining = False
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown scheduler message {kind!r}")

    def _check_drained(self) -> None:
        if not self._draining or self._live_grants or self._pending:
            return
        waiters, self._drain_waiters = self._drain_waiters, []
        for ev in waiters:
            if not ev.triggered:
                ev.succeed(None)

    def _pump(self, trigger=None) -> None:
        """Apply the inbox, then start the next grant, or go idle when
        nothing is grantable.  Runs on the wake entry and on each ack.

        Draining does not stop granting: requests admitted before the
        drain still grant in order; only new submissions are rejected
        (in ``_apply``)."""
        inbox = self._inbox
        while inbox:
            self._apply(*inbox.popleft())
        pending = self._pending
        choice = None
        if pending and not self._paused:
            # A bucket's requests share one tuple, so it is checked once.
            saturated = self._saturated
            if self._first_eligible:
                # FIFO fast path: each bucket is in arrival (seq) order,
                # so the eligible head with the smallest seq is the pick.
                for ids in pending:
                    if saturated.isdisjoint(ids):
                        head = pending[ids][0]
                        if choice is None or head.seq < choice.seq:
                            choice = head
            else:
                eligible = [
                    req
                    for ids, bucket in pending.items()
                    if saturated.isdisjoint(ids)
                    for req in bucket
                ]
                if eligible:
                    choice = self.policy.pick(eligible)
        if choice is None:
            clock = self.island._fault_clock
            if pending and clock is not None:
                # About to stall: a fault on any device of the island
                # would then wake the loop, so none of them may stay cold.
                clock.warm(self.island.devices)
            self._busy = False
            return
        bucket = pending[choice.device_ids]
        bucket.remove(choice)
        if not bucket:
            del pending[choice.device_ids]
        if choice.deadline_timer is not None:
            choice.deadline_timer.cancel()
        self._deciding = choice
        if self._decision_us > 0:
            self._decision.schedule(self.sim._now + self._decision_us)
        else:
            self._grant()

    def _grant(self, timer=None) -> None:
        """Grant the deciding request (at the end of its decision)."""
        choice, self._deciding = self._deciding, None
        self.decisions += 1
        ids = choice.device_ids
        grants = self._grants
        if ids not in grants and ids not in self._shared:
            self._register(ids)
        if ids in grants:
            n = grants[ids] = grants[ids] + 1
            if n == self._depth:
                self._saturated.update(ids)
        else:
            self._shared[ids] += 1
            self._count(ids, 1)
        self._live_grants[choice.seq] = choice
        choice.granted_us = self.sim._now
        tr = self.sim.tracer
        if tr is not None:
            tr.complete(
                f"pend:{choice.node_label}",
                "sched.pending",
                choice.submitted_us,
                choice.granted_us,
                track=f"sched/island{self.island.island_id}",
                args={"client": choice.client, "program": choice.program},
            )
        choice.grant.succeed(None)
        # Serialize: the winner must finish appending its kernels before
        # anyone else is granted, preserving a single global enqueue
        # order on this island.
        choice.enqueued_ack.add_callback(self._pump)
