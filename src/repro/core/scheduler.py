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
from dataclasses import dataclass, field
from typing import Generator, Optional, Protocol

from repro.config import SystemConfig
from repro.hw.device import DeviceFailure
from repro.hw.topology import Island
from repro.sim import Event, Simulator, Store

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


@dataclass
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
    #: Devices the gang occupies (admission control is per device).
    device_ids: tuple[int, ...] = ()
    #: Absolute sim-time grant deadline; an ungranted request past it is
    #: evicted with :class:`DeadlineExceeded` (None = wait forever).
    deadline_at_us: Optional[float] = None
    #: Lifecycle stamps (µs) — set unconditionally (two float stores),
    #: read only when a tracer is attached.
    submitted_us: float = 0.0
    granted_us: float = 0.0
    seq: int = field(default_factory=lambda: next(_request_seq))


class SchedulingPolicy(Protocol):
    """Chooses the next request from a non-empty pending list."""

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
        self._pass: dict[str, float] = {}

    def set_weight(self, client: str, weight: float) -> None:
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self.weights[client] = weight

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

    Messages reach the grant loop through its mailbox, with one
    exception.  A control message (everything but a submission: evict,
    readmit, done, expire, pause, resume, drain, undrain) is applied on
    delivery when the loop is parked on an empty mailbox and nothing is
    pending: no earlier message is still in flight, and with no pending
    request there is nothing the message could make grantable, so a
    wake would only apply it and park again.  In every other state it
    queues, so the loop sees it in arrival order at its next check: an
    ``evict`` mid-grant must still purge the gang being granted once
    its kernels are appended.  Submissions (``req``) always take the
    mailbox hop, so the policy picks among everything that arrived
    before the loop woke.
    """

    def __init__(
        self,
        sim: Simulator,
        island: Island,
        config: SystemConfig,
        policy: Optional[SchedulingPolicy] = None,
    ):
        self.sim = sim
        self.island = island
        self.config = config
        self.policy: SchedulingPolicy = policy if policy is not None else FifoPolicy()
        self._incoming: Store = Store(sim, name=f"sched_in[{island.island_id}]")
        self._pending: list[GangRequest] = []
        self._outstanding: dict[int, int] = {}
        #: Granted-but-unfinished requests by seq -> live device ids.
        #: This is the authoritative admission-control record: a
        #: ``complete`` for a request no longer here (evicted, or its
        #: device was readmitted after a restart) is stale and must not
        #: touch the fresh counters.
        self._live_grants: dict[int, tuple[int, ...]] = {}
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
        self._proc = sim.process(
            self._run(), name=lambda: f"scheduler[{island.island_id}]", daemon=True
        )

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
        their deadline — non-preemptible devices are already running them.
        """
        req = GangRequest(
            client=client,
            program=program,
            node_label=node_label,
            grant=self.sim.event(),
            enqueued_ack=self.sim.event(),
            cost_us=cost_us,
            device_ids=tuple(device_ids),
            deadline_at_us=deadline_at_us,
            submitted_us=self.sim.now,
        )
        self._incoming.push(("req", req))
        if deadline_at_us is not None:
            delay = max(0.0, deadline_at_us - self.sim.now)
            self.sim.timeout(delay).add_callback(
                lambda ev, r=req: self._deliver("expire", r)
            )
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
            pending=len(self._pending),
            live_grants=len(self._live_grants),
            evictions=self.evictions,
            deadline_evictions=self.deadline_evictions,
            stale_completions=self.stale_completions,
            rejected_draining=self.rejected_draining,
        )

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

        Takes effect before this returns when the grant loop is parked
        with nothing pending (see the class docstring); otherwise the
        loop applies it at its next check, after any grant in progress
        is acknowledged, so a gang being granted on the device is still
        purged.
        """
        self._deliver("evict", device_id)

    def readmit_device(self, device_id: int) -> None:
        """A previously-evicted device restarted: drop any stale
        admission accounting so the device is schedulable again.

        Without this, a ``complete`` for a gang granted *before* the
        eviction can race work granted *after* the restart and corrupt
        the fresh counters (over-admitting past the queue depth).

        Applied before this returns under the same rule as
        :meth:`evict_device`.  With requests pending it queues instead:
        freeing the device may make one grantable, and only the loop
        grants.
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
        """Apply a control message now if the loop is parked on an empty
        mailbox with nothing pending, else queue it (class docstring)."""
        if not self._pending and self._incoming.getters_waiting:
            self._apply(kind, payload)
        else:
            self._incoming.push((kind, payload))

    def _eligible(self, req: GangRequest) -> bool:
        depth = self.config.scheduler_queue_depth
        outstanding = self._outstanding
        get = outstanding.get
        for d in req.device_ids:
            if get(d, 0) >= depth:
                return False
        return True

    def _release(self, device_ids: tuple[int, ...]) -> None:
        for d in device_ids:
            remaining = self._outstanding.get(d, 0) - 1
            if remaining > 0:
                self._outstanding[d] = remaining
            else:
                self._outstanding.pop(d, None)

    def _purge_device(self, device_id: int) -> None:
        """Forget granted-work accounting involving ``device_id``; the
        surviving devices of affected gangs are released too (their
        kernels were aborted by the collective release)."""
        self._outstanding.pop(device_id, None)
        live = self._live_grants
        if not live:
            return
        for seq, devices in list(live.items()):
            if device_id in devices:
                del live[seq]
                self._release(tuple(d for d in devices if d != device_id))

    def _apply(self, kind: str, payload) -> None:
        # Fault traffic first: under churn nearly every message is an
        # evict or a readmit.
        if kind == "evict":
            device_id = payload
            self._purge_device(device_id)
            if self._pending:
                doomed = [r for r in self._pending if device_id in r.device_ids]
                for req in doomed:
                    self._pending.remove(req)
                    self.evictions += 1
                    if not req.grant.triggered:
                        req.grant.fail(
                            DeviceFailure(device_id, f"evicted {req.node_label}")
                        )
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
            self._pending.append(payload)
        elif kind == "done":
            devices = self._live_grants.pop(payload.seq, None)
            if devices is None:
                # Granted before an eviction/readmit of one of its
                # devices: the counters were already settled then.
                self.stale_completions += 1
            else:
                self._release(devices)
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
                            "devices": len(devices),
                        },
                    )
            self._check_drained()
        elif kind == "expire":
            req = payload
            if req in self._pending:
                # Same removal path as a device eviction: surviving
                # requests keep their sequence numbers, so the relative
                # enqueue order of everything still eligible holds.
                self._pending.remove(req)
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

    def _drain_incoming(self) -> None:
        while True:
            ok, item = self._incoming.try_get()
            if not ok:
                break
            self._apply(*item)

    def _run(self) -> Generator:
        while True:
            kind, req = yield self._incoming.get()
            self._apply(kind, req)
            self._drain_incoming()
            # Draining does not stop this loop: requests admitted before
            # the drain still grant in order; only new submissions are
            # rejected (in ``_apply``).  An empty pending list would only
            # break below, with no yield.
            while not self._paused and self._pending:
                if getattr(self.policy, "picks_first_eligible", False):
                    # FIFO fast path: _pending is in arrival (seq) order,
                    # so the first eligible entry is the policy's pick.
                    choice = None
                    for r in self._pending:
                        if self._eligible(r):
                            choice = r
                            break
                    if choice is None:
                        break
                else:
                    eligible = [r for r in self._pending if self._eligible(r)]
                    if not eligible:
                        break
                    choice = self.policy.pick(eligible)
                self._pending.remove(choice)
                if self.config.scheduler_decision_us > 0:
                    yield self.sim.timeout(self.config.scheduler_decision_us)
                self.decisions += 1
                for d in choice.device_ids:
                    self._outstanding[d] = self._outstanding.get(d, 0) + 1
                self._live_grants[choice.seq] = choice.device_ids
                choice.granted_us = self.sim.now
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
                # Serialize: the winner must finish appending its kernels
                # before anyone else is granted, preserving a single
                # global enqueue order on this island.
                yield choice.enqueued_ack
                self._drain_incoming()
