"""TPU-like simulated accelerator devices.

The properties that drive the paper's design are modeled exactly:

* **Single-threaded & non-preemptible** — a device executes one kernel at
  a time, strictly in enqueue (FIFO) order.  Nothing can be reordered or
  preempted once enqueued.
* **Collectives rendezvous** — a collective kernel blocks its device until
  *all* participating devices reach the *same* collective instance.  If
  two communicating programs are enqueued in inconsistent orders on
  different devices, the devices block forever: the simulation kernel
  reports :class:`~repro.sim.DeadlockError`.  This is the precise failure
  mode that makes centralized gang scheduling a hard requirement (paper
  §2, §4.4, Appendix A.5).  The gang's compute phase rides the
  rendezvous release: one model of a gang step, whoever enqueues it.
* **HBM capacity** — an allocator with FIFO back-pressure, used by the
  object store (paper §4.6).

A gang's devices that hold identical FIFOs drain as one
:class:`Lane`: :func:`enqueue_gang` appends a shared kernel once for
all of them, and the pop, gate wait, rendezvous join and completion run
once per kernel instead of once per device, with every device's
counters and busy time exact.  A lone device is the lane of itself.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Sequence, TYPE_CHECKING

from repro.config import SystemConfig
from repro.faults import FaultError, unwrap_fault
from repro.sim import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.hw.host import Host

__all__ = [
    "CollectiveRendezvous",
    "Device",
    "DeviceFailure",
    "FaultError",
    "HbmAllocator",
    "Kernel",
    "Lane",
    "enqueue_gang",
    "lane_of",
    "unwrap_fault",
]


class DeviceFailure(FaultError):
    """A kernel (or grant) was lost because its device failed.

    Carries the failed device's id and the reason (hardware fault, host
    crash, island preemption) so recovery can attribute the loss.  The
    exception *cascades*: kernel ``done`` events fail with it, gang peers
    are released from their collective with it, and executors propagate
    it up to the dispatching program, which is where
    ``retry_on_failure`` catches it.
    """

    def __init__(self, device_id: int, reason: str = "device failure"):
        super().__init__(f"device d{device_id} failed: {reason}")
        self.device_id = device_id
        self.reason = reason


class HbmAllocator:
    """Byte-granular HBM allocator with FIFO back-pressure.

    ``alloc`` returns an event that triggers once the bytes are reserved;
    if HBM is full the request queues, stalling the computation that
    issued it ("simple back-pressure", paper §4.6).
    """

    def __init__(
        self,
        sim: Simulator,
        capacity_bytes: int,
        name: str = "",
        device: Optional["Device"] = None,
    ):
        self.sim = sim
        self.capacity = capacity_bytes
        self.used = 0
        self.name = name or "hbm"
        #: Owning device, when this allocator backs a real core; lets
        #: ``alloc`` fail fast (and ``fail_waiters`` cascade) on failure.
        self.device = device
        self._waiters: Deque[tuple[Event, int]] = deque()
        self.peak_used = 0
        self.cancellations = 0
        if sim.sanitize and sim.sanitizer is not None:
            sim.sanitizer.watch(self)

    @property
    def queue_len(self) -> int:
        return len(self._waiters)

    def alloc(self, nbytes: int) -> Event:
        if nbytes < 0:
            raise ValueError(f"negative allocation: {nbytes}")
        if nbytes > self.capacity:
            raise MemoryError(
                f"{self.name}: request of {nbytes} bytes exceeds HBM capacity "
                f"{self.capacity}"
            )
        device = self.device
        if device is not None:
            device._touch()
        if device is not None and device._failed:
            # Fail fast, mirroring enqueue-to-failed-device semantics: a
            # grant on a dead core would otherwise queue forever.
            ev = self.sim.event()
            ev.fail(DeviceFailure(self.device.device_id, "alloc on failed device"))
            return ev
        if not self._waiters and self.used + nbytes <= self.capacity:
            # Uncontended reservation: grant instantly with the shared
            # completed event — no allocation, no loop entry.
            self.used += nbytes
            if self.used > self.peak_used:
                self.peak_used = self.used
            return self.sim.granted()
        ev = self.sim.event()
        self._waiters.append((ev, nbytes))
        return ev

    def _sanitizer_problems(self) -> list[tuple[str, str]]:
        """Drain-end invariants: no waiter may be left queued, and the
        reservation stays within ``0 <= used <= capacity``."""
        problems = []
        if self._waiters:
            problems.append((
                "waiters",
                f"{self.name} drained with {len(self._waiters)} allocation(s) "
                "never granted or failed",
            ))
        if not 0 <= self.used <= self.capacity:
            problems.append((
                "capacity",
                f"{self.name} drained with {self.used} bytes reserved of "
                f"{self.capacity}",
            ))
        return problems

    def _grant(self, ev: Event, nbytes: int) -> None:
        self.used += nbytes
        self.peak_used = max(self.peak_used, self.used)
        ev.succeed(nbytes)

    def _grant_scan(self) -> None:
        # Grant strictly in FIFO order; stop at the first waiter that
        # still does not fit (no small-request overtaking, which would
        # starve large buffers).
        while self._waiters and self.used + self._waiters[0][1] <= self.capacity:
            ev, want = self._waiters.popleft()
            self._grant(ev, want)

    def free_bytes(self, nbytes: int) -> None:
        if nbytes > self.used:
            raise RuntimeError(
                f"{self.name}: freeing {nbytes} bytes but only {self.used} in use"
            )
        self.used -= nbytes
        if self._waiters:
            self._grant_scan()

    def cancel(self, ev: Event) -> bool:
        """Remove one queued waiter and re-run the FIFO grant scan.

        Without cancellation, a prep blocked on a failed device's grant
        stalls its retry loop forever — and a cancelled head-of-queue
        request would keep blocking every waiter behind it.  The event
        is silently abandoned (the caller already observed a failure
        elsewhere).  Returns False when the event is not a queued waiter
        (already granted, or unknown).
        """
        for i, (waiter, _) in enumerate(self._waiters):
            if waiter is ev:
                del self._waiters[i]
                self.cancellations += 1
                self._grant_scan()
                return True
        return False

    def fail_waiters(self, cause: BaseException) -> int:
        """Fail every queued waiter with ``cause`` (device-failure abort
        path); returns how many were cancelled."""
        n = len(self._waiters)
        while self._waiters:
            ev, _ = self._waiters.popleft()
            self.cancellations += 1
            if not ev.triggered:
                ev.fail(cause)
        return n


def reserve_hbm(devices: list["Device"], nbytes: int) -> bool:
    """Reserve ``nbytes`` on every device in one pass, the fault clock
    warmed once, when each would grant at once; else reserve nothing
    and return False (then per-device :meth:`HbmAllocator.alloc`)."""
    for device in devices:
        if device.fault_clock is not None:
            device.fault_clock.warm(devices)
            break
    for i, device in enumerate(devices):
        hbm = device.hbm
        used = hbm.used + nbytes
        if device._failed or hbm._waiters or not hbm.used <= used <= hbm.capacity:
            for prior in devices[:i]:
                prior.hbm.used -= nbytes
            return False
        hbm.used = used
        if used > hbm.peak_used:
            hbm.peak_used = used
    return True


def free_hbm(devices: list["Device"], nbytes: int) -> None:
    """Free what :func:`reserve_hbm` reserved."""
    for device in devices:
        device.hbm.free_bytes(nbytes)


class CollectiveRendezvous:
    """Barrier + timed completion shared by one collective instance.

    Each participating device calls :meth:`join` when the collective
    kernel reaches the head of its queue (a lockstep :class:`Lane`
    joins once for all its members).  Once every participant has
    joined, all are released ``duration_us`` later (the collective itself
    runs on the dedicated interconnect, devices stay occupied), plus the
    gang's compute phase.

    The compute phase always rides the release: every join brings its
    kernel's ``duration_us``, which must be the same for all of them.
    ``launch_us`` folds the per-device kernel launch before the wire
    phase into it too.  The rendezvous is its own timer-queue entry,
    named as the timeout it stands for: the last join arms it for the
    wire end, where it re-arms itself for the compute end -- in the
    queue's order, without a loop entry of its own -- and the release
    settles ``_done``, inline when nothing else is due at that instant.
    A device that fails *after* the wire phase aborts only its own
    kernel (in :meth:`Device.fail`); the surviving peers' completion
    still fires.
    """

    #: Timer-queue entry protocol: never cancelled, and silent (not an
    #: event) while its firing only re-arms it.
    _dead = False
    _silent = False

    def __init__(
        self,
        sim: Simulator,
        participants: int,
        duration_us: float,
        name: str = "",
        launch_us: float = 0.0,
    ):
        if participants < 1:
            raise ValueError("collective needs at least one participant")
        if min(duration_us, launch_us) < 0:
            raise ValueError(f"negative collective time in {duration_us, launch_us}")
        self.sim = sim
        self.label = name or "collective"
        self.expected = participants
        self.duration_us = duration_us
        self.launch_us = launch_us
        #: The gang's compute phase, set by the first join.
        self.compute_us: Optional[float] = None
        self._joined = 0
        #: Set once the wire phase has completed: a later abort must not
        #: release the surviving peers' compute phase with a failure.
        self._wire_done = False
        self._done = sim.event()
        #: The armed timeout's delay (the entry's name).
        self.delay = 0.0

    @property
    def name(self) -> str:
        return f"timeout({self.delay:g})"

    def join(self, n: int, compute_us: float) -> Event:
        """``n`` participants arrive (a lane joins for all its members),
        each to run ``compute_us`` once the wire phase ends."""
        if self.compute_us is None:
            self.compute_us = compute_us
        elif compute_us != self.compute_us:
            raise ValueError(
                f"{self.label}: a join with {compute_us} us of compute after "
                f"{self.compute_us} us"
            )
        self._joined += n
        if self._done._exc is not None:
            # A participant died; late joiners observe the failure too.
            return self._done
        if self._joined > self.expected:
            raise RuntimeError(
                f"{self.label}: {self._joined} joins for {self.expected} participants"
            )
        if self._joined == self.expected:
            # Everyone arrived: the (folded launch +) wire phase starts.
            # A device can still fail during it, and then the abort wins.
            sim = self.sim
            self.delay = self.launch_us + self.duration_us
            when = sim._now + self.delay
            self._silent = compute_us > 0 and when > sim._now
            sim._at(when, self)
        return self._done

    def _process_callbacks(self) -> None:
        """The armed timeout fires: the wire end, then the release."""
        sim = self.sim
        if self._done.triggered:
            return  # aborted during the wire phase
        if not self._wire_done and self.compute_us > 0:
            self._wire_done = True
            self._silent = False
            self.delay = self.compute_us
            sim._at(sim._now + self.compute_us, self)
        elif sim._immediate or sim._queue.min_when <= sim._now:
            self._done.succeed(None)  # what is already due runs first
        else:
            self._done.succeed_inline(None)

    def abort(self, cause: BaseException) -> None:
        """Release every (current and future) participant with ``cause``.

        Called when a gang member's device fails: without it, the
        surviving devices would block at the rendezvous forever — the
        exact wedge fault recovery must prevent.  After the wire phase
        the rendezvous is past aborting: the failing device's own kernel
        is aborted by :meth:`Device.fail`, and surviving peers complete
        their compute phase normally.
        """
        if self._wire_done:
            return
        if not self._done.triggered:
            self._done.fail(cause)


class Kernel:
    """One enqueued unit of device work.

    Either a plain computation of ``duration_us``, or participation in a
    ``collective`` rendezvous (in which case the device blocks until the
    rendezvous completes).  An optional ``gate`` event models data
    dependencies: the device *stalls at the head of its queue* until the
    gate fires (input buffers filled via RDMA), faithfully reproducing
    the non-preemptible stream semantics that make enqueue order matter.
    ``done`` triggers at completion; ``tag`` and ``program`` label the
    ``kernel`` span the device emits when a tracer is attached.
    """

    __slots__ = ("duration_us", "collective", "done", "tag", "program", "gate")

    def __init__(
        self,
        sim: Simulator,
        duration_us: float = 0.0,
        collective: Optional[CollectiveRendezvous] = None,
        tag: str = "",
        program: str = "",
        gate: Optional[Event] = None,
    ):
        if duration_us < 0:
            raise ValueError(f"negative kernel duration: {duration_us}")
        self.duration_us = duration_us
        self.collective = collective
        self.done: Event = sim.event()
        self.tag = tag
        self.program = program
        self.gate = gate

    def abort(self, cause: BaseException) -> None:
        """Mark this kernel lost: release gang peers, fail ``done``."""
        if self.collective is not None:
            self.collective.abort(cause)
        if not self.done.triggered:
            self.done.fail(cause)


class Lane:
    """Devices in lockstep: identical FIFO contents, drained as one.

    A lane is fed only by :func:`enqueue_gang` calls that append one
    shared :class:`Kernel` to exactly its members, so every
    member pops, gates, joins and completes the same kernel at the same
    instant.  The drain state machine therefore runs once for the set:
    one pop, one wait per phase (the lane itself is the one callback it
    registers), one ``join(n)`` on the rendezvous and one completion,
    however wide the gang.  Per-member statistics stay exact: the lane
    counts kernels run and aborted since it formed, and keeps one
    running busy-time sum per distinct starting total of its members,
    so each member's ``busy_us`` is the float its own sum would be.

    Its phases are pop (or idle-wait) -> gate -> launch -> compute or
    collective (whose release covers the compute) -> complete -> next.
    A :class:`Device` is the lane of itself alone, so this is the only
    drain there is.  A lane of several forms only when all of its
    members are idle, and splits back into its members (:meth:`_split`)
    before anything touches one of them alone.
    """

    #: A shared lane never holds a failed device (a failure splits it
    #: first); a :class:`Device` shadows this with its own flag.
    _failed = False

    def __init__(self, sim: Simulator, config: SystemConfig, members: tuple):
        self.sim = sim
        self.config = config
        self.members = members
        #: The FIFO every member holds.  A plain deque + idle flag: a
        #: busy lane pops its next kernel synchronously, and an idle one
        #: is restarted inline by :meth:`_push` -- queueing costs zero
        #: events per kernel.
        self._queue: Deque[Kernel] = deque()
        self._idle = True
        #: In-flight kernel and the event its next phase waits on.
        self._current: Optional[Kernel] = None
        self._waiting_on: Optional[Event] = None
        self._phase: Optional[Callable[["Lane", Optional[Event]], None]] = None
        self._start_us = 0.0
        #: Busy time, one running sum per distinct starting total (see
        #: ``Device._busy_slot``), and kernels run and aborted since the
        #: lane formed, each counting for every member.
        self._busy = [0.0]
        self._runs = 0
        self._aborts = 0

    def __call__(self, ev: Event) -> None:
        """The one callback a waiting lane registers: resume its phase,
        unless it failed or restarted since it registered."""
        if self._waiting_on is ev:
            self._waiting_on = None
            phase, self._phase = self._phase, None
            phase(self, ev)

    # -- membership -----------------------------------------------------------
    def _split(self) -> None:
        """Hand every member its own copy of the lane's state.

        A split lane stays registered where it waits, now resuming its
        members there in order (:meth:`_forward`): the one callback
        becomes theirs at the same position, so callback order and the
        schedule do not change.
        """
        busy, queue = self._busy, self._queue
        for device in self.members:
            device._lane = device
            device._busy = [busy[device._busy_slot]]
            device._busy_slot = 0
            device._runs0 += self._runs
            device._aborts0 += self._aborts
            device._queue = deque(queue)
            device._idle = self._idle
            device._current = self._current
            device._start_us = self._start_us
            device._waiting_on = self._waiting_on
            device._phase = self._phase
        self._phase = Lane._forward

    def _forward(self, ev: Event) -> None:
        for device in self.members:
            device(ev)

    def _quiet(self) -> bool:
        return self._idle

    def _sanitizer_problems(self) -> list[tuple[str, str]]:
        """Drain-end invariants: an idle lane holds no kernel and no
        wait, and a lane of several is its members' only drain state
        (each member points at it and keeps an empty one of its own)."""
        members = self.members
        if members[0]._lane is not self:
            return []  # split: its members drain on their own
        problems = []
        name = "+".join(device.name for device in members)
        if self._idle and (self._current is not None or self._queue or self._waiting_on is not None):
            problems.append(("lanes", f"lane {name} is idle but holds a kernel or a wait"))
        if not self._idle and self._waiting_on is None:
            problems.append(("lanes", f"lane {name} drained with kernel(s) but no wait"))
        if len(members) > 1:
            for device in members:
                if device._lane is not self:
                    problems.append(("lanes", f"lane {name}: {device.name} left it unsplit"))
                elif device._queue or device._current is not None or device._waiting_on is not None:
                    problems.append(("lanes", f"lane {name}: {device.name} holds drain state of its own"))
        return problems

    # -- the drain state machine -----------------------------------------------
    def _push(self, kernel: Kernel) -> None:
        self._queue.append(kernel)
        if self._idle:
            self._idle = False
            self._drain_next()

    def _await(self, ev: Event, phase: Callable[["Lane", Optional[Event]], None]) -> None:
        """Mirror of ``yield ev``: run ``phase(self, ev)`` once ``ev`` is
        processed by the loop -- now, when it already has been, exactly
        like a generator resuming off an already-processed event."""
        callbacks = ev.callbacks
        if callbacks is None:
            phase(self, ev)
            return
        self._waiting_on = ev
        self._phase = phase
        callbacks.append(self)

    def _drain_next(self) -> None:
        """Pop and start the next kernel, or go idle until one arrives
        (:meth:`_push` restarts an idle lane inline -- no wakeup event)."""
        if self._failed:
            return
        if not self._queue:
            self._idle = True
            return
        kernel = self._current = self._queue.popleft()
        if kernel.gate is None:
            self._after_gate(None)
        else:
            # Head-of-line blocking: nothing behind this kernel can run
            # until its inputs arrive.
            self._await(kernel.gate, Lane._after_gate)

    def _after_gate(self, gate: Optional[Event]) -> None:
        if gate is not None and gate._exc is not None:
            self._peer_fault(gate._exc)
            return
        collective = self._current.collective
        if collective is not None and collective.launch_us > 0:
            # Launch folded into the rendezvous release: join now
            # (uniformly launch_us early for every member, so the last
            # joiner still determines the same completion time) and
            # account the busy window from the post-launch instant.
            self._start_us = self.sim._now + collective.launch_us
            self._join(collective)
            return
        # Gang-synchronized devices hit their launch phase at the same
        # instant: coalesce into one shared timeout.
        launch = self.config.kernel_launch_us
        if launch > 0:
            self._await(self.sim.shared_timeout(launch), Lane._after_launch)
        else:
            self._after_launch(None)

    def _after_launch(self, ev: Optional[Event]) -> None:
        kernel = self._current
        self._start_us = self.sim._now
        if kernel.collective is not None:
            self._join(kernel.collective)
        elif kernel.duration_us > 0:
            self._await(self.sim.timeout(kernel.duration_us), Lane._complete)
        else:
            self._complete(None)

    def _join(self, collective: CollectiveRendezvous) -> None:
        # The release covers the kernel's compute phase too.
        self._await(
            collective.join(len(self.members), self._current.duration_us), Lane._complete
        )

    def _complete(self, ev: Optional[Event]) -> None:
        if ev is not None and ev._exc is not None:
            self._peer_fault(ev._exc)  # released from an aborted rendezvous
            return
        kernel, self._current = self._current, None
        start, end = self._start_us, self.sim._now
        busy = self._busy
        for i, total in enumerate(busy):
            busy[i] = total + (end - start)
        self._runs += 1
        tr = self.sim.tracer
        if tr is not None:
            for device in self.members:
                tr.complete(
                    kernel.tag or kernel.program or "kernel",
                    "kernel",
                    start,
                    end,
                    track=f"device{device.device_id}",
                    args={"device": device.device_id, "program": kernel.program},
                )
        done = kernel.done
        if not done.triggered:
            # Gang-shared kernels complete once, inline (the callbacks
            # run at the same instant either way).
            done.succeed_inline(None)
        self._drain_next()

    def _peer_fault(self, exc: BaseException) -> None:
        """A *peer* failed: this lane was released from a gang
        rendezvous (or a gate fed by a dead producer).  The fault may
        arrive wrapped (a failure relayed by a generator process is a
        ProcessFailed(DeviceFailure)); unwrap before deciding.  Drop the
        poisoned kernel and keep draining -- the devices themselves are
        healthy.  Anything that is not a hardware fault is a
        programming error: re-raise."""
        fault = unwrap_fault(exc)
        if fault is None:
            raise exc
        current, self._current = self._current, None
        self._abort_kernel(current, fault)
        self._drain_next()

    def _abort_kernel(self, kernel: Optional[Kernel], cause: BaseException) -> None:
        if kernel is None:
            return
        self._aborts += 1
        kernel.abort(cause)


def enqueue_gang(devices: Sequence["Device"], kernel: Kernel) -> None:
    """Append one kernel to every device of a gang, in order.

    When the devices are exactly one lane's members (in any order), the
    lane takes the kernel once; when they are all idle, they form that
    lane first.  Otherwise -- a gang over part of a lane or over busy
    devices of several -- each device takes it through
    :meth:`Device.enqueue`, splitting the lanes it touches.
    """
    members = tuple(devices)
    for device in members:
        if device.fault_clock is not None:
            device._touch()
    lane = members[0]._lane
    if lane.members != members:
        lane = lane_of(members, _form_lane)
        if lane is None:
            for device in members:
                device.enqueue(kernel)
            return
    if lane._failed:
        members[0].enqueue(kernel)  # a lone failed device: lost at once
        return
    lane._push(kernel)


def lane_of(members: tuple, form: Callable[[tuple], object]):
    """The lockstep lane ``members`` -- devices or hosts -- run as.

    That is the lane they make up, which takes their order while it is
    quiet (their separate drains would resume them in it); or, when all
    of them are quiet, a new one ``form(members)`` builds after their
    old lanes split; else None (one member, a repeated member, or busy
    members of other lanes).
    """
    n = len(members)
    if n == 1 or len(set(members)) != n:
        return None
    lane = members[0]._lane
    if len(lane.members) == n and all(member._lane is lane for member in members):
        if lane._quiet():
            lane.members = members
        return lane
    if not all(member._lane._quiet() for member in members):
        return None
    for member in members:
        if member._lane is not member:
            member._lane._split()
    lane = form(members)
    sim = lane.sim
    if sim.sanitize and sim.sanitizer is not None:
        sim.sanitizer.watch(lane)
    return lane


def _form_lane(members: tuple) -> Lane:
    """A lane over idle devices, each keeping its statistics."""
    first = members[0]
    lane = Lane(first.sim, first.config, members)
    totals: dict[float, int] = {}
    for device in members:
        device._busy_slot = totals.setdefault(device._busy[0], len(totals))
        device._runs0 += device._runs
        device._aborts0 += device._aborts
        device._runs = device._aborts = 0
        device._lane = lane
    lane._busy = list(totals)
    return lane


class Device(Lane):
    """A simulated TPU core.

    Work is submitted with :meth:`enqueue` (or, for a gang sharing one
    kernel, :func:`enqueue_gang`); the device drains its queue strictly
    in order, one kernel at a time.  The queue is unbounded (matching
    the deep hardware FIFOs that make asynchronous dispatch possible,
    Appendix A.2).

    A device is the :class:`Lane` of itself alone.  While it drains in
    lockstep with its gang, its lane (``_lane``) holds the drain state
    and its own is empty; anything that touches the device alone --
    :meth:`enqueue`, :meth:`fail`, :meth:`restart`,
    :meth:`apply_idle_fault` -- splits that lane first.  ``busy_us``,
    ``kernels_run`` and ``kernels_aborted`` read through the lane.
    """

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        device_id: int,
        island_id: int,
        coords: tuple[int, int],
    ):
        super().__init__(sim, config, (self,))
        self.device_id = device_id
        self.island_id = island_id
        self.coords = coords
        #: Set by :meth:`Host.attach`.
        self.host: Optional["Host"] = None
        self.hbm = HbmAllocator(
            sim,
            config.hbm_bytes,
            name=f"hbm[d{device_id}]",
            device=self,
        )
        #: The lane this device drains in: itself, or a lockstep gang's.
        self._lane: Lane = self
        #: This device's running sum in its lane's ``_busy``, and its
        #: kernels run and aborted before the lane formed.
        self._busy_slot = 0
        self._runs0 = 0
        self._aborts0 = 0
        self._failed = False
        #: The owning island's up flags (one byte per device, see
        #: :meth:`Island.healthy_at`) and this device's slot in them:
        #: every transition sets it.  A bare device flags only itself.
        self._up = bytearray(b"\x01")
        self._slot = 0
        self.fail_count = 0
        #: Set while the device is *cold*: it holds no live state, so a
        #: fault injector owes it transitions it applies lazily (see
        #: :class:`~repro.resilience.FaultInjector`).  Reading
        #: :attr:`failed` catches them up; every touch warms it first.
        self.fault_clock = None

    @property
    def name(self) -> str:
        return f"d{self.device_id}"

    @property
    def busy_us(self) -> float:
        """Time spent executing kernels (µs)."""
        return self._lane._busy[self._busy_slot]

    @property
    def kernels_run(self) -> int:
        return self._runs0 + self._lane._runs

    @property
    def kernels_aborted(self) -> int:
        return self._aborts0 + self._lane._aborts

    @property
    def failed(self) -> bool:
        """Whether the device is down, with every fault and repair due
        by now applied."""
        if self.fault_clock is not None:
            self.fault_clock.catch_up()
        return self._failed

    def _touch(self) -> None:
        """About to hold live state (a kernel, an HBM request, a fault
        transition): a cold device turns warm, caught up, first."""
        if self.fault_clock is not None:
            self.fault_clock.warm((self,))

    def enqueue(self, kernel: Kernel) -> Event:
        """Append a kernel to the FIFO; returns the kernel's done event."""
        if self.fault_clock is not None:
            self._touch()
        if self._lane is not self:
            self._lane._split()
        if self._failed:
            # Fail fast: work sent to a dead device is lost immediately
            # (its gang peers are released too), never silently queued.
            self._abort_kernel(kernel, DeviceFailure(self.device_id, "enqueue to failed device"))
            return kernel.done
        self._push(kernel)
        return kernel.done

    # -- failure & recovery -------------------------------------------------
    def fail(self, reason: str = "device failure") -> None:
        """Take the device down: abort the in-flight kernel, drop the
        queue, and stop the drain loop until :meth:`restart`."""
        self._touch()
        if self._failed:
            return
        if self._lane is not self:
            self._lane._split()
        self._failed = True
        self._up[self._slot] = 0
        self.fail_count += 1
        # Detach from whatever phase event we were waiting on (its
        # late firing is ignored via the _waiting_on guard).
        self._waiting_on = None
        self._phase = None
        self._idle = False
        current, self._current = self._current, None
        queue = self._queue
        hbm = self.hbm
        if current is None and not queue and not hbm.queue_len:
            return  # an idle core: nothing to fail, so no cause to build
        cause = DeviceFailure(self.device_id, reason)
        # Preps blocked waiting on this device's HBM must observe the
        # loss: cancelling the waiters is what lets their retry loops
        # re-run instead of stalling forever on a grant that can never
        # arrive.
        hbm.fail_waiters(cause)
        # Abort the in-flight kernel and everything queued behind it.
        self._abort_kernel(current, cause)
        while queue:
            self._abort_kernel(queue.popleft(), cause)

    def restart(self) -> None:
        """Bring a failed device back with an empty queue.

        HBM *accounting* is preserved (buffers lost to the failure are
        reclaimed by the object store's discard path, keeping the strict
        alloc/free invariants intact).
        """
        self._touch()
        if not self._failed:
            return
        self._failed = False
        self._up[self._slot] = 1
        self._queue = deque()
        self._current = None
        self._waiting_on = None
        self._phase = None
        self._drain_next()

    def held_state(self) -> Optional[str]:
        """The live state a fault here would touch: a running or queued
        kernel, an HBM waiter or a crashed host (None when quiescent).
        Reads the device's lane, which it leaves as it is."""
        lane = self._lane
        if lane._current is not None:
            return f"running kernel {lane._current.tag or 'kernel'!r}"
        if lane._queue:
            return f"{len(lane._queue)} queued kernel(s)"
        if self.hbm.queue_len:
            return f"{self.hbm.queue_len} HBM waiter(s)"
        if self.host is not None and self.host.failed:
            return f"host {self.host.name} down"
        return None

    def apply_idle_fault(self, down: bool) -> bool:
        """Fail (``down``) or repair a quiescent device: exactly the
        state :meth:`fail` or :meth:`restart` leaves on a device with no
        kernel, no queue and no HBM waiter, without their abort and
        drain work.  Returns whether the device changed state."""
        if self._failed is down:
            return False
        if self._lane is not self:
            self._lane._split()
        self._failed = down
        if down:
            self._up[self._slot] = 0
            self.fail_count += 1
            self._idle = False
        else:
            self._up[self._slot] = 1
            self._idle = True
        return True

    def utilization(self) -> float:
        """Fraction of wall-clock time spent executing kernels so far."""
        if self.sim.now <= 0:
            return 0.0
        return min(1.0, self.busy_us / self.sim.now)
