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
  §2, §4.4, Appendix A.5).
* **HBM capacity** — an allocator with FIFO back-pressure, used by the
  object store (paper §4.6).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, TYPE_CHECKING

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

    @property
    def free(self) -> int:
        return self.capacity - self.used

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
        debug = self.sim.debug_names
        if self.device is not None and self.device.failed:
            # Fail fast, mirroring enqueue-to-failed-device semantics: a
            # grant on a dead core would otherwise queue forever.
            ev = self.sim.event(name=f"hbm_alloc:{self.name}" if debug else "")
            ev.fail(DeviceFailure(self.device.device_id, "alloc on failed device"))
            return ev
        if not self._waiters and self.used + nbytes <= self.capacity:
            # Uncontended reservation: grant instantly with the shared
            # completed event — no allocation, no loop entry.
            self.used += nbytes
            if self.used > self.peak_used:
                self.peak_used = self.used
            return self.sim.granted()
        ev = self.sim.event(name=f"hbm_alloc:{self.name}" if debug else "")
        self._waiters.append((ev, nbytes))
        return ev

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
        self._grant_scan()

    def cancel(self, ev: Event, cause: Optional[BaseException] = None) -> bool:
        """Remove one queued waiter and re-run the FIFO grant scan.

        Without cancellation, a prep blocked on a failed device's grant
        stalls its retry loop forever — and a cancelled head-of-queue
        request would keep blocking every waiter behind it.  ``cause``
        (when given) fails the waiter's event so its owner observes the
        loss; otherwise the event is silently abandoned (the caller
        already observed a failure elsewhere).  Returns False when the
        event is not a queued waiter (already granted, or unknown).
        """
        for i, (waiter, _) in enumerate(self._waiters):
            if waiter is ev:
                del self._waiters[i]
                self.cancellations += 1
                if cause is not None and not ev.triggered:
                    ev.fail(cause)
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


class CollectiveRendezvous:
    """Barrier + timed completion shared by one collective instance.

    Each participating device calls :meth:`join` when the collective
    kernel reaches the head of its queue.  Once every participant has
    joined, all are released ``duration_us`` later (the collective itself
    runs on the dedicated interconnect, devices stay occupied).

    ``compute_us`` folds the gang's (identical) post-collective compute
    phase into the same completion event: everyone is released at the
    same instant and runs the same kernel duration, so one shared
    timeout replaces a per-device timeout — the dominant event count of
    a detailed gang.  A device that fails *after* the wire phase aborts
    only its own kernel (its drain loop is interrupted directly); the
    surviving peers' completion still fires.
    """

    def __init__(
        self,
        sim: Simulator,
        participants: int,
        duration_us: float,
        name: str = "",
        compute_us: float = 0.0,
        launch_us: float = 0.0,
        wire_fn: Optional[Callable[[], Event]] = None,
    ):
        if participants < 1:
            raise ValueError("collective needs at least one participant")
        self.sim = sim
        self.name = name or "collective"
        self.expected = participants
        self.duration_us = duration_us
        self.compute_us = compute_us
        #: Dynamic wire phase: called once every participant has joined;
        #: the returned event's completion (or failure — e.g. a
        #: cross-island transfer lost to a host crash) replaces the fixed
        #: ``duration_us`` timeout.  This is how congestion-aware
        #: cross-island collectives route their gather/scatter traffic
        #: through the contended fabric (``Transport.make_cross_island_
        #: collective``).
        self.wire_fn = wire_fn
        #: Per-device kernel-launch latency folded into the completion
        #: (joins happen at queue-head time, uniformly ``launch_us``
        #: early, so the completion timeout covers launch + wire +
        #: compute — one wait instead of three per device).
        self.launch_us = launch_us
        self._joined = 0
        #: Set once the wire phase has completed: a later abort must not
        #: release the surviving peers' compute phase with a failure.
        self._wire_done = False
        self._done = sim.event(
            name=f"collective_done:{self.name}" if sim.debug_names else ""
        )
        #: Post-release compute phase shared by the gang when
        #: ``compute_us`` is not used (see :meth:`shared_delay`).
        self._shared_delay: Optional[Event] = None

    @property
    def joined(self) -> int:
        return self._joined

    @property
    def aborted(self) -> bool:
        return self._done.triggered and not self._done.ok

    def join(self) -> Event:
        self._joined += 1
        if self.aborted:
            # A participant died; late joiners observe the failure too.
            return self._done
        if self._joined > self.expected:
            raise RuntimeError(
                f"{self.name}: {self._joined} joins for {self.expected} participants"
            )
        if self._joined == self.expected:
            # Everyone arrived; complete after the (folded launch +)
            # wire time, plus the folded compute phase if any.  A device
            # can still fail *during* the wire time, in which case the
            # abort wins and this completion is dropped.
            if self.wire_fn is not None:
                # The wire phase is real (contended) network traffic: a
                # lost transfer fails the whole gang into recovery.
                self.wire_fn().add_callback(self._finish_wire)
            else:
                self.sim.timeout(self.launch_us + self.duration_us).add_callback(
                    self._finish_wire
                )
        return self._done

    def _finish_wire(self, ev: Event) -> None:
        if self._done.triggered:
            return  # aborted during the wire phase
        if ev._exc is not None:
            # A dynamic wire phase failed (e.g. MessageLost): release
            # every participant with the fault instead of wedging them.
            self._done.fail(ev._exc)
            return
        self._wire_done = True
        if self.compute_us > 0:
            self.sim.timeout(self.compute_us).add_callback(self._finish_compute)
        else:
            self._done.succeed(None)

    def _finish_compute(self, ev: Event) -> None:
        if not self._done.triggered:
            self._done.succeed(None)

    def shared_delay(self, duration_us: float) -> Event:
        """One timeout shared by the whole gang's compute phase.

        The explicit form of ``compute_us`` for callers that build
        kernels directly: must be called at release time (all callers
        see the same ``now``).
        """
        delay = self._shared_delay
        if delay is None:
            delay = self._shared_delay = self.sim.timeout(duration_us)
        return delay

    def abort(self, cause: BaseException) -> None:
        """Release every (current and future) participant with ``cause``.

        Called when a gang member's device fails: without it, the
        surviving devices would block at the rendezvous forever — the
        exact wedge fault recovery must prevent.  After the wire phase
        the rendezvous is past aborting: the failing device's own kernel
        is aborted by its drain-loop interrupt, and surviving peers
        complete their compute phase normally.
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
        self.done: Event = sim.event(
            name=f"kernel_done:{tag}" if sim.debug_names else ""
        )
        self.tag = tag
        self.program = program
        self.gate = gate

    def abort(self, cause: BaseException) -> None:
        """Mark this kernel lost: release gang peers, fail ``done``."""
        if self.collective is not None:
            self.collective.abort(cause)
        if not self.done.triggered:
            self.done.fail(cause)


class Device:
    """A simulated TPU core.

    Work is submitted with :meth:`enqueue`; the device drains its queue
    strictly in order, one kernel at a time.  The queue is unbounded
    (matching the deep hardware FIFOs that make asynchronous dispatch
    possible, Appendix A.2).

    The drain loop is an explicit event-chain state machine rather than
    a generator process: devices are the single hottest activity of a
    paper-scale sweep (one wait per gate / launch / collective phase per
    kernel on every core), and direct callbacks skip the whole
    generator-resume trampoline.  The phases mirror the old process
    loop: pop (or idle-wait) → gate → launch → collective/compute →
    complete → next.
    """

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        device_id: int,
        island_id: int,
        coords: tuple[int, int],
        host: Optional["Host"] = None,
    ):
        self.sim = sim
        self.config = config
        self.device_id = device_id
        self.island_id = island_id
        self.coords = coords
        self.host = host
        debug = sim.debug_names
        self.hbm = HbmAllocator(
            sim,
            config.hbm_bytes,
            name=f"hbm[d{device_id}]" if debug else "hbm",
            device=self,
        )
        #: The hardware FIFO.  A plain deque + idle flag: a busy device
        #: pops its next kernel synchronously, and an idle one is
        #: restarted inline by :meth:`enqueue` — queueing costs zero
        #: events per kernel.
        self._queue: Deque[Kernel] = deque()
        self._idle = False
        #: In-flight kernel and the event its next phase waits on.
        self._current: Optional[Kernel] = None
        self._waiting_on: Optional[Event] = None
        self._phase: Optional[Callable[[Optional[Event]], None]] = None
        self._start_us = 0.0
        self.busy_us = 0.0          # time spent executing kernels
        self.kernels_run = 0
        self.failed = False
        self.fail_count = 0
        self.kernels_aborted = 0
        self._drain_next()

    @property
    def name(self) -> str:
        return f"d{self.device_id}"

    def enqueue(self, kernel: Kernel) -> Event:
        """Append a kernel to the FIFO; returns the kernel's done event."""
        if self.failed:
            # Fail fast: work sent to a dead device is lost immediately
            # (its gang peers are released too), never silently queued.
            self._abort_kernel(kernel, DeviceFailure(self.device_id, "enqueue to failed device"))
            return kernel.done
        self._queue.append(kernel)
        if self._idle:
            self._idle = False
            self._drain_next()
        return kernel.done

    # -- failure & recovery -------------------------------------------------
    def fail(self, reason: str = "device failure") -> None:
        """Take the device down: abort the in-flight kernel, drop the
        queue, and stop the drain loop until :meth:`restart`."""
        if self.failed:
            return
        self.failed = True
        self.fail_count += 1
        cause = DeviceFailure(self.device_id, reason)
        # Preps blocked waiting on this device's HBM must observe the
        # loss: cancelling the waiters is what lets their retry loops
        # re-run instead of stalling forever on a grant that can never
        # arrive.
        self.hbm.fail_waiters(cause)
        # Detach from whatever phase event we were waiting on (its
        # late firing is ignored via the _waiting_on guard), then abort
        # the in-flight kernel and everything queued behind it.
        self._waiting_on = None
        self._phase = None
        self._idle = False
        current, self._current = self._current, None
        self._abort_kernel(current, cause)
        queue = self._queue
        while queue:
            self._abort_kernel(queue.popleft(), cause)

    def restart(self) -> None:
        """Bring a failed device back with an empty queue.

        HBM *accounting* is preserved (buffers lost to the failure are
        reclaimed by the object store's discard path, keeping the strict
        alloc/free invariants intact).
        """
        if not self.failed:
            return
        self.failed = False
        self._queue = deque()
        self._current = None
        self._waiting_on = None
        self._phase = None
        self._drain_next()

    def _abort_kernel(self, kernel: Optional[Kernel], cause: BaseException) -> None:
        if kernel is None:
            return
        self.kernels_aborted += 1
        kernel.abort(cause)

    # -- the drain state machine -------------------------------------------
    def _await(self, ev: Event, phase: Callable[[Optional[Event]], None]) -> bool:
        """Mirror of ``yield ev``: defer ``phase`` until ``ev`` is
        processed by the loop.  Returns False when ``ev`` has already
        been processed — the caller continues inline, exactly like a
        generator resuming off an already-processed event."""
        callbacks = ev.callbacks
        if callbacks is None:
            return False
        self._waiting_on = ev
        self._phase = phase
        callbacks.append(self._on_phase_event)
        return True

    def _on_phase_event(self, ev: Event) -> None:
        if self._waiting_on is not ev:
            return  # stale registration (device failed/restarted since)
        self._waiting_on = None
        phase, self._phase = self._phase, None
        phase(ev)

    def _drain_next(self) -> None:
        """Pop and start the next kernel, or go idle until one arrives
        (enqueue restarts an idle device inline — no wakeup event)."""
        if self.failed:
            return
        if not self._queue:
            self._idle = True
            return
        kernel = self._queue.popleft()
        self._current = kernel
        gate = kernel.gate
        if gate is not None:
            # Head-of-line blocking: nothing behind this kernel can run
            # until its inputs arrive.
            if self._await(gate, self._after_gate):
                return
            self._after_gate(gate)
        else:
            self._after_gate(None)

    def _after_gate(self, gate: Optional[Event]) -> None:
        if gate is not None and gate._exc is not None:
            self._peer_fault(gate._exc)
            return
        collective = self._current.collective
        if collective is not None and collective.launch_us > 0:
            # Launch folded into the rendezvous completion: join now
            # (uniformly launch_us early for every member, so the last
            # joiner still determines the same completion time) and
            # account the busy window from the post-launch instant.
            self._start_us = self.sim.now + collective.launch_us
            join = collective.join()
            if self._await(join, self._after_collective):
                return
            self._after_collective(join)
            return
        launch = self.config.kernel_launch_us
        if launch > 0:
            # Gang-synchronized devices hit their launch phase at the
            # same instant: coalesce into one shared timeout.
            if self._await(self.sim.shared_timeout(launch), self._after_launch):
                return
        self._after_launch(None)

    def _after_launch(self, ev: Optional[Event]) -> None:
        kernel = self._current
        self._start_us = self.sim.now
        collective = kernel.collective
        if collective is not None:
            # join() covers the compute phase too when the rendezvous
            # was built with compute_us (one wait, one shared timeout
            # for the whole gang).
            join = collective.join()
            if self._await(join, self._after_collective):
                return
            self._after_collective(join)
        elif kernel.duration_us > 0:
            if self._await(self.sim.timeout(kernel.duration_us), self._complete):
                return
            self._complete(None)  # pragma: no cover - fresh timeout is pending
        else:
            self._complete(None)

    def _after_collective(self, ev: Event) -> None:
        if ev._exc is not None:
            self._peer_fault(ev._exc)
            return
        kernel = self._current
        collective = kernel.collective
        if kernel.duration_us > 0 and collective.compute_us <= 0:
            if self._await(
                collective.shared_delay(kernel.duration_us), self._complete
            ):
                return
        self._complete(None)

    def _complete(self, ev: Optional[Event]) -> None:
        kernel, self._current = self._current, None
        end = self.sim.now
        self.busy_us += end - self._start_us
        self.kernels_run += 1
        tr = self.sim.tracer
        if tr is not None and tr.enabled:
            tr.complete(
                kernel.tag or kernel.program or "kernel",
                "kernel",
                self._start_us,
                end,
                track=f"device{self.device_id}",
                args={"device": self.device_id, "program": kernel.program},
            )
        done = kernel.done
        if not done.triggered:
            # Gang-shared kernels complete once, inline (the callbacks
            # run at the same instant either way).
            done.succeed_inline(None)
        self._drain_next()

    def _peer_fault(self, exc: BaseException) -> None:
        """A *peer* failed: this device was released from a gang
        rendezvous (or a gate fed by a dead producer).  The fault often
        arrives wrapped (a failed transfer process delivers
        ProcessFailed(DeviceFailure)); unwrap before deciding.  Drop the
        poisoned kernel and keep draining — the device itself is
        healthy.  Anything that is not a hardware fault is a
        programming error: re-raise."""
        fault = unwrap_fault(exc)
        if fault is None:
            raise exc
        current, self._current = self._current, None
        self._abort_kernel(current, fault)
        self._drain_next()

    def utilization(self) -> float:
        """Fraction of wall-clock time spent executing kernels so far."""
        if self.sim.now <= 0:
            return 0.0
        return min(1.0, self.busy_us / self.sim.now)
