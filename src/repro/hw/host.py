"""Hosts: serial CPUs with PCIe-attached devices.

A host owns a handful of devices (4 or 8 in the paper's configurations)
and performs all *host-side* work: Python/C++ dispatch, executor
preparation (buffer allocation, launch descriptor setup), and DCN message
handling.  The CPU is a serial resource — host-side work on the critical
path is exactly what parallel asynchronous dispatch (paper §4.5) removes,
so contention here must be modeled, not abstracted away.

A host *crash* takes down more than its PCIe-attached devices: the CPU
itself becomes unavailable, so executor prep that is queued for (or
holding) the CPU fails fast with :class:`HostFailure` instead of
"running" on dead silicon.  That failure cascades into the dispatching
program exactly like a :class:`~repro.hw.device.DeviceFailure`, which is
where ``retry_on_failure`` catches it.

The hosts of a group that prep in lockstep share one CPU slot
(:class:`HostLane`): a prep over all of them takes one grant and one
release.  A crash, or anything else that touches one member alone,
hands each host its own CPU back first.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.config import SystemConfig
from repro.faults import FaultError
from repro.sim import Event, Resource, Simulator

from repro.hw.device import Device, lane_of

__all__ = ["Host", "HostFailure", "HostLane", "prep_hosts"]


class HostFailure(FaultError):
    """Host-side work was lost because its host crashed.

    Mirrors :class:`~repro.hw.device.DeviceFailure` for the CPU half of a
    host crash: executor preps queued on (or holding) the dead host's CPU
    fail with this instead of completing impossibly.
    """

    def __init__(self, host_id: int, reason: str = "host crash"):
        super().__init__(f"host h{host_id} failed: {reason}")
        self.host_id = host_id
        self.reason = reason


class HostLane:
    """Hosts in lockstep: identical CPU queues, one slot for them all.

    A lane is fed only by :func:`prep_hosts` calls over exactly its
    members, so every member's serial CPU holds and queues the same
    preps at the same instants.  One CPU slot therefore stands for
    every member's: a prep over the lane takes one grant and one
    release, and its :class:`_PrepState` settles the parts of all
    members at once.  A :class:`Host` is the lane of itself alone.  A
    lane of several forms only when all of its members are up with idle
    CPUs, and splits back into them (:meth:`_split`) before anything
    touches one of them alone -- a prep over other hosts,
    :meth:`Host.crash`, or a read of :attr:`Host.cpu`.
    """

    #: A shared lane never holds a crashed host (a crash splits it
    #: first); a :class:`Host` shadows this with its own flag.
    failed = False

    def __init__(self, sim: Simulator, members: tuple, cpu: Resource):
        self.sim = sim
        self.members = members
        #: The serial CPU every member holds.  Leak-checked: every
        #: grant must be released by drain end -- the sim-sanitizer
        #: enforces it when enabled.
        self._cpu = cpu
        #: In-flight preps (:func:`prep_hosts`), aborted on crash.
        #: Insertion-ordered (dict-as-set): crash aborts walk these in
        #: issue order -- a hash set would iterate by object address and
        #: make the failure schedule nondeterministic.
        self._live_preps: dict[_PrepState, None] = {}

    def _quiet(self) -> bool:
        cpu = self._cpu
        return not (cpu._in_use or cpu._waiters or self._live_preps or self.failed)

    def _split(self) -> None:
        """Hand every member its own CPU state and prep states.

        Each prep of the lane becomes one per member, in member order:
        a holding prep takes the lane prep's place in its batch, a
        queued one its place in each member's CPU queue.
        """
        cpu, members = self._cpu, self.members
        for host in members:
            own = host._cpu
            own._in_use = cpu._in_use
            host._lane = host
        # In issue order: the CPU is granted first come first served, so
        # the prep holding it (if any) comes first, then the queue.
        for state in self._live_preps:
            parts = [_PrepState(host, state.on_settled, state.work_us) for host in members]
            for host, part in zip(members, parts):
                host._live_preps[part] = None
                if state.holding:
                    part.holding = True
                else:
                    host._cpu._waiters.append(part.on_grant)
            if state.holding:
                batch = state.batch
                i = next(i for i, s in enumerate(batch) if s is state)
                batch[i : i + 1] = parts
        cpu._in_use = 0
        cpu._waiters.clear()
        self._live_preps.clear()

    def _sanitizer_problems(self) -> list[tuple[str, str]]:
        """Drain-end invariants: a lane of several is its members' only
        CPU state (each member points at it, its own CPU idle), and its
        CPU is busy exactly while it has preps in flight."""
        members = self.members
        if members[0]._lane is not self:
            return []  # split: its members hold their own CPUs
        problems = []
        name = "+".join(host.name for host in members)
        cpu = self._cpu
        if bool(cpu._in_use or cpu._waiters) != bool(self._live_preps):
            problems.append(("lanes", f"host lane {name}: CPU busy {cpu._in_use}/{len(cpu._waiters)} "
                             f"with {len(self._live_preps)} prep(s) in flight"))
        for host in members:
            if host._lane is not self:
                problems.append(("lanes", f"host lane {name}: {host.name} left it unsplit"))
            elif host._cpu._in_use or host._cpu._waiters or host._live_preps:
                problems.append(("lanes", f"host lane {name}: {host.name} holds CPU state of its own"))
        return problems


class Host(HostLane):
    """A machine with a serial CPU, a NIC, and PCIe-attached devices."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        host_id: int,
        island_id: int,
    ):
        super().__init__(
            sim, (self,), Resource(sim, capacity=1, name=f"cpu[h{host_id}]", leak_check=True)
        )
        self.config = config
        self.host_id = host_id
        self.island_id = island_id
        self.devices: list[Device] = []
        #: The lane this host's CPU serves in: itself, or a lockstep group's.
        self._lane: HostLane = self
        #: NIC egress serialization for DCN sends (leak-checked too).
        self.nic = Resource(
            sim,
            capacity=1,
            name=f"nic[h{host_id}]",
            leak_check=True,
        )
        #: Set while the host is crashed; its devices are down with it.
        self.failed = False
        self.preps_aborted = 0
        #: Crash observers (the transport layer fails in-flight messages
        #: routed through this host's NIC on crash).
        self._crash_listeners: list[Callable[["Host"], object]] = []

    @property
    def name(self) -> str:
        return f"h{self.host_id}"

    @property
    def cpu(self) -> Resource:
        """This host's serial CPU doing dispatch/prep work (its lane's
        state handed back to it first)."""
        if self._lane is not self:
            self._lane._split()
        return self._cpu

    def crash(self) -> None:
        """Take the host down: every attached device fails, and the CPU
        becomes unavailable — queued acquisitions and in-flight prep work
        fail fast with :class:`HostFailure`."""
        if self.failed:
            return
        if self._lane is not self:
            self._lane._split()
        self.failed = True
        for device in self.devices:
            device.fail("host crash")
        cause = HostFailure(self.host_id)
        # Nothing queued for the dead CPU or NIC is ever granted: the
        # preps are aborted below, and the transport's crash listener
        # aborts the queued sends.
        self._cpu.fail_waiters()
        self.nic.fail_waiters()
        for state in list(self._live_preps):
            self.preps_aborted += 1
            state.abort(cause)
        # Route invalidation: the transport fails in-flight messages
        # endpointed at this host's NIC.
        for listener in list(self._crash_listeners):
            listener(self)

    def restore(self) -> None:
        """Bring the host and its devices back (empty queues)."""
        if not self.failed:
            return
        self.failed = False
        for device in self.devices:
            device.restart()

    def add_crash_listener(self, fn: Callable[["Host"], object]) -> None:
        """Run ``fn(host)`` whenever this host crashes (after its CPU and
        NIC queues have been emptied, so a listener observes them
        already settled)."""
        self._crash_listeners.append(fn)

    def attach(self, device: Device) -> None:
        device.host = self
        self.devices.append(device)

    # -- host-side work ----------------------------------------------------
    def prep_request(
        self, work_us: float, on_done: Callable[[Optional[BaseException]], None]
    ) -> None:
        """:func:`prep_hosts` on this host alone: ``on_done(exc)`` once."""
        prep_hosts((self,), work_us, lambda exc, parts=1: on_done(exc))


def prep_hosts(
    hosts: Sequence[Host], work_us: float, on_parts: Callable[..., None]
) -> None:
    """Crash-aware executor-prep CPU occupancy on every host of a group.

    Acquires each serial CPU, holds it for ``work_us``, releases it and
    reports ``on_parts(None, n)`` for the ``n`` hosts done at that
    instant.  If a host is down, or crashes while the work is queued or
    running, ``on_parts`` gets :class:`HostFailure` for it instead, one
    loop entry later (the fail-fast path that feeds
    ``retry_on_failure``).  When the hosts are exactly one lane's
    members, or all quiet so that they form one, the lane's one CPU
    slot does this for all of them.  An event chain, with no completion
    Event: dispatch sweeps issue hundreds of thousands of these.
    """
    members = tuple(hosts)
    if not members:
        return
    lane = members[0]._lane
    if lane.members != members:
        lane = lane_of(members, _form_lane)
    if lane is not None and not lane.failed:
        _start_prep(lane, work_us, on_parts)
        return
    for host in members:
        if host._lane is not host:
            host._lane._split()
        if host.failed:
            _fail_later(host.sim, on_parts, HostFailure(host.host_id, "prep on crashed host"))
        else:
            _start_prep(host, work_us, on_parts)


def _start_prep(lane: HostLane, work_us: float, on_parts: Callable[..., None]) -> None:
    state = _PrepState(lane, on_parts, work_us)
    lane._live_preps[state] = None
    # Slot ownership transfers to the _PrepState, which releases it
    # in its _PrepBatch or in abort, on every path.
    lane._cpu.acquire(state.on_grant)  # repro: noqa[RPR005]


def _form_lane(members: tuple) -> HostLane:
    """A lane over quiet hosts, sharing one CPU slot."""
    sim = members[0].sim
    name = "cpu[" + "+".join(host.name for host in members) + "]"
    cpu = Resource(sim, capacity=1, name=name, leak_check=True)
    lane = HostLane(sim, members, cpu)
    for host in members:
        host._lane = lane
    return lane


def _fail_later(
    sim: Simulator, on_done: Callable[[Optional[BaseException]], None], cause: BaseException
) -> None:
    """Deliver ``on_done(cause)`` through the loop, as a failed Event
    would: a crash settles every prep it aborts first, in issue order."""
    ev = Event(sim)
    ev.callbacks.append(lambda ev: on_done(ev._exc))
    ev.fail(cause)


class _PrepState:
    """One lane's share of a :func:`prep_hosts` call.

    The acquire/hold/release lifecycle of a CPU slot as explicit
    callbacks, plus the crash path: if the host dies while this prep is
    queued or holding the CPU, the prep settles with
    :class:`HostFailure` and a held CPU slot is returned (a queued one
    is dropped from the dead CPU's queue, so it is never granted and a
    crash can never leak the serial CPU).  A crash splits a lane first,
    so only a lone host's prep is ever aborted.
    """

    __slots__ = ("lane", "on_settled", "work_us", "holding", "settled", "batch")

    def __init__(
        self,
        lane: HostLane,
        on_settled: Callable[..., None],
        work_us: float,
    ):
        self.lane = lane
        self.on_settled = on_settled
        self.work_us = work_us
        self.holding = False
        self.settled = False
        #: The :class:`_PrepBatch` this prep holds its CPU in (where a
        #: lane's split puts its members' preps instead).
        self.batch: Optional[_PrepBatch] = None

    def on_grant(self) -> None:
        lane = self.lane
        self.holding = True
        callbacks = None
        if self.work_us > 0:
            # Identical prep work fans out to every host of a group at
            # the same instant: share the completion timeout, and one
            # callback for consecutive grants of the same caller.
            callbacks = lane.sim.shared_timeout(self.work_us).callbacks
        last = callbacks[-1] if callbacks else None
        if type(last) is _PrepBatch and last[0].on_settled == self.on_settled:
            last.append(self)
            self.batch = last
            return
        batch = self.batch = _PrepBatch((self,))
        if callbacks is None:
            batch(None)
        else:
            callbacks.append(batch)

    def abort(self, cause: BaseException) -> None:
        lane = self.lane
        lane._live_preps.pop(self, None)
        if self.holding:
            self.holding = False
            lane._cpu.release()
        if not self.settled:
            self.settled = True
            _fail_later(lane.sim, self.on_settled, cause)


class _PrepBatch(list):
    """Preps of one caller holding their CPUs until the same instant, in
    grant order: one callback releases each CPU in turn (a queued prep
    takes it inside the release) and then settles their parts, one per
    host of each prep's lane."""

    __slots__ = ()

    def __call__(self, ev: Optional[Event]) -> None:
        parts = 0
        for state in self:
            if state.holding:  # else aborted (crash): CPU already released
                state.holding = False
                state.settled = True
                lane = state.lane
                lane._live_preps.pop(state, None)
                lane._cpu.release()
                parts += len(lane.members)
        if parts:
            # The caller's prep barrier reacts at this same instant.
            self[0].on_settled(None, parts)
