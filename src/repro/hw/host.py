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
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.config import SystemConfig
from repro.sim import Event, Resource, Simulator

from repro.hw.device import Device, FaultError

__all__ = ["Host", "HostFailure"]


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


class Host:
    """A machine with a serial CPU, a NIC, and PCIe-attached devices."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        host_id: int,
        island_id: int,
    ):
        self.sim = sim
        self.config = config
        self.host_id = host_id
        self.island_id = island_id
        self.devices: list[Device] = []
        #: Serial CPU doing dispatch/prep work.  Leak-checked: every
        #: grant must be released by drain end (the PR-3 slot-leak bug
        #: class) — the sim-sanitizer enforces it when enabled.
        self.cpu = Resource(
            sim,
            capacity=1,
            name=f"cpu[h{host_id}]",
            leak_check=True,
        )
        #: NIC egress serialization for DCN sends (leak-checked too).
        self.nic = Resource(
            sim,
            capacity=1,
            name=f"nic[h{host_id}]",
            leak_check=True,
        )
        #: Set while the host is crashed; its devices are down with it.
        self.failed = False
        #: In-flight preps (:meth:`prep_request`), aborted on crash.
        #: Insertion-ordered (dict-as-set): crash aborts walk these in
        #: issue order — a hash set would iterate by object address and
        #: make the failure schedule nondeterministic.
        self._live_preps: dict[_PrepState, None] = {}
        self.preps_aborted = 0
        #: Crash observers (the transport layer fails in-flight messages
        #: routed through this host's NIC on crash).
        self._crash_listeners: list[Callable[["Host"], object]] = []

    @property
    def name(self) -> str:
        return f"h{self.host_id}"

    def crash(self, reason: str = "host crash") -> None:
        """Take the host down: every attached device fails, and the CPU
        becomes unavailable — queued acquisitions and in-flight prep work
        fail fast with :class:`HostFailure`."""
        if self.failed:
            return
        self.failed = True
        for device in self.devices:
            device.fail(reason)
        cause = HostFailure(self.host_id, reason)
        # Queued CPU waiters first (they would otherwise be granted a
        # slot on the dead CPU), then in-flight holders.
        self.cpu.fail_waiters(cause)
        # Sends still queued for the dead NIC can never serialize.
        self.nic.fail_waiters(cause)
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
        NIC waiters have been failed, so a listener observes the queues
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
    hosts: Iterable[Host], work_us: float, on_parts: Callable[..., None]
) -> None:
    """Crash-aware executor-prep CPU occupancy on every host of a group.

    Acquires each serial CPU, holds it for ``work_us``, releases it and
    reports ``on_parts(None, n)`` for the ``n`` hosts done at that
    instant.  If a host is down, or crashes while the work is queued or
    running, ``on_parts`` gets :class:`HostFailure` for it instead, one
    loop entry later (the fail-fast path that feeds
    ``retry_on_failure``).  An event chain, with no completion Event:
    dispatch sweeps issue hundreds of thousands of these.
    """
    for host in hosts:
        if host.failed:
            _fail_later(host.sim, on_parts, HostFailure(host.host_id, "prep on crashed host"))
            continue
        state = _PrepState(host, on_parts, work_us)
        host._live_preps[state] = None
        # Slot ownership transfers to the _PrepState, which releases it
        # in its _PrepBatch or in abort, on every path.
        host.cpu.acquire(state.on_grant)  # repro: noqa[RPR005]


def _fail_later(
    sim: Simulator, on_done: Callable[[Optional[BaseException]], None], cause: BaseException
) -> None:
    """Deliver ``on_done(cause)`` through the loop, as a failed Event
    would: a crash settles every prep it aborts first, in issue order."""
    ev = Event(sim)
    ev.callbacks.append(lambda ev: on_done(ev._exc))
    ev.fail(cause)


class _PrepState:
    """One host's share of a :func:`prep_hosts` call.

    The acquire/hold/release lifecycle of a CPU slot as explicit
    callbacks, plus the crash path: if the host dies while this prep is
    queued or holding the CPU, the prep settles with
    :class:`HostFailure` and the CPU slot is returned (a grant that
    reaches an aborted prep is handed straight back, so a crash can
    never leak the serial CPU).
    """

    __slots__ = ("host", "on_settled", "work_us", "holding", "settled")

    def __init__(
        self,
        host: Host,
        on_settled: Callable[..., None],
        work_us: float,
    ):
        self.host = host
        self.on_settled = on_settled
        self.work_us = work_us
        self.holding = False
        self.settled = False

    def on_grant(self, exc: Optional[BaseException]) -> None:
        host = self.host
        if self.settled:
            # Aborted (crash) while queued.  A grant that nevertheless
            # arrived reserved a slot for a dead prep: hand it back.
            if exc is None:
                host.cpu.release()
            return
        if exc is not None:
            # Queued waiter failed by Host.crash via cpu.fail_waiters
            # (already a loop entry of its own).
            host._live_preps.pop(self, None)
            self.settled = True
            self.on_settled(exc)
            return
        self.holding = True
        callbacks = None
        if self.work_us > 0:
            # Identical prep work fans out to every host of a group at
            # the same instant: share the completion timeout, and one
            # callback for consecutive grants of the same caller.
            callbacks = host.sim.shared_timeout(self.work_us).callbacks
        last = callbacks[-1] if callbacks else None
        if callbacks is None:
            _PrepBatch((self,))(None)
        elif type(last) is _PrepBatch and last[0].on_settled == self.on_settled:
            last.append(self)
        else:
            callbacks.append(_PrepBatch((self,)))

    def abort(self, cause: BaseException) -> None:
        host = self.host
        host._live_preps.pop(self, None)
        if self.holding:
            self.holding = False
            host.cpu.release()
        if not self.settled:
            self.settled = True
            _fail_later(host.sim, self.on_settled, cause)


class _PrepBatch(list):
    """Preps of one caller holding their CPUs until the same instant, in
    grant order: one callback releases each CPU in turn (a queued prep
    takes it inside the release) and then settles their parts."""

    __slots__ = ()

    def __call__(self, ev: Optional[Event]) -> None:
        parts = 0
        for state in self:
            if state.holding:  # else aborted (crash): CPU already released
                state.holding = False
                state.settled = True
                state.host._live_preps.pop(state, None)
                state.host.cpu.release()
                parts += 1
        if parts:
            # The caller's prep barrier reacts at this same instant.
            self[0].on_settled(None, parts)
