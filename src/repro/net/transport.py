"""The uniform cross-host transport (routed, crash-aware, contended).

Every cross-host communication in the system — gang dispatch, PLAQUE
control messages, cross-island object transfers, recovery traffic — goes
through one :class:`Transport`.  A send produces a first-class
:class:`Message` (itself an :class:`~repro.sim.Event`) that is *tracked
while in flight*: when a host crashes, every message still queued for or
crossing its NIC fails with :class:`MessageLost` (a
:class:`~repro.hw.device.FaultError`, so the loss feeds the existing
``retry_on_failure`` recovery path), and every byte of link capacity the
message held is released exactly — a crash can never strand NIC or
uplink bandwidth, mirroring the host-CPU-slot guarantee of
:class:`~repro.hw.host._PrepState`.

Two cost models share the API:

* **uncontended fast path** (``SystemConfig.net_contention=False``, the
  default): the historical point-to-point model — serialization through
  the sending host's NIC, then one propagation latency — reproduced
  byte-identically, now as an explicit event-chain state machine so the
  crash-abort path knows exactly which phase (queued / holding the NIC /
  propagating) each message is in;
* **contended fabric** (``net_contention=True``): the message is one
  fluid flow over its :class:`~repro.net.fabric.Fabric` route, sharing
  every link fairly with whatever else is crossing it — host NIC tx/rx,
  the island uplinks, the spine.

Both paths exist because they finish concurrent sends differently.  Two
equal sends from one host hold the fast path's capacity-1 NIC in turn
and finish serializing at ``s`` and ``2s`` (``s`` one serialization);
as fluid flows they split the NIC and both finish at ``2s``.  The
paper's dispatch and pipeline figures are calibrated on the first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Generator, Optional, Sequence, TYPE_CHECKING

from repro.config import SystemConfig
from repro.faults import FaultError
from repro.sim import Event, Interrupt, Simulator
from repro.stats import Stats

from repro.net.fabric import Fabric, Link

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.device import CollectiveRendezvous
    from repro.hw.host import Host

__all__ = ["Message", "MessageLost", "Transport", "TransportStats"]

_message_ids = itertools.count(1)

# _SendState phases (uncontended fast path).
_QUEUED = 0        # waiting for the sender's NIC
_HOLDING = 1       # serializing through the sender's NIC
_PROPAGATING = 2   # on the wire (past the sender's NIC)
_SETTLED = 3       # delivered or aborted


class MessageLost(FaultError):
    """An in-flight message failed (endpoint death, timeout, or a parked
    flow outliving its wait-for-restore deadline).

    A :class:`~repro.hw.device.FaultError`: a transfer gating a kernel
    that loses its message releases the kernel with this, and the
    dispatching program's ``retry_on_failure`` path replays the node —
    the DCN-route-loss recovery story.  ``category`` is the typed loss
    bucket :attr:`TransportStats.lost_by_reason` accumulates:
    ``"host-crash"``, ``"endpoint-down"``, ``"link-down"``,
    ``"timeout"``, ``"park-deadline"``, or ``"other"``.

    Note that only *endpoint* death loses messages: a dead middle hop
    (uplink, spine path) reroutes or parks the flows crossing it — real
    fabrics survive link loss; they do not survive a dead NIC.
    """

    def __init__(self, message: "Message", reason: str, category: str = "other"):
        super().__init__(
            f"message h{message.src.host_id}->h{message.dst.host_id} "
            f"({message.nbytes}B) lost: {reason}"
        )
        self.message = message
        self.reason = reason
        self.category = category


class Message(Event):
    """One tracked cross-host message; fires on delivery.

    The event's value is ``None`` on delivery; failure carries
    :class:`MessageLost`.  ``route`` is the list of fabric links a
    contended message crosses (empty on the uncontended fast path).
    """

    __slots__ = (
        "msg_id", "src", "dst", "nbytes", "sent_at_us", "route",
        "flow_seq", "on_wire", "reroutes", "_state", "_proc",
    )

    def __init__(self, sim: Simulator, src: "Host", dst: "Host", nbytes: int):
        super().__init__(sim)
        self.msg_id = next(_message_ids)
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.sent_at_us = sim.now
        self.route: list[Link] = []
        #: Per-transport flow sequence number, the ECMP hash input.
        #: Deliberately not :attr:`msg_id` (a process-global counter that
        #: drifts across runs in one interpreter) so path choices are
        #: identical run to run.
        self.flow_seq = 0
        #: True once the message has fully left the sender's NIC (it is
        #: propagating): a *sender* crash no longer loses it.
        self.on_wire = False
        #: Times this message switched to a new route after a hop died.
        self.reroutes = 0
        #: Uncontended-path state machine; None on the contended path.
        self._state: Optional[_SendState] = None
        #: Contended-path traversal process; None on the fast path.
        self._proc = None

    @property
    def in_flight(self) -> bool:
        return not self.triggered


class _SendState:
    """Uncontended send lifecycle as explicit callbacks.

    Mirrors :class:`~repro.hw.host._PrepState`: each phase transition
    checks for a crash-abort that won meanwhile, and a NIC slot granted
    to an already-dead message is handed straight back — the
    granted-but-unobserved-slot leak can never happen.
    """

    __slots__ = ("transport", "msg", "phase")

    def __init__(self, transport: "Transport", msg: Message):
        self.transport = transport
        self.msg = msg
        self.phase = _QUEUED

    def on_grant(self, exc: Optional[BaseException]) -> None:
        msg = self.msg
        if msg.triggered:
            # Aborted (crash/timeout) while queued.  A slot that was
            # nevertheless granted would leak: hand it back.
            if exc is None:
                msg.src.nic.release()
            return
        if exc is not None:
            # Queued waiter failed by Host.crash via nic.fail_waiters.
            self.transport._settle_lost(msg, exc)
            return
        self._begin_hold()

    def _begin_hold(self) -> None:
        self.phase = _HOLDING
        serialize = self.msg.nbytes / self.transport.config.dcn_bytes_per_us
        if serialize > 0:
            self.transport.sim.timeout(serialize).add_callback(self.on_serialized)
        else:
            self.on_serialized(None)

    def on_serialized(self, ev: Optional[Event]) -> None:
        if self.phase != _HOLDING:
            return  # aborted while serializing; the NIC was released there
        self.phase = _PROPAGATING
        self.msg.on_wire = True
        self.transport.sim.timeout(
            self.transport.config.dcn_latency_us
        ).add_callback(self.on_delivered)
        # Released last: the next queued sender starts inside release()
        # and must arm its timer after this message's propagation timer.
        self.msg.src.nic.release()

    def on_delivered(self, ev: Event) -> None:
        msg = self.msg
        self.phase = _SETTLED
        if not msg.triggered:
            msg.succeed(None)

    def abort(self, cause: BaseException) -> None:
        if self.msg.triggered:
            return
        if self.phase == _HOLDING:
            # Mid-serialization: give the NIC back (no capacity leak);
            # the stale serialization timer no-ops on the phase check.
            self.msg.src.nic.release()
        self.phase = _SETTLED
        self.msg.fail(cause)


class _Reroute:
    """Interrupt cause handed to a traversal whose hop just died;
    ``remaining`` is the flow's unsent bytes at eviction."""

    __slots__ = ("remaining",)

    def __init__(self, remaining: float):
        self.remaining = remaining


@dataclass(frozen=True)
class TransportStats(Stats):
    """One point-in-time snapshot of the transport (and its fabric).

    ``link_utilization`` is the fabric's sliding-window per-link busy
    fraction (empty when the transport has no fabric); everything else
    mirrors the transport's cumulative counters at snapshot time.
    ``lost_by_reason`` buckets every loss by its typed category
    (``"host-crash"``, ``"endpoint-down"``, ``"link-down"``,
    ``"timeout"``, ``"park-deadline"``, ``"other"``) — the robustness
    accounting fault drills assert on instead of ad-hoc attribute pokes.
    """

    messages_sent: int
    bytes_sent: int
    messages_delivered: int
    bytes_delivered: int
    messages_lost: int
    retransmits: int
    loopback_messages: int
    loopback_bytes: int
    #: Distinct messages currently tracked in flight.
    in_flight: int
    #: Flows switched to a surviving path after a non-endpoint hop died.
    reroutes: int = 0
    #: Park episodes: flows that waited for a link restore because no
    #: surviving path existed (cumulative, not currently-parked).
    messages_parked: int = 0
    #: Messages parked right now (waiting for a restore).
    parked_now: int = 0
    lost_by_reason: dict[str, int] = field(default_factory=dict)
    link_utilization: dict[str, float] = field(default_factory=dict)
    #: ``FabricStats`` of the attached fabric — fluid-solver counters
    #: plus the capacity-leak invariant (None when fabric-less).
    fabric: Optional[object] = None

    @property
    def max_link_utilization(self) -> float:
        return max(self.link_utilization.values(), default=0.0)


class Transport:
    """Uniform cross-host send/rpc/bulk/collective API over the fabric.

    With ``fabric=None`` (or ``config.net_contention=False``) behaves as
    the historical point-to-point DCN cost model; with contention on,
    messages cross their routes as fluid flows under link contention.
    """

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        fabric: Optional[Fabric] = None,
    ):
        self.sim = sim
        self.config = config
        self.fabric = fabric
        self.messages_sent = 0
        self.bytes_sent = 0
        #: Same-host sends skip the network entirely; counted separately
        #: so NIC-throughput accounting is not skewed by loopbacks.
        self.loopback_messages = 0
        self.loopback_bytes = 0
        self.messages_delivered = 0
        self.bytes_delivered = 0
        self.messages_lost = 0
        self.retransmits = 0
        #: Flows switched to a surviving path after a non-endpoint hop
        #: died (the fabric's reroute-on-failure path).
        self.reroutes = 0
        #: Cumulative park episodes (a re-park after a failed retry
        #: counts again — each is one wait-for-restore wait).
        self.messages_parked = 0
        #: Losses bucketed by :attr:`MessageLost.category`.
        self.lost_by_reason: dict[str, int] = {}
        #: Messages currently parked (no surviving path), in park order,
        #: each mapped to the restore event its traversal waits on.
        self._parked: dict[Message, Event] = {}
        #: Per-transport ECMP flow sequence (see :attr:`Message.flow_seq`).
        self._next_flow_seq = 0
        #: In-flight messages per endpoint host id (crash invalidation).
        #: Inner dicts are insertion-ordered sets: crash invalidation
        #: walks messages in send order, keeping schedules deterministic
        #: (a hash set would iterate by object address).
        self._in_flight: dict[int, dict[Message, None]] = {}
        #: Hosts whose crash listener is installed.
        self._watched: set[int] = set()
        self._loss_listeners: list[Callable[[Message, BaseException], None]] = []
        if sim.sanitize and sim.sanitizer is not None:
            sim.sanitizer.watch(self)

    def _sanitizer_problems(self) -> list[tuple[str, str]]:
        """Drain-end invariant: no message may end neither delivered nor
        failed — an undelivered survivor is a sender that will wait
        forever (the transport-level lost wakeup)."""
        stranded = [
            msg
            for tracked in self._in_flight.values()
            for msg in tracked
            if not msg.triggered
        ]
        if not stranded:
            return []
        names = ", ".join(m.name for m in stranded[:8])
        more = "" if len(stranded) <= 8 else f" (+{len(stranded) - 8} more)"
        return [
            (
                "waiters",
                f"transport drained with {len(stranded)} in-flight "
                f"message(s) neither delivered nor failed: {names}{more}",
            )
        ]

    # -- mode & cost model -------------------------------------------------
    @property
    def contended(self) -> bool:
        return self.fabric is not None and self.config.net_contention

    def transfer_time_us(self, nbytes: int) -> float:
        """Zero-load point-to-point cost (the uncontended estimate)."""
        return self.config.dcn_latency_us + nbytes / self.config.dcn_bytes_per_us

    def add_loss_listener(
        self, fn: Callable[["Message", BaseException], None]
    ) -> None:
        """Observe every in-flight message loss (recovery accounting)."""
        self._loss_listeners.append(fn)

    def stats(self, window_us: Optional[float] = None) -> TransportStats:
        """Snapshot the transport counters + per-link utilization.

        ``window_us`` sets the sliding window of the utilization half
        (capped at the config's ``net_util_window_us``); counters are
        cumulative regardless.
        """
        in_flight = {
            msg.msg_id
            for tracked in self._in_flight.values()
            for msg in tracked
            if not msg.triggered
        }
        return TransportStats(
            messages_sent=self.messages_sent,
            bytes_sent=self.bytes_sent,
            messages_delivered=self.messages_delivered,
            bytes_delivered=self.bytes_delivered,
            messages_lost=self.messages_lost,
            retransmits=self.retransmits,
            loopback_messages=self.loopback_messages,
            loopback_bytes=self.loopback_bytes,
            in_flight=len(in_flight),
            reroutes=self.reroutes,
            messages_parked=self.messages_parked,
            parked_now=len(self._parked),
            lost_by_reason=dict(self.lost_by_reason),
            link_utilization=(
                self.fabric.utilization(window_us)
                if self.fabric is not None
                else {}
            ),
            fabric=self.fabric.stats() if self.fabric is not None else None,
        )

    # -- the send paths -----------------------------------------------------
    def send(
        self,
        src: "Host",
        dst: "Host",
        nbytes: int,
        timeout_us: Optional[float] = None,
    ) -> Message:
        """Send ``nbytes`` from ``src`` to ``dst``; returns the message.

        The returned :class:`Message` is an event that fires on delivery
        and fails with :class:`MessageLost` if an endpoint host crashes
        while it is in flight (or ``timeout_us`` elapses first).
        Loopback (src is dst) skips the network entirely.
        """
        msg = Message(self.sim, src, dst, nbytes)
        if src is dst:
            self.loopback_messages += 1
            self.loopback_bytes += nbytes
            msg.succeed(None)
            return msg
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if src.failed or dst.failed:
            down = src if src.failed else dst
            cause = MessageLost(msg, f"host {down.name} is down", "endpoint-down")
            msg.fail(cause)
            self._count_loss(msg, cause)
            return msg
        self._track(msg)
        if self.contended:
            msg.flow_seq = self._next_flow_seq
            self._next_flow_seq += 1
            # None (no surviving middle path) becomes the empty route:
            # the traversal recomputes it and parks until a restore.
            msg.route = self.fabric.route(src, dst, msg.flow_seq) or []
            msg._proc = self.sim.process(self._traverse(msg))
        else:
            msg._state = _SendState(self, msg)
            # Slot ownership transfers to the _SendState (see its abort).
            src.nic.acquire(msg._state.on_grant)  # repro: noqa[RPR005]
        if timeout_us is None and self.config.net_message_timeout_us > 0:
            timeout_us = self.config.net_message_timeout_us
        if timeout_us is not None and timeout_us > 0:
            self.sim.timeout(timeout_us).add_callback(
                lambda ev, m=msg: self._on_timeout(m)
            )
        return msg

    def rpc(self, src: "Host", dst: "Host", nbytes: int = 256) -> Message:
        """A small control-plane message (scheduling, data handles)."""
        return self.send(src, dst, nbytes)

    def send_reliable(
        self,
        src: "Host",
        dst: "Host",
        nbytes: int,
        timeout_us: Optional[float] = None,
        max_attempts: int = 8,
    ) -> Event:
        """A send that retransmits after loss or timeout.

        Each attempt is a fresh tracked message; between attempts the
        sender backs off ``config.net_retransmit_backoff_us`` (the
        window in which a crashed endpoint can restore).  The returned
        event succeeds with the number of attempts used, or fails with
        the final :class:`MessageLost` once ``max_attempts`` is spent.
        """
        done = Event(self.sim)

        def _proc() -> Generator:
            last: Optional[BaseException] = None
            for attempt in range(1, max_attempts + 1):
                try:
                    yield self.send(src, dst, nbytes, timeout_us=timeout_us)
                except MessageLost as exc:
                    last = exc
                    self.retransmits += 1
                    backoff = self.config.net_retransmit_backoff_us
                    if backoff > 0:
                        yield self.sim.timeout(backoff)
                    continue
                done.succeed(attempt)
                return
            done.fail(last)

        self.sim.process(_proc())
        return done

    def make_cross_island_collective(
        self,
        participants: int,
        hosts: Sequence["Host"],
        nbytes_per_host: int,
        name: str = "",
        compute_us: float = 0.0,
    ) -> "CollectiveRendezvous":
        """A gang rendezvous whose wire phase is real fabric traffic.

        Once every participant joins, the collective runs as a gather to
        ``hosts[0]`` followed by a scatter back — every transfer
        contending on the island uplinks like any other message.  An
        endpoint crash mid-collective aborts the rendezvous with the
        :class:`MessageLost`, releasing the surviving gang members into
        the recovery path instead of wedging them.
        """
        from repro.hw.device import CollectiveRendezvous

        hosts = list(hosts)
        if not hosts:
            raise ValueError("collective needs at least one host")
        return CollectiveRendezvous(
            self.sim,
            participants,
            duration_us=0.0,
            name=name,
            compute_us=compute_us,
            wire_fn=lambda: self._collective_wire(hosts, nbytes_per_host),
        )

    # -- failure integration -------------------------------------------------
    def fail_in_flight(self, host: "Host", reason: str = "host crash") -> int:
        """Fail every in-flight message endpointed at ``host``.

        Called automatically via the host's crash listener; exposed for
        direct use by fault drills.  A message that already left the
        sender's NIC (uncontended propagation phase) is considered on
        the wire and is lost only when the *receiver* is the dead host.
        Returns the number of messages failed.
        """
        doomed = []
        for msg in list(self._in_flight.get(host.host_id, ())):
            if msg.triggered:
                continue
            if host is msg.src and msg.on_wire:
                # Fully past the dead sender's NIC (uncontended
                # propagation, or a contended route completely crossed):
                # on the wire, and the receiver is alive.
                continue
            doomed.append(msg)
        for msg in doomed:
            self._abort(
                msg, MessageLost(msg, f"{reason}: {host.name}", "host-crash")
            )
        return len(doomed)

    # -- link-fault integration ----------------------------------------------
    def fail_link(self, name: str) -> int:
        """Take one fabric link down; its flows reroute, park, or lose.

        ``name`` is the stable link name (``spine[p1]``, ``uplink_tx[i0]``,
        ``nic_rx[h3]``, ...).  Every flow crossing the link is evicted
        with exact capacity release and its traversal re-routes: onto a
        surviving path (resuming with its remaining bytes), parked until
        a restore when no path survives, or — endpoint NIC death only —
        failed with :class:`MessageLost`.  Returns the victim count.
        """
        if self.fabric is None:
            raise RuntimeError("transport has no fabric to fail links on")
        victims = self.fabric.take_down(self.fabric.link_by_name(name))
        for msg, remaining in victims:
            # A live flow's traversal is always waiting on that flow.
            msg._proc.interrupt(_Reroute(remaining))
        return len(victims)

    def restore_link(self, name: str) -> bool:
        """Bring a downed link back up, waking parked flows it unblocks.

        Parked messages are retried in park order; each recomputes its
        route (ECMP rehash included) and resumes with its remaining
        bytes.  Returns False if the link was not down.
        """
        if self.fabric is None:
            raise RuntimeError("transport has no fabric to restore links on")
        link = self.fabric.link_by_name(name)
        if not self.fabric.restore_link(link):
            return False
        for msg, park in list(self._parked.items()):
            if park.triggered or msg.triggered:
                continue
            if self.fabric.route(msg.src, msg.dst, msg.flow_seq) is not None:
                park.succeed(None)
        return True

    # -- internals -----------------------------------------------------------
    def _traverse(self, msg: Message) -> Generator:
        """Contended traversal across the route, then propagation.

        The message is one fluid flow holding its whole route,
        progressing at the bottleneck share.  The loop is the reroute
        engine: a hop death mid-flow interrupts the traversal with
        :class:`_Reroute`, the route is recomputed over surviving paths
        and the flow restarts with its remaining bytes, and when *no*
        path survives the message parks until a link restore.  Only a
        dead endpoint NIC loses the message.
        """
        fabric = self.fabric
        remaining = float(msg.nbytes)
        while not msg.triggered:
            if not msg.route:
                new = fabric.route(msg.src, msg.dst, msg.flow_seq)
                if new is None:
                    ok = yield from self._park(msg)
                    if not ok:
                        return
                    continue
                msg.route = new
            down = next((link for link in msg.route if not link.up), None)
            if down is not None:
                if down.kind == "nic":
                    # The endpoint rule: fabrics survive link loss, not
                    # a dead NIC.
                    msg.fail(
                        MessageLost(
                            msg, f"endpoint NIC {down.name} is down", "link-down"
                        )
                    )
                    return
                new = fabric.route(msg.src, msg.dst, msg.flow_seq)
                if new is None:
                    msg.route = []
                    continue  # no surviving path: park at the loop top
                msg.route = new
                msg.reroutes += 1
                self.reroutes += 1
                tr = self.sim.tracer
                if tr is not None:
                    tr.instant(
                        f"reroute:msg#{msg.msg_id}",
                        "net.reroute",
                        track="net",
                        args={"down": down.name, "reroutes": msg.reroutes},
                    )
                continue
            try:
                yield fabric.start_flow(msg, msg.route, remaining)
            except Interrupt as intr:
                if isinstance(intr.cause, _Reroute):
                    remaining = intr.cause.remaining
                    continue
                return  # crash/timeout abort: the message already failed
            # The flow spans the whole route (sender NIC included) until
            # completion, so the message is on the wire only once the
            # flow has fully drained.
            msg.on_wire = True
            break
        if msg.triggered:
            return
        yield self.sim.timeout(self.config.dcn_latency_us)
        if not msg.triggered:
            msg.succeed(None)

    def _park(self, msg: Message) -> Generator:
        """Wait parked for a link restore (no surviving path right now).

        Returns True when a restore made a route viable again (the
        traversal retries), False when the message was failed meanwhile
        (park deadline, endpoint crash, timeout).
        """
        park = Event(self.sim)
        self._parked[msg] = park
        self.messages_parked += 1
        tr = self.sim.tracer
        if tr is not None:
            tr.instant(
                f"park:msg#{msg.msg_id}",
                "net.park",
                track="net",
                args={"src": msg.src.name, "dst": msg.dst.name},
            )
        deadline = self.config.net_park_deadline_us
        if deadline > 0:
            self.sim.timeout(deadline).add_callback(
                lambda ev, m=msg, p=park: self._on_park_deadline(m, p)
            )
        try:
            yield park
        except Interrupt as intr:
            return isinstance(intr.cause, _Reroute)  # else: abort won
        except MessageLost:
            return False
        finally:
            if self._parked.get(msg) is park:
                del self._parked[msg]
        return True

    def _on_park_deadline(self, msg: Message, park: Event) -> None:
        # Park-token guard: only the episode that armed this timer may
        # be killed by it — a restore-then-repark message is a *new*
        # episode with its own deadline.
        if self._parked.get(msg) is not park or msg.triggered:
            return
        self._abort(
            msg,
            MessageLost(
                msg,
                "parked past the wait-for-restore deadline",
                "park-deadline",
            ),
        )

    def _collective_wire(self, hosts: list, nbytes: int):
        def _proc() -> Generator:
            root = hosts[0]
            gather = [self.send(h, root, nbytes) for h in hosts[1:]]
            if gather:
                yield self.sim.all_of(gather)
            scatter = [self.send(root, h, nbytes) for h in hosts[1:]]
            if scatter:
                yield self.sim.all_of(scatter)

        return self.sim.process(_proc())

    def _track(self, msg: Message) -> None:
        for host in (msg.src, msg.dst):
            self._in_flight.setdefault(host.host_id, {})[msg] = None
            if host.host_id not in self._watched:
                self._watched.add(host.host_id)
                host.add_crash_listener(self.fail_in_flight)
        msg.add_callback(self._on_settled)

    def _on_settled(self, ev: Event) -> None:
        msg: Message = ev  # tracked events are always Messages
        self._parked.pop(msg, None)
        for host in (msg.src, msg.dst):
            in_flight = self._in_flight.get(host.host_id)
            if in_flight is not None:
                in_flight.pop(msg, None)
        if ev._exc is None:
            self.messages_delivered += 1
            self.bytes_delivered += msg.nbytes
            tr = self.sim.tracer
            if tr is not None:
                tr.complete(
                    f"msg#{msg.msg_id}",
                    "net.msg",
                    msg.sent_at_us,
                    self.sim.now,
                    track="net",
                    args={
                        "src": msg.src.name,
                        "dst": msg.dst.name,
                        "nbytes": msg.nbytes,
                        "reroutes": msg.reroutes,
                    },
                )
        else:
            self._count_loss(msg, ev._exc)

    def _count_loss(self, msg: Message, cause: BaseException) -> None:
        self.messages_lost += 1
        category = getattr(cause, "category", "other")
        self.lost_by_reason[category] = self.lost_by_reason.get(category, 0) + 1
        tr = self.sim.tracer
        if tr is not None:
            tr.instant(
                f"lost:msg#{msg.msg_id}",
                "net.lost",
                track="net",
                args={
                    "src": msg.src.name,
                    "dst": msg.dst.name,
                    "category": getattr(cause, "category", "other"),
                },
            )
        for fn in self._loss_listeners:
            fn(msg, cause)

    def _on_timeout(self, msg: Message) -> None:
        if not msg.triggered:
            self._abort(msg, MessageLost(msg, "delivery timeout", "timeout"))

    def _abort(self, msg: Message, cause: MessageLost) -> None:
        """Fail one in-flight message, releasing all held capacity."""
        if msg.triggered:
            return
        if msg._state is not None:
            msg._state.abort(cause)
            return
        # Not on the fast path, so the message is a fabric flow.
        self.fabric.abort_flow(msg)
        proc = msg._proc
        if proc is not None and not proc.triggered:
            proc.interrupt(cause)
        msg.fail(cause)

    def _settle_lost(self, msg: Message, cause: BaseException) -> None:
        """Fail a message whose NIC wait was failed underneath it."""
        if msg.triggered:
            return
        if not isinstance(cause, MessageLost):
            cause = MessageLost(msg, repr(cause), "host-crash")
        msg.fail(cause)
