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
  the island uplinks, the spine — driven by a :class:`_Traversal` the
  fabric calls back when the flow drains.  Crash, timeout and park
  deadline abort either kind through ``Message._state.abort``.

Both paths exist because they finish concurrent sends differently.  Two
equal sends from one host hold the fast path's capacity-1 NIC in turn
and finish serializing at ``s`` and ``2s`` (``s`` one serialization);
as fluid flows they split the NIC and both finish at ``2s``.  The
paper's dispatch and pipeline figures are calibrated on the first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, TYPE_CHECKING, Union

from repro.config import SystemConfig
from repro.faults import FaultError
from repro.sim import Event, Simulator
from repro.sim.engine import _PENDING
from repro.stats import Stats

from repro.net.fabric import Fabric, Link

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.host import Host

__all__ = ["Message", "MessageLost", "Transport", "TransportStats"]

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
        "flow_seq", "on_wire", "reroutes", "_state",
    )

    def __init__(
        self, sim: Simulator, src: "Host", dst: "Host", nbytes: int, msg_id: int
    ):
        # The base Event fields, set inline as Timeout does: a Message
        # is built on every send.
        self.sim = sim
        self._name = ""
        self._value = _PENDING
        self._exc = None
        self.callbacks = []
        #: Per-transport send number (loopbacks included).
        self.msg_id = msg_id
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.sent_at_us = sim._now
        self.route: list[Link] = []
        #: Per-transport flow sequence number, the ECMP hash input: it
        #: counts contended sends only, so loopbacks and sends to a dead
        #: host do not move later path choices.
        self.flow_seq = 0
        #: True once the message has fully left the sender's NIC (it is
        #: propagating): a *sender* crash no longer loses it.
        self.on_wire = False
        #: Times this message switched to a new route after a hop died.
        self.reroutes = 0
        #: The send's state machine while tracked, with ``abort(cause)``:
        #: a :class:`_SendState` on the fast path, a :class:`_Traversal`
        #: on the fabric.  None for loopback and dead-endpoint sends.
        self._state: Union[_SendState, _Traversal, None] = None

    @property
    def name(self) -> str:
        """Built on demand: only logs and reports read it."""
        return f"msg#{self.msg_id} h{self.src.host_id}->h{self.dst.host_id}"

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

    def on_grant(self) -> None:
        msg = self.msg
        if msg.triggered:
            # Aborted (receiver crash/timeout) while queued.  A slot that
            # was nevertheless granted would leak: hand it back.
            msg.src.nic.release()
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
            msg.succeed_inline(None)

    def abort(self, cause: BaseException) -> None:
        if self.msg.triggered:
            return
        if self.phase == _HOLDING:
            # Mid-serialization: give the NIC back (no capacity leak);
            # the stale serialization timer no-ops on the phase check.
            self.msg.src.nic.release()
        self.phase = _SETTLED
        self.msg.fail(cause)


class _Traversal:
    """Contended send lifecycle as explicit callbacks.

    The message is one fluid flow holding its whole route.  A hop death
    mid-flow calls :meth:`reroute` with the unsent bytes, which restart
    over a surviving path; with *no* path left the message parks until
    a restore.  Only a dead endpoint NIC loses it.  Until the message
    settles the traversal sits in the simulator's live-chain registry,
    so a send parked forever is a :class:`~repro.sim.DeadlockError`.
    """

    __slots__ = ("transport", "msg", "remaining", "deadline")

    def __init__(self, transport: "Transport", msg: Message):
        self.transport = transport
        self.msg = msg
        #: Unsent bytes: the size of the next flow this send starts.
        self.remaining = float(msg.nbytes)
        #: The park-deadline timer, armed only while parked.
        self.deadline = None
        transport.sim._live_chains[self] = None

    @property
    def name(self) -> str:
        return f"send {self.msg.name}"

    def advance(self) -> None:
        """Start the flow over a viable route, or park or lose the
        message when none exists."""
        msg = self.msg
        transport = self.transport
        fabric = transport.fabric
        while True:
            if not msg.route:
                route = fabric.route(msg.src, msg.dst, msg.flow_seq)
                if route is None:
                    self._park()
                    return
                msg.route = route
            down = None
            for link in msg.route:
                if not link.up:
                    down = link
                    break
            if down is None:
                break
            if down.kind == "nic":
                # The endpoint rule: fabrics survive link loss, not a
                # dead NIC.
                self.abort(MessageLost(msg, f"endpoint NIC {down.name} is down", "link-down"))
                return
            # Empty when no path survives: the loop top then parks.
            msg.route = fabric.route(msg.src, msg.dst, msg.flow_seq) or []
            if msg.route:
                msg.reroutes += 1
                transport.reroutes += 1
                tr = transport.sim.tracer
                if tr is not None:
                    tr.instant(
                        f"reroute:msg#{msg.msg_id}",
                        "net.reroute",
                        track="net",
                        args={"down": down.name, "reroutes": msg.reroutes},
                    )
        fabric.start_flow(msg, msg.route, self.remaining, self.on_flow_done)

    def on_flow_done(self) -> None:
        # The flow spans the whole route (sender NIC included) until it
        # drains, so the message is on the wire only from here.
        self.msg.on_wire = True
        self.transport.sim.timeout(
            self.transport.config.dcn_latency_us
        ).add_callback(self.on_delivered)

    def on_delivered(self, ev: Event) -> None:
        msg = self.msg
        if not msg.triggered:  # else lost while propagating
            self.transport.sim._live_chains.pop(self, None)
            msg.succeed_inline(None)

    def reroute(self, remaining: float) -> None:
        """A hop of the flow died; ``remaining`` is its unsent bytes."""
        if not self.msg.triggered:
            self.remaining = remaining
            self.advance()

    def _park(self) -> None:
        """Wait for a link restore (no surviving path right now)."""
        transport = self.transport
        msg = self.msg
        park = Event(transport.sim)
        park.callbacks.append(self.on_unparked)
        transport._parked[msg] = park
        transport.messages_parked += 1
        tr = transport.sim.tracer
        if tr is not None:
            tr.instant(
                f"park:msg#{msg.msg_id}",
                "net.park",
                track="net",
                args={"src": msg.src.name, "dst": msg.dst.name},
            )
        deadline = transport.config.net_park_deadline_us
        if deadline > 0:
            # Named and timed as a Timeout; disarmed when this park
            # episode ends, so a re-park arms a fresh deadline.
            sim = transport.sim
            timer = self.deadline = sim.timer_handle(
                self._on_park_deadline, name=lambda: f"timeout({deadline:g})"
            )
            timer.schedule(sim._now + deadline)

    def _on_park_deadline(self, timer) -> None:
        reason = "parked past the wait-for-restore deadline"
        self.abort(MessageLost(self.msg, reason, "park-deadline"))

    def on_unparked(self, park: Event) -> None:
        """A restore made a route viable again: retry (unless the
        message was aborted since, which unparked it)."""
        if self.transport._parked.pop(self.msg, None) is park:
            self._disarm_deadline()
            self.advance()

    def _disarm_deadline(self) -> None:
        if self.deadline is not None:
            self.deadline.cancel()
            self.deadline = None

    def abort(self, cause: BaseException) -> None:
        msg = self.msg
        if msg.triggered:
            return
        transport = self.transport
        # Any phase: flowing (frees its share), parked or propagating.
        transport.fabric.abort_flow(msg)
        transport._parked.pop(msg, None)
        self._disarm_deadline()
        transport.sim._live_chains.pop(self, None)
        msg.fail(cause)


@dataclass(frozen=True)
class TransportStats(Stats):
    """One point-in-time snapshot of the transport (and its fabric).

    The counters are the transport's cumulative ones at snapshot time.
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
    #: ``FabricStats`` of the fabric — fluid-solver counters plus the
    #: capacity-leak invariant.
    fabric: Optional[object] = None


class Transport:
    """Uniform cross-host send API over the fabric.

    With ``config.net_contention=False`` it behaves as the historical
    point-to-point DCN cost model; with contention on, messages cross
    their routes as fluid flows under link contention.
    """

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        fabric: Fabric,
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
        #: each mapped to the restore event whose callback resumes its
        #: traversal.
        self._parked: dict[Message, Event] = {}
        #: Per-transport send number (see :attr:`Message.msg_id`).
        self._next_msg_id = 0
        #: Per-transport ECMP flow sequence (see :attr:`Message.flow_seq`).
        self._next_flow_seq = 0
        #: In-flight messages per endpoint host id (crash invalidation),
        #: each mapped to its send number.  Inner dicts are
        #: insertion-ordered: crash invalidation walks messages in send
        #: order, keeping schedules deterministic (a hash set would
        #: iterate by object address).  A host has an entry exactly
        #: when its crash listener is installed.
        self._in_flight: dict[int, dict[Message, int]] = {}
        self._loss_listeners: list[Callable[[Message, BaseException], None]] = []
        if sim.sanitize and sim.sanitizer is not None:
            sim.sanitizer.watch(self)

    def _unsettled(self) -> list[Message]:
        """Tracked messages neither delivered nor failed, each once (a
        message is tracked under both endpoints), in send order."""
        live = {
            msg: order
            for tracked in self._in_flight.values()
            for msg, order in tracked.items()
            if not msg.triggered
        }
        return sorted(live, key=live.__getitem__)

    def _sanitizer_problems(self) -> list[tuple[str, str]]:
        """Drain-end invariants: no message may end neither delivered nor
        failed — an undelivered survivor is a sender that will wait
        forever (the transport-level lost wakeup) — and every message
        sent was counted delivered or lost exactly once (loopbacks are
        in neither count; a stranded message is reported above)."""
        problems = []
        stranded = self._unsettled()
        if stranded:
            names = ", ".join(m.name for m in stranded[:8])
            more = "" if len(stranded) <= 8 else f" (+{len(stranded) - 8} more)"
            problems.append((
                "waiters",
                f"transport drained with {len(stranded)} in-flight "
                f"message(s) neither delivered nor failed: {names}{more}",
            ))
        settled = self.messages_delivered + self.messages_lost + len(stranded)
        if settled != self.messages_sent:
            problems.append((
                "conservation",
                f"transport drained with {self.messages_sent} message(s) "
                f"sent but {self.messages_delivered} delivered + "
                f"{self.messages_lost} lost + {len(stranded)} in flight",
            ))
        return problems

    # -- mode & cost model -------------------------------------------------
    @property
    def contended(self) -> bool:
        return self.config.net_contention

    def transfer_time_us(self, nbytes: int) -> float:
        """Zero-load point-to-point cost (the uncontended estimate)."""
        return self.config.dcn_latency_us + nbytes / self.config.dcn_bytes_per_us

    def add_loss_listener(
        self, fn: Callable[["Message", BaseException], None]
    ) -> None:
        """Observe every in-flight message loss (recovery accounting)."""
        self._loss_listeners.append(fn)

    def stats(self) -> TransportStats:
        """Snapshot the transport and fabric counters (cumulative)."""
        return TransportStats(
            messages_sent=self.messages_sent,
            bytes_sent=self.bytes_sent,
            messages_delivered=self.messages_delivered,
            bytes_delivered=self.bytes_delivered,
            messages_lost=self.messages_lost,
            retransmits=self.retransmits,
            loopback_messages=self.loopback_messages,
            loopback_bytes=self.loopback_bytes,
            in_flight=len(self._unsettled()),
            reroutes=self.reroutes,
            messages_parked=self.messages_parked,
            parked_now=len(self._parked),
            lost_by_reason=dict(self.lost_by_reason),
            fabric=self.fabric.stats(),
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
        self._next_msg_id += 1
        msg = Message(self.sim, src, dst, nbytes, self._next_msg_id)
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
            msg._state = _Traversal(self, msg)
        else:
            msg._state = _SendState(self, msg)
            # Slot ownership transfers to the _SendState (see its abort).
            src.nic.acquire(msg._state.on_grant)  # repro: noqa[RPR005]
        if timeout_us is not None and timeout_us > 0:
            # Named and timed as a Timeout, but disarmed on settling: a
            # delivered message leaves no timer behind.
            timer = self.sim.timer_handle(
                lambda h: self._on_timeout(msg),
                name=lambda: f"timeout({timeout_us:g})",
            )
            timer.schedule(self.sim._now + timeout_us)
            msg.add_callback(lambda ev: timer.cancel())
        if self.contended:
            # After the timeout: the flow's timer keeps its later seq.
            msg._state.advance()
        return msg

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
        A callback chain: the first attempt is sent at once, and each
        later step runs from the settle or backoff it waited on.
        """
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        done = Event(self.sim)
        attempt = 0

        def send(last: Optional[BaseException] = None) -> None:
            nonlocal attempt
            if attempt == max_attempts:
                done.fail(last)
                return
            attempt += 1
            self.send(src, dst, nbytes, timeout_us=timeout_us).add_callback(settled)

        def settled(msg: Event) -> None:
            if msg._exc is None:
                done.succeed(attempt)
                return
            self.retransmits += 1
            backoff = self.config.net_retransmit_backoff_us
            if backoff > 0:
                self.sim.timeout(backoff).add_callback(lambda ev: send(msg._exc))
            else:
                send(msg._exc)

        send()
        return done

    # -- failure integration -------------------------------------------------
    def fail_in_flight(self, host: "Host") -> int:
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
                msg, MessageLost(msg, f"host crash: {host.name}", "host-crash")
            )
        return len(doomed)

    # -- link-fault integration ----------------------------------------------
    def fail_link(self, name: str) -> int:
        """Take one fabric link down; its flows reroute, park, or lose.

        ``name`` is the stable link name (``spine[p1]``, ``uplink_tx[i0]``,
        ``nic_rx[h3]``, ...).  Every flow crossing the link is evicted
        with exact capacity release, and one zero-delay entry later each
        victim's traversal re-routes, in flow start order: onto a
        surviving path (resuming with its remaining bytes), parked until
        a restore when no path survives, or — endpoint NIC death only —
        failed with :class:`MessageLost`.  Returns the victim count.
        """
        victims = self.fabric.take_down(self.fabric.link_by_name(name))
        if victims:

            def reroute(ev: Event) -> None:
                for msg, remaining in victims:
                    msg._state.reroute(remaining)

            kick = Event(self.sim, name="reroute")
            kick.callbacks.append(reroute)
            kick.succeed()
        return len(victims)

    def restore_link(self, name: str) -> bool:
        """Bring a downed link back up, waking parked flows it unblocks.

        Parked messages are retried in park order; each recomputes its
        route (ECMP rehash included) and resumes with its remaining
        bytes.  Returns False if the link was not down.
        """
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
    def _track(self, msg: Message) -> None:
        for host in (msg.src, msg.dst):
            tracked = self._in_flight.get(host.host_id)
            if tracked is None:
                # First message at this host: its dict and crash
                # listener come into being together.
                tracked = self._in_flight[host.host_id] = {}
                host.add_crash_listener(self.fail_in_flight)
            tracked[msg] = msg.msg_id
        msg.add_callback(self._on_settled)

    def _on_settled(self, ev: Event) -> None:
        msg: Message = ev  # tracked events are always Messages
        for host in (msg.src, msg.dst):
            self._in_flight[host.host_id].pop(msg, None)
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
        msg._state.abort(cause)
