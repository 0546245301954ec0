"""The routed DCN fabric: links, routes, multipath, and contention.

The fabric models the datacenter network as a two-tier tree the way
first-principles infrastructure simulators do (MLSYSIM): every host owns
an egress (tx) and ingress (rx) NIC link, every island shares one uplink
pair to the spine, and ``SystemConfig.spine_paths`` parallel spine links
connect islands.  Routes are

* intra-island: ``src NIC tx -> dst NIC rx``
* cross-island: ``src NIC tx -> island uplink tx -> spine path ->
  island uplink rx -> dst NIC rx``

With ``spine_paths == 1`` (the default) the single spine path makes
routes static, reproducing the historical fabric byte-identically.  With
``spine_paths > 1`` the spine path is chosen per flow by a *seeded CRC*
of (src host, dst host, flow seq) — ECMP hash routing; deliberately not
Python ``hash()`` or ``id()``, which vary across interpreters and runs —
restricted to the paths currently up, so a spine-link failure rehashes
onto the survivors and :meth:`Fabric.route` returns ``None`` only when
*no* viable path exists (dead uplink, or every spine path down).

Links can be taken down (:meth:`Fabric.take_down`) and restored
(:meth:`Fabric.restore_link`): taking a link down evicts every flow
crossing it with exact capacity release — the same abort machinery host
crashes use — and hands the evicted flow keys back to the caller (the
transport), which reroutes or parks them.  A downed link therefore holds
zero capacity by construction and is exempt from the sanitizer's
drain-end ``LeakedCapacityError`` sweep until restore.

Links share bandwidth under the flow-level fluid model packet-switched
networks approximate (``net_link_sharing="fair"``, the only discipline):
a message occupies *every* link on its route simultaneously and
progresses at ``min over links of (link bandwidth / flows on that
link)``, recomputed whenever flow membership changes.  A lone flow runs
at its bottleneck link rate; aggregate goodput through a shared uplink
saturates at exactly the uplink bandwidth.

One engine, :class:`ScopedFluidSolver`, drives the fluid model
incrementally over **route classes**: every live flow with the same
route tuple.  A flow's rate is a pure function of the flow counts on
its route links, so all members of a class always share one rate, and
a join or leave changes the count on every link of that route, so the
class rate always changes strictly.  Members therefore move in
lockstep — they sync at the same instants and subtract the same
``rate * elapsed`` each time — and a class keeps one ``rate``, one
sync time ``at`` and its members' remaining bytes, sorted, in one
float64 buffer.  Float subtraction and division are monotone, so
lockstep integration keeps that order, the head (the first member)
finishes first, and the members due at any instant are a prefix.
Each link keeps the insertion-ordered set of classes crossing it, so
a membership change re-rates only the *affected* classes (those
sharing a link whose count changed): one rate evaluation, one in-place
NumPy subtraction over the buffer (elementwise IEEE arithmetic, bit
for bit what a per-member loop computes) and one completion-calendar
entry per class, keyed on the head's finish; a completion splits off
the due prefix.  The calendar is a heap with lazy invalidation and
one cancellable :class:`~repro.sim.TimerHandle` fires the next
completion.  A flow that starts on an empty fabric (most serving
messages) is the *solo* flow: it runs at its bottleneck link rate, so
the timer is armed at ``now + nbytes / rate`` directly, with no class,
buffer, link index or calendar entry.  Anything else that touches the
solver while it lives (a start, an abort, a take-down) first gives it
exactly the class and calendar entry the general path would hold, and
a solo completion moves every counter as the general one does.  The
solver-equivalence tests pin the solver **byte-identical** — the same
schedule, not merely equal delivery times — to a per-flow reference
that recomputes every live flow on every change, and to a route-class
solver with no solo flow (both in ``tests/oracles.py``).

Aborts are exact — an in-flight message whose endpoint host crashed
releases all held capacity immediately, the network analogue of the
host CPU-slot guarantee: a failure may never strand link bandwidth.

Links are created lazily per host/island, so elastically added islands
(:meth:`~repro.core.system.PathwaysSystem.add_island`) join the fabric
transparently.
"""

from __future__ import annotations

import heapq
import re
import zlib
from array import array
from bisect import bisect_right
from collections import deque
from itertools import islice
from operator import attrgetter, itemgetter
from typing import Callable, Deque, Optional, TYPE_CHECKING

import numpy as np

from repro.config import SystemConfig
from repro.sim import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.host import Host

__all__ = ["Fabric", "Link", "ScopedFluidSolver", "Uplink"]

#: "Never finishes": the next-finish answer of an empty calendar.
_NEVER = float("inf")

#: How far back :meth:`Uplink.busy_fraction` looks (µs); older busy
#: intervals are dropped so the log stays bounded.
UTIL_WINDOW_US = 100_000.0


class Link:
    """One fabric hop: a bandwidth capacity plus accounting.

    The :class:`Fabric`'s fluid solver drives progress; this object
    holds the capacity, the live-flow count and its counters.  Only an
    island uplink (an :class:`Uplink`) also keeps a busy log.
    """

    __slots__ = (
        "sim",
        "name",
        "kind",
        "up",
        "bytes_per_us",
        "bytes_carried",
        "flows_completed",
        "flows_aborted",
        "max_concurrency",
        "fluid_flows",
        "_fluid",
    )

    def __init__(
        self,
        sim: Simulator,
        bytes_per_us: float,
        name: str = "",
        kind: str = "link",
    ):
        if bytes_per_us <= 0:
            raise ValueError(f"link bandwidth must be positive, got {bytes_per_us}")
        self.sim = sim
        self.name = name or "link"
        #: Topology tier: "nic" (an endpoint hop — its death loses the
        #: messages endpointed there), "uplink", "spine", or "link".
        self.kind = kind
        #: False while the link is failed; a down link carries nothing
        #: (take-down evicts all occupancy) and no new flow starts on it.
        self.up = True
        self.bytes_per_us = bytes_per_us
        self.bytes_carried = 0
        self.flows_completed = 0
        self.flows_aborted = 0
        self.max_concurrency = 0
        #: Live fluid flows crossing this link (maintained by the fluid
        #: solver); the rate formula's denominator.
        self.fluid_flows = 0
        #: The route classes crossing this link, insertion-ordered
        #: (dict-as-set): the solver's affected-set walk and take-down
        #: eviction both iterate this, so a hash set here would feed the
        #: schedule from object addresses (RPR002).
        self._fluid: dict = {}

    # -- introspection ----------------------------------------------------
    @property
    def idle(self) -> bool:
        """True when no flow occupies this link — the capacity-leak
        check benches and tests assert after faults."""
        return self.fluid_flows == 0

    # -- fluid-flow membership (driven by the fluid solver) -----------------
    def fluid_enter(self) -> None:
        n = self.fluid_flows = self.fluid_flows + 1
        if n > self.max_concurrency:
            self.max_concurrency = n

    def fluid_exit(self) -> None:
        self.fluid_flows -= 1


class Uplink(Link):
    """An island uplink: a :class:`Link` that also logs when it is busy.

    Its :meth:`busy_fraction` is the congestion signal placement reads
    (:meth:`Fabric.uplink_utilization`).  A link is *busy* while at
    least one flow crosses it, so only the 0->1 and 1->0 flow-count
    transitions move the log.
    """

    __slots__ = ("_busy_since", "_busy_log")

    def __init__(self, sim: Simulator, bytes_per_us: float, name: str):
        super().__init__(sim, bytes_per_us, name=name, kind="uplink")
        #: Start of the current busy period (None while idle) plus the
        #: closed [start, end] busy intervals inside the window.
        self._busy_since: Optional[float] = None
        self._busy_log: Deque[list] = deque()

    def _close_busy(self) -> None:
        """Fold the busy period the last flow leaving just ended into
        the busy log, dropping intervals older than the window."""
        now = self.sim._now
        start, self._busy_since = self._busy_since, None
        if now <= start:
            return
        log = self._busy_log
        if log and start <= log[-1][1]:
            # Contiguous with (or overlapping) the previous interval —
            # merge so back-to-back flows cost one log entry.
            log[-1][1] = now
        else:
            log.append([start, now])
        horizon = now - UTIL_WINDOW_US
        while log and log[0][1] < horizon:
            log.popleft()

    def busy_fraction(self, now: Optional[float] = None) -> float:
        """Fraction of the trailing :data:`UTIL_WINDOW_US` this link
        carried traffic.

        The window is clamped to the elapsed simulation time, so an
        early query reports the fraction of time that actually passed.
        """
        if now is None:
            now = self.sim.now
        lo = max(0.0, now - UTIL_WINDOW_US)
        span = now - lo
        if span <= 0:
            return 1.0 if self._busy_since is not None else 0.0
        busy = 0.0
        for start, end in self._busy_log:
            busy += max(0.0, min(end, now) - max(start, lo))
        if self._busy_since is not None:
            busy += now - max(self._busy_since, lo)
        return min(1.0, busy / span)

    def fluid_enter(self) -> None:
        Link.fluid_enter(self)
        if self.fluid_flows == 1:
            self._busy_since = self.sim._now

    def fluid_exit(self) -> None:
        self.fluid_flows -= 1
        if not self.fluid_flows:
            self._close_busy()


class _Flow:
    """One fluid flow: identity and completion callback.  Its progress
    lives in the route class keyed by ``route`` (the parallel ``rem``
    buffer), or in closed form while it is the solver's solo flow.
    The flow holds the route tuple, not the class, so a dropped class
    and its members form no reference cycle and are freed without the
    cyclic garbage collector."""

    __slots__ = ("key", "route", "nbytes", "on_done", "seq")

    def __init__(self, key, route: tuple, nbytes: int, on_done, seq: int):
        self.key = key
        self.route = route
        self.nbytes = nbytes
        self.on_done = on_done
        #: Start order — the deterministic tie-break for same-instant
        #: completions and eviction reports.
        self.seq = seq


class _RouteClass:
    """Every live flow on one route tuple, progressing in lockstep.

    ``rem[i]`` is member ``flows[i]``'s remaining bytes as of ``at``;
    the members' projected finishes are ``at + max(rem[i], 0) / rate``.
    Only a rate change moves ``at`` or decrements ``rem``.  ``rem`` is
    non-decreasing: every member subtracts the same amount, and a
    newcomer is inserted after the members with no more bytes left.

    ``rem`` is one contiguous float64 buffer (``array('d')``), so
    :func:`_integrate` subtracts from every member in one in-place
    NumPy operation — elementwise IEEE subtraction, the very bits a
    per-member loop produces.
    """

    __slots__ = ("route", "cid", "flows", "rem", "rate", "at", "epoch", "ver")

    def __init__(self, route: tuple, cid: int, now: float):
        self.route = route
        #: Its first member's seq: the calendar tie-break between classes.
        self.cid = cid
        #: Members sorted by remaining bytes, and those bytes.
        self.flows: list[_Flow] = []
        self.rem = array("d")
        self.rate = 0.0
        #: Last time ``rem`` was integrated.
        self.at = now
        #: Solver bookkeeping: last affected-set epoch (dedup across a
        #: multi-link walk) and the completion-calendar entry version
        #: (lazy invalidation of superseded projections).
        self.epoch = 0
        self.ver = 0


_BY_SEQ = attrgetter("seq")
_FIRST = itemgetter(0)


def _integrate(cls: _RouteClass, now: float) -> None:
    """Advance every member of ``cls`` to ``now`` at its current rate.

    The NumPy view over ``rem`` lives only inside this call: an
    exported buffer cannot resize, and members join and leave between
    integrations.
    """
    elapsed = now - cls.at
    if elapsed > 0.0:
        view = np.frombuffer(cls.rem)
        view -= cls.rate * elapsed
        cls.at = now


class ScopedFluidSolver:
    """The fluid fair-share engine over route classes: O(affected
    classes) updates plus a completion calendar.

    A membership change re-rates only the classes that share a link
    with the changed route(s) — the only flows whose ``bandwidth /
    count`` inputs moved.  A class whose rate moved integrates all its
    members in one vectorized subtraction and pushes one versioned
    entry, keyed on its head finish, into a heap; superseded entries
    are invalidated lazily on contact, so the next-finish question is a
    heap peek instead of a min-scan.

    The per-flow arithmetic this replaces survives only as the
    recompute-everything reference in ``tests/oracles.py``; the
    solver-equivalence tests pin the two as byte-identical.
    """

    def __init__(self, fabric: "Fabric"):
        self.fabric = fabric
        self.sim = fabric.sim
        #: key -> flow, insertion-ordered = start order (RPR002: a hash
        #: set here would order completions by object address).
        self.flows: dict = {}
        #: route tuple -> live class; a class is dropped with its last
        #: member.
        self.classes: dict = {}
        self.seq = 0
        #: The one next-finish timer.  ``schedule()`` at an unchanged
        #: target is a seq-free no-op, so re-asserting it after every
        #: update consumes no sequence numbers.
        self.timer = self.sim.timer_handle(self._on_timer, name="net_next_finish")
        #: Observability (see ``FabricStats``).
        self.peak_flows = 0
        self.completed = 0
        self.membership_updates = 0
        self.flows_touched = 0
        self.rate_recomputes = 0
        self.epoch = 0
        #: Completion calendar: ``(head_finish, cid, ver, class)``
        #: entries; an entry is live while its version matches the
        #: class's current ``ver``.
        self.calendar: list = []
        #: The solo flow (one that started on an empty fabric and is
        #: still alone), its rate and its start instant: it holds no
        #: class until :meth:`_unsolo`.
        self.solo: Optional[_Flow] = None
        self._solo_rate = 0.0
        self._solo_at = 0.0

    # -- membership ------------------------------------------------------
    def start(self, key, route: list[Link], nbytes: int, on_done) -> None:
        now = self.sim._now
        self.seq += 1
        rkey = tuple(route)
        if not self.flows:
            self._start_solo(key, rkey, nbytes, on_done, now)
            return
        if self.solo is not None:
            self._unsolo()
        cls = self.classes.get(rkey)
        if cls is None:
            cls = self.classes[rkey] = _RouteClass(rkey, self.seq, now)
            for link in rkey:
                link._fluid[cls] = None
        else:
            # The join strictly lowers this class's rate (every route
            # link's count rises), so the walk below re-rates it: the
            # members integrate at the old rate before the newcomer
            # joins at full size.
            _integrate(cls, now)
        flow = _Flow(key, rkey, nbytes, on_done, self.seq)
        # Members stay sorted by remaining bytes; a newcomer goes after
        # any member with equal bytes.
        r = float(nbytes)
        i = bisect_right(cls.rem, r)
        cls.flows.insert(i, flow)
        cls.rem.insert(i, r)
        self.flows[key] = flow
        n = len(self.flows)
        if n > self.peak_flows:
            self.peak_flows = n
        for link in rkey:
            link.fluid_enter()
        self._membership_changed((rkey,), now)
        self._settle_timer(now)

    def _start_solo(self, key, rkey: tuple, nbytes: int, on_done, now: float) -> None:
        """Start a flow on an empty fabric.  It runs at its bottleneck
        link rate and finishes at ``now + nbytes / rate``: the very
        floats, counters and timer arm a fresh class's re-rate walk
        produces, with no class, buffer, link index or calendar entry."""
        flow = self.solo = _Flow(key, rkey, nbytes, on_done, self.seq)
        self.flows[key] = flow
        self.peak_flows = self.peak_flows or 1
        for link in rkey:
            link.fluid_enter()
        rate = self._solo_rate = min([hop.bytes_per_us / hop.fluid_flows for hop in rkey])
        self._solo_at = now
        self.membership_updates += 1
        self.epoch += 1
        self.flows_touched += 1
        self.rate_recomputes += 1
        finish = now + float(nbytes) / rate
        if finish > now:
            self.timer.schedule(finish)
        else:
            self._unsolo()
            self._run_completions(now)

    def _unsolo(self) -> None:
        """Give the solo flow the class and calendar entry the general
        path would hold for it: nothing moved since it started."""
        flow, self.solo = self.solo, None
        route = flow.route
        at = self._solo_at
        cls = self.classes[route] = _RouteClass(route, flow.seq, at)
        for link in route:
            link._fluid[cls] = None
        r = float(flow.nbytes)
        cls.flows.append(flow)
        cls.rem.append(r)
        rate = cls.rate = self._solo_rate
        cls.epoch = self.epoch
        cls.ver = 1
        heapq.heappush(self.calendar, (at + r / rate, cls.cid, 1, cls))

    def _finish_solo(self) -> None:
        """The general completion of a lone class, step for step."""
        flow, self.solo = self.solo, None
        del self.flows[flow.key]
        self.completed += 1
        nbytes = flow.nbytes
        for link in flow.route:
            link.fluid_exit()
            link.bytes_carried += nbytes
            link.flows_completed += 1
        # Its re-rate walk, which finds no class.
        self.membership_updates += 1
        self.epoch += 1
        flow.on_done()

    def abort(self, key) -> bool:
        flow = self.flows.pop(key, None)
        if flow is None:
            return False
        if flow is self.solo:
            self._unsolo()
        route = flow.route
        cls = self.classes[route]
        i = cls.flows.index(flow)
        del cls.flows[i]
        del cls.rem[i]
        for link in route:
            link.fluid_exit()
            link.flows_aborted += 1
        if not cls.flows:
            self._drop(cls)
        now = self.sim._now
        self._membership_changed((route,), now)
        self._settle_timer(now)
        return True

    def evict_crossing(self, link: Link) -> list[tuple[object, float]]:
        """Report every fluid flow crossing ``link``, in start order,
        with its exact remaining bytes (take-down eviction).  The caller
        aborts the victims afterwards.

        Remaining bytes are computed on the side: a class is never
        synced without a rate change, which keeps every stored
        projection bit-identical to the per-flow arithmetic.
        """
        if self.solo is not None:
            self._unsolo()
        now = self.sim._now
        victims = []
        for cls in link._fluid:
            elapsed = now - cls.at
            x = cls.rate * elapsed
            for flow, r in zip(cls.flows, cls.rem):
                if elapsed > 0.0:
                    r -= x
                victims.append((flow.seq, flow.key, r if r > 0.0 else 0.0))
        victims.sort(key=_FIRST)
        return [(key, r) for _, key, r in victims]

    def _drop(self, cls: _RouteClass) -> None:
        """An emptied class leaves the solver and every link's index."""
        del self.classes[cls.route]
        cls.ver += 1
        for link in cls.route:
            del link._fluid[cls]

    # -- completion ------------------------------------------------------
    def _on_timer(self, handle) -> None:
        if self.solo is not None:
            self._finish_solo()
        else:
            self._run_completions(self.sim._now)

    def _run_completions(self, now: float) -> None:
        due = self._collect_due(now)
        done: list[_Flow] = []
        while due:
            self.completed += len(due)
            flows = self.flows
            for flow in due:
                del flows[flow.key]
                nbytes = flow.nbytes
                for link in flow.route:
                    link.fluid_exit()
                    link.bytes_carried += nbytes
                    link.flows_completed += 1
            done += due
            self._membership_changed([f.route for f in due], now)
            # Survivors' rates only rose, so a projection can land on
            # ``now`` again (float dust): complete those too, this
            # instant, exactly like the historical synchronous path.
            due = self._collect_due(now)
        self._settle_timer(now)
        # Called back last, in completion order: the solver is settled
        # and its timer re-armed before any callback arms a timer.
        for flow in done:
            flow.on_done()

    def _settle_timer(self, now: float) -> None:
        """Re-arm the next-finish timer after any membership change."""
        if not self.flows:
            self.timer.cancel()
            # The last flow left the fabric: drop calendar garbage.
            self.calendar.clear()
            return
        best = self._min_finish()
        if best <= now:
            self._run_completions(now)
            return
        self.timer.schedule(best)

    def _membership_changed(self, routes, now: float) -> None:
        """Re-rate every class sharing a link with ``routes``."""
        self.membership_updates += 1
        epoch = self.epoch = self.epoch + 1
        touched = recomputes = 0
        cal = self.calendar
        push = heapq.heappush
        for route in routes:
            for link in route:
                for cls in link._fluid:
                    if cls.epoch == epoch:
                        continue
                    cls.epoch = epoch
                    touched += len(cls.flows)
                    recomputes += 1
                    rate = _NEVER
                    for hop in cls.route:
                        r = hop.bytes_per_us / hop.fluid_flows
                        if r < rate:
                            rate = r
                    if rate == cls.rate:
                        # A pure function of unchanged counts: every
                        # member keeps its projection bit for bit.
                        continue
                    _integrate(cls, now)
                    cls.rate = rate
                    head = cls.rem[0]
                    if head < 0.0:
                        head = 0.0
                    ver = cls.ver = cls.ver + 1
                    push(cal, (now + head / rate, cls.cid, ver, cls))
        self.flows_touched += touched
        self.rate_recomputes += recomputes
        if len(cal) > 64 and len(cal) > 4 * len(self.classes):
            # Compact: at most one entry per class is live; the rest is
            # superseded-projection garbage.  Values are untouched, so
            # this is schedule-neutral.
            live = [e for e in cal if e[2] == e[3].ver]
            heapq.heapify(live)
            self.calendar = live

    def _collect_due(self, now: float) -> list[_Flow]:
        """Pop every class whose head is due and split off its due
        members, a prefix of its sorted list (the projected finish is
        monotone in remaining bytes); returns them in start order (the
        same-instant completion tie-break)."""
        cal = self.calendar
        due: list[_Flow] = []
        pop = heapq.heappop
        while cal:
            head = cal[0]
            cls = head[3]
            if head[2] != cls.ver:
                pop(cal)
                continue
            if head[0] > now:
                break
            pop(cal)
            # The head is due; the due members are a prefix.
            flows, rem = cls.flows, cls.rem
            at, rate, n = cls.at, cls.rate, 1
            for r in islice(rem, 1, None):
                if at + (r if r > 0.0 else 0.0) / rate > now:
                    break
                n += 1
            if n < len(flows):
                due += flows[:n]
                del flows[:n], rem[:n]
                continue
            due += flows
            self._drop(cls)
        if len(due) > 1:
            due.sort(key=_BY_SEQ)
        return due

    def _min_finish(self) -> float:
        cal = self.calendar
        pop = heapq.heappop
        while cal:
            head = cal[0]
            if head[2] == head[3].ver:
                return head[0]
            pop(cal)
        # Unreachable while flows exist: every live class keeps one live
        # calendar entry (pushed on every rate change, and every
        # membership change moves its rate).
        return _NEVER


class Fabric:
    """Topology-aware link set with static two-tier routes.

    Links are created on first use from the config's bandwidth knobs, so
    islands added at runtime get fabric links with no registration step.
    Island uplinks are :class:`Uplink` links, the only ones with a busy
    log: :meth:`uplink_utilization` is the one reader.
    The fabric also runs the fluid fair-share engine
    (:meth:`start_flow` / :meth:`abort_flow`) the contended transport
    sends every message through.
    """

    def __init__(self, sim: Simulator, config: SystemConfig):
        self.sim = sim
        self.config = config
        if config.net_link_sharing != "fair":
            raise ValueError(
                "net_link_sharing must be 'fair', got "
                f"{config.net_link_sharing!r}"
            )
        if config.spine_paths < 1:
            raise ValueError(
                f"spine_paths must be >= 1, got {config.spine_paths}"
            )
        self._nic_tx: dict[int, Link] = {}
        self._nic_rx: dict[int, Link] = {}
        self._uplink_tx: dict[int, Uplink] = {}
        self._uplink_rx: dict[int, Uplink] = {}
        self._spines: list[Link] = []
        self._solver = ScopedFluidSolver(self)
        if sim.sanitize and sim.sanitizer is not None:
            sim.sanitizer.watch(self)

    # -- link accessors ----------------------------------------------------
    def _nic_tx_link(self, host_id: int) -> Link:
        link = self._nic_tx.get(host_id)
        if link is None:
            link = self._nic_tx[host_id] = Link(
                self.sim,
                self.config.dcn_bytes_per_us,
                name=f"nic_tx[h{host_id}]",
                kind="nic",
            )
        return link

    def _nic_rx_link(self, host_id: int) -> Link:
        link = self._nic_rx.get(host_id)
        if link is None:
            link = self._nic_rx[host_id] = Link(
                self.sim,
                self.config.dcn_bytes_per_us,
                name=f"nic_rx[h{host_id}]",
                kind="nic",
            )
        return link

    def nic_tx(self, host: "Host") -> Link:
        return self._nic_tx_link(host.host_id)

    def nic_rx(self, host: "Host") -> Link:
        return self._nic_rx_link(host.host_id)

    def uplink_tx(self, island_id: int) -> Uplink:
        link = self._uplink_tx.get(island_id)
        if link is None:
            link = self._uplink_tx[island_id] = Uplink(
                self.sim,
                self.config.net_island_uplink_bytes_per_us,
                f"uplink_tx[i{island_id}]",
            )
        return link

    def uplink_rx(self, island_id: int) -> Uplink:
        link = self._uplink_rx.get(island_id)
        if link is None:
            link = self._uplink_rx[island_id] = Uplink(
                self.sim,
                self.config.net_island_uplink_bytes_per_us,
                f"uplink_rx[i{island_id}]",
            )
        return link

    def spine_links(self) -> list[Link]:
        """The k parallel spine paths (built lazily on first use)."""
        if not self._spines:
            k = self.config.spine_paths
            self._spines = [
                Link(
                    self.sim,
                    self.config.net_spine_bytes_per_us,
                    # The single-path name stays "spine" so default-config
                    # schedules, stats keys, and goldens are unchanged.
                    name="spine" if k == 1 else f"spine[p{i}]",
                    kind="spine",
                )
                for i in range(k)
            ]
        return self._spines

    @property
    def spine(self) -> Link:
        """Spine path 0 (the whole spine when ``spine_paths == 1``)."""
        return self.spine_links()[0]

    # -- routing -----------------------------------------------------------
    def spine_path(self, src: "Host", dst: "Host", flow_seq: int) -> Optional[Link]:
        """ECMP: hash one flow onto a surviving spine path (None if all
        are down).  The hash is a seeded CRC of the flow identity —
        stable across runs and interpreters — and is
        taken over the *up* paths, so a failed path's flows rehash onto
        the survivors while flows on healthy paths keep their path."""
        spines = self.spine_links()
        if len(spines) == 1:
            return spines[0] if spines[0].up else None
        up = [link for link in spines if link.up]
        if not up:
            return None
        digest = zlib.crc32(
            b"%d:%d:%d:%d"
            % (self.config.net_ecmp_seed, src.host_id, dst.host_id, flow_seq)
        )
        return up[digest % len(up)]

    def route(
        self, src: "Host", dst: "Host", flow_seq: int = 0
    ) -> Optional[list[Link]]:
        """The route for one flow (loopback routes are empty).

        Down *endpoint* NICs are still returned — whether a dead NIC
        loses the message is the transport's call — but a cross-island
        route is only viable through live middle hops: ``None`` means no
        surviving path exists right now (an uplink on the only path is
        down, or every spine path is) and the flow should park until a
        restore.
        """
        if src is dst:
            return []
        if src.island_id == dst.island_id:
            return [self.nic_tx(src), self.nic_rx(dst)]
        up_tx = self.uplink_tx(src.island_id)
        up_rx = self.uplink_rx(dst.island_id)
        if not (up_tx.up and up_rx.up):
            return None
        spine = self.spine_path(src, dst, flow_seq)
        if spine is None:
            return None
        return [self.nic_tx(src), up_tx, spine, up_rx, self.nic_rx(dst)]

    # -- the fluid fair-share engine ----------------------------------------
    def start_flow(
        self, key, route: list[Link], nbytes: int, on_done: Callable[[], None]
    ) -> None:
        """Start one fluid flow across ``route``; ``on_done()`` runs
        inline once it has drained (before this returns for a zero-byte
        or empty-route flow), never for an aborted flow.

        ``on_done`` may arm timers but must not start or abort flows:
        it runs inside the solver's completion pass.  The flow
        progresses at the min over its links of ``bandwidth /
        flows_on_link``, maintained by the :class:`ScopedFluidSolver`
        (see the module docstring).
        """
        if nbytes <= 0 or not route:
            on_done()
            return
        self._solver.start(key, route, nbytes, on_done)

    def abort_flow(self, key) -> bool:
        """Remove one fluid flow, releasing its share on every link."""
        return self._solver.abort(key)

    # -- link faults ---------------------------------------------------------
    _LINK_NAME = re.compile(
        r"^(?:(nic_tx|nic_rx)\[h(\d+)\]|(uplink_tx|uplink_rx)\[i(\d+)\]"
        r"|spine(?:\[p(\d+)\])?)$"
    )

    def link_by_name(self, name: str) -> Link:
        """Resolve a link by its stable name, materializing it if needed.

        Accepts ``nic_tx[hN]`` / ``nic_rx[hN]`` / ``uplink_tx[iN]`` /
        ``uplink_rx[iN]`` / ``spine`` / ``spine[pN]`` — the links' own
        :attr:`Link.name` — so fault schedules can target
        links that have not carried traffic yet.
        """
        m = self._LINK_NAME.match(name)
        if m is None:
            raise KeyError(f"unknown link name {name!r}")
        nic_kind, host_id, up_kind, island_id, spine_idx = m.groups()
        if nic_kind == "nic_tx":
            return self._nic_tx_link(int(host_id))
        if nic_kind == "nic_rx":
            return self._nic_rx_link(int(host_id))
        if up_kind == "uplink_tx":
            return self.uplink_tx(int(island_id))
        if up_kind == "uplink_rx":
            return self.uplink_rx(int(island_id))
        idx = int(spine_idx) if spine_idx is not None else 0
        spines = self.spine_links()
        if idx >= len(spines):
            raise KeyError(
                f"spine path {idx} out of range (spine_paths={len(spines)})"
            )
        return spines[idx]

    def take_down(self, link: Link) -> list[tuple[object, float]]:
        """Fail one link, evicting every flow crossing it *exactly*.

        Flows with the link on their route are aborted (their share on
        every route link released).  Returns the evicted flow keys in
        deterministic (start-order) sequence, each with the flow's
        remaining bytes at eviction time.  The caller — the transport —
        decides each victim's fate: reroute, park, or lose.

        A downed link holds zero capacity by construction, so it is
        exempt from the drain-end ``LeakedCapacityError`` sweep until
        :meth:`restore_link`.
        """
        if not link.up:
            return []
        link.up = False
        victims = self._solver.evict_crossing(link)
        for key, _ in victims:
            self._solver.abort(key)
        return victims

    def restore_link(self, link: Link) -> bool:
        """Bring a downed link back up (False if it was not down)."""
        if link.up:
            return False
        link.up = True
        return True

    # -- introspection -----------------------------------------------------
    def links(self) -> list[Link]:
        return (
            list(self._nic_tx.values())
            + list(self._nic_rx.values())
            + list(self._uplink_tx.values())
            + list(self._uplink_rx.values())
            + list(self._spines)
        )

    @property
    def active_flows(self) -> int:
        return len(self._solver.flows)

    @property
    def idle(self) -> bool:
        """No flow anywhere on the fabric (capacity-leak invariant)."""
        return not self._solver.flows and all(link.idle for link in self.links())

    def busy_links(self) -> list[Link]:
        """Links carrying traffic.  Down links are exempt:
        take-down evicts all occupancy, so they hold zero capacity by
        construction until restored."""
        return [link for link in self.links() if link.up and not link.idle]

    def _sanitizer_problems(self) -> list[tuple[str, str]]:
        """Drain-end capacity invariant: every flow and route class
        gone, every link idle and indexing no class.

        A residual here is the network slot-leak — an abort path that
        failed to hand back a flow's share of link capacity, or a drop
        path that left an emptied class behind.
        """
        problems: list[tuple[str, str]] = []
        flows = self._solver.flows
        if flows:
            keys = ", ".join(repr(getattr(k, "name", k)) for k in flows)
            problems.append(
                (
                    "capacity",
                    f"fabric drained with {len(flows)} live fluid "
                    f"flow(s): {keys}",
                )
            )
        classes = self._solver.classes
        if classes:
            routes = ", ".join(
                "->".join(link.name for link in route) for route in classes
            )
            problems.append(
                (
                    "capacity",
                    f"fabric drained with {len(classes)} live route "
                    f"class(es): {routes}",
                )
            )
        indexed = [link.name for link in self.links() if link._fluid]
        if indexed:
            problems.append(
                (
                    "capacity",
                    f"{len(indexed)} fabric link(s) still index route "
                    f"classes at drain end: {', '.join(indexed)}",
                )
            )
        stuck = self.busy_links()
        if stuck:
            names = ", ".join(link.name for link in stuck[:8])
            more = "" if len(stuck) <= 8 else f" (+{len(stuck) - 8} more)"
            problems.append(
                (
                    "capacity",
                    f"{len(stuck)} fabric link(s) not idle at drain end: "
                    f"{names}{more}",
                )
            )
        return problems

    def stats(self):
        """Frozen fluid-solver snapshot (the unified ``repro.stats``
        protocol) — solver observability for benches and workloads."""
        from repro.stats import FabricStats

        s = self._solver
        t = s.timer
        links = self.links()
        return FabricStats(
            active_flows=len(s.flows),
            peak_concurrent_flows=s.peak_flows,
            flows_started=s.seq,
            flows_completed=s.completed,
            membership_updates=s.membership_updates,
            flows_touched=s.flows_touched,
            rate_recomputes=s.rate_recomputes,
            timer_rearms=t.rearms,
            timer_cancels=t.cancels,
            timer_fires=t.fires,
            links=len(links),
            links_down=sum(1 for link in links if not link.up),
            idle=self.idle,
        )

    def uplink_utilization(self, island_id: int) -> float:
        """Busier direction of one island's uplink pair (0.0..1.0).
        Slice binding and the serving replica set read this to prefer
        islands with idle uplinks."""
        now = self.sim.now
        return max(
            self.uplink_tx(island_id).busy_fraction(now),
            self.uplink_rx(island_id).busy_fraction(now),
        )
