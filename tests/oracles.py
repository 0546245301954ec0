"""Reference implementations the equivalence suites compare against.

The simulator runs one fluid solver
(:class:`repro.net.fabric.ScopedFluidSolver`) and one fault generator.
The simplest correct shape of each lives here, outside the package, with
no production path that selects it:

* :class:`DenseFluidSolver` — per-flow rates, every live flow
  recomputed on every membership change;
* :class:`RouteClassFluidSolver` — the route-class solver with no solo
  flow: a flow that starts on an empty fabric gets its route class and
  calendar entry at once, the reference for the solo path of
  :class:`repro.net.fabric.ScopedFluidSolver`;
* :func:`scalar_poisson_device_failures` — one scalar exponential draw
  per call and the dataclass-ordered sort, the reference for
  :meth:`repro.resilience.FaultSchedule.poisson_device_failures`.

* :func:`launch_processes` — PARALLEL dispatch with one generator
  ``Process`` per node (:func:`run_node`, with :func:`prep` gathering
  one completion Event per host in an ``AllOf``) and per data-moving
  edge (:func:`feed_node`, :func:`one_transfer`), the reference for
  the event chains of :mod:`repro.core.dispatch`.

* :class:`MailboxScheduler` — the island grant loop as one generator
  ``Process`` reading a mailbox, the reference for the callback state
  machine of :class:`repro.core.scheduler.IslandScheduler`.

* :class:`EagerFaultInjector` — one timer walking the whole fault
  schedule, delivering every fault through
  :meth:`RecoveryManager.inject` with one repair timeout each, the
  reference for the lazy :class:`repro.resilience.FaultInjector`; and
  :func:`fault_layout`, one loop over the schedule's events, the
  reference for the per-entry columns the lazy injector lays out.

* :func:`healthy_devices` — an island's healthy devices as one scan
  over its devices, and :func:`bind_choice`, the devices a slice bind
  picks from that list; the reference for the up flags behind
  :meth:`repro.hw.Island.healthy_at` and ``n_healthy``.

* :func:`graph_in_edges`, :func:`graph_predecessors` and
  :func:`graph_order` — a :class:`repro.plaque.ShardedGraph`'s in-edges,
  predecessors and smallest-ready-first topological order by scanning
  its edge list, and :func:`graph_reaches`, reachability by transitive
  closure; the references for the graph's per-node in-edge lists and
  its cycle probe.

* :func:`send_reliable` — one generator ``Process`` per reliable send,
  the reference for the callback chain of
  :meth:`repro.net.Transport.send_reliable`.

* :func:`request` — an Event for a :meth:`repro.sim.Resource.acquire`
  grant, with the timing of the retired ``Resource.request()``: what
  the generator drivers here ``yield`` to take a slot.

* :func:`patch_driver` — each ``ProgramExecution`` driven by one
  generator ``Process`` (:func:`run_execution`): controller passes,
  supervision and loss recovery inline (:func:`recover_and_replay`,
  with the generator :func:`recover_program`), ``done`` settled as an
  ``AllOf`` over the nodes' completion events without
  ``retry_on_failure`` and by the driver with it.  A SEQUENTIAL pass
  is :func:`dispatch_sequential`, one generator walking the nodes with
  a prep-barrier Event per node.  The reference for the callback
  driver and the SEQUENTIAL pass of :mod:`repro.core.dispatch`.

* :func:`patch_device_drain` — every device drains on its own, with
  its own FIFO and counters and one ``_on_phase_event`` callback per
  device per wait, a gang's kernel is one ``enqueue`` per device, each
  rendezvous arms a wire timeout and then a compute timeout
  (:class:`CollectiveRendezvous`), each host prep takes its own CPU
  slot and settles on its own callback, and each shard's HBM is one
  allocator call.  The reference for the lockstep lanes and
  gang-granular phases of :mod:`repro.hw.device`, :mod:`repro.hw.host`
  and :mod:`repro.core.object_store`.

* :class:`DirectDataParallelTrainer` — the Figure 12 step with no
  program: per island one generator ``Process`` puts kernels straight
  onto the island's representative device and sends each gradient
  chunk with a raw ``transport.send``; the reference for the
  one-program step of :class:`repro.models.DataParallelTrainer`.

``test_fluid_solver.py`` swaps the solver in (by patching
``repro.net.fabric.ScopedFluidSolver``) and asserts byte-identical
results; ``test_resilience.py`` compares the fault schedules event for
event; ``test_dispatch_chain.py`` patches
``ProgramExecution._launch`` with :func:`launch_processes` and compares
results and per-node completion times, and ``test_execution_driver.py``
runs random DAGs under random faults through both drivers;
``test_fault_fuzz.py`` runs random churn scenarios under both fault
injectors;
``test_scheduler_oracle.py`` runs random timed scripts against both
schedulers; ``test_net_transport.py`` runs random reliable sends under
endpoint crashes through both send paths; ``test_device_drain.py`` runs
random gangs under device and host faults through both drains;
``test_healthy_set.py`` probes healthy capacity and slice binds under
random faults against both; ``test_plaque.py`` draws random ``connect``
sequences against the graph references; ``test_models.py`` runs random
data-parallel steps with zero control costs through both trainers.  The
timer queue needs no oracle: :class:`repro.sim.TimerQueue`
is itself the plain ``(when, seq)`` heap, and ``test_timer_queue.py``
checks it against a sorted list of the live entries.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from collections import deque
from typing import Generator, Iterable, Optional

import numpy as np

import repro.core.executor as executor_module
import repro.hw.device as device_module
from repro.baselines import multi_controller
from repro.core import object_store, resource_manager
from repro.core.dispatch import (
    MAX_REMAP_ATTEMPTS,
    REMAP_US,
    RETRY_BACKOFF_US,
    DispatchMode,
    ExecutionAbandoned,
    ProgramExecution,
)
from repro.core.executor import NodeExecutor
from repro.core.ir import TransferRoute
from repro.core.object_store import MemorySpace, ObjectHandle, ShardedObjectStore
from repro.core.placement import DeviceGroup
from repro.core.scheduler import DeadlineExceeded, GangRequest
from repro.faults import unwrap_fault
from repro.hw.device import Device, DeviceFailure, Kernel
from repro.hw.host import Host, HostFailure
from repro.models import data_parallel
from repro.models.data_parallel import DataParallelResult, DataParallelTrainer
from repro.net import MessageLost
from repro.net.fabric import ScopedFluidSolver, _Flow as _ClassFlow, _RouteClass, _integrate
from repro.resilience import FaultEvent, FaultKind
from repro.sim import Event, Resource

__all__ = [
    "CollectiveRendezvous",
    "DenseFluidSolver",
    "DirectDataParallelTrainer",
    "EagerFaultInjector",
    "MailboxScheduler",
    "RouteClassFluidSolver",
    "bind_choice",
    "dispatch_once",
    "dispatch_sequential",
    "fault_layout",
    "feed_node",
    "healthy_devices",
    "launch_processes",
    "one_transfer",
    "patch_device_drain",
    "patch_driver",
    "prep",
    "recover_and_replay",
    "recover_program",
    "request",
    "run_execution",
    "run_node",
    "scalar_poisson_device_failures",
    "send_reliable",
]

_INF = float("inf")


def scalar_poisson_device_failures(
    mtbf_us: float,
    horizon_us: float,
    device_ids: Iterable[int],
    seed: int = 0,
    repair_us: float = 0.0,
) -> list[FaultEvent]:
    """Per-device exponential failure times, one ``rng.exponential``
    call per draw, sorted by :class:`FaultEvent`'s own ``(at_us,)``
    ordering."""
    rng = np.random.default_rng(seed)
    events: list[FaultEvent] = []
    for device_id in device_ids:
        t = float(rng.exponential(mtbf_us))
        while t < horizon_us:
            events.append(
                FaultEvent(t, FaultKind.DEVICE_FAILURE, device_id, repair_us)
            )
            if repair_us <= 0:
                break
            t += repair_us + float(rng.exponential(mtbf_us))
    return sorted(events)


def healthy_devices(island) -> list:
    """The island's devices that are up, in device order: one scan."""
    return [d for d in island.devices if not d.failed]


def bind_choice(rm, island, n: int) -> list:
    """The devices ``rm.bind_slice`` gives an ``n``-device slice on
    ``island``, picked from :func:`healthy_devices`."""
    healthy = healthy_devices(island)
    if n <= resource_manager.AGGREGATE_THRESHOLD and n <= len(healthy):
        offset = rm._cursor[island.island_id] % max(1, len(healthy) - n + 1)
        return healthy[offset : offset + n]
    reps = min(resource_manager.MAX_REPRESENTATIVES, len(healthy), n)
    base = rm._cursor.get(island.island_id, 0) % len(healthy)
    step = max(1, min(n, len(healthy)) // reps)
    devices = [healthy[(base + i * step) % len(healthy)] for i in range(reps)]
    seen: set[int] = set()
    return [d for d in devices if d.device_id not in seen and not seen.add(d.device_id)]


# -- ShardedGraph queries by scanning the edge list ---------------------------
def graph_in_edges(graph, node_id: int) -> list:
    """``node_id``'s in-edges: one scan of ``graph.edges()``."""
    return [e for e in graph.edges() if e.dst == node_id]


def graph_predecessors(graph, node_id: int) -> list[int]:
    """``node_id``'s distinct predecessors, ascending: one scan."""
    return sorted({e.src for e in graph.edges() if e.dst == node_id})


def graph_reaches(n_nodes: int, pairs: Iterable[tuple[int, int]]) -> list[set[int]]:
    """Transitive closure: ``reach[a]`` holds every node a path leaves
    ``a`` for (``a`` itself only through a cycle)."""
    reach: list[set[int]] = [set() for _ in range(n_nodes)]
    for a, b in pairs:
        reach[a].add(b)
    changed = True
    while changed:
        changed = False
        for a in range(n_nodes):
            grown = reach[a].union(*(reach[b] for b in reach[a]))
            if grown != reach[a]:
                reach[a] = grown
                changed = True
    return reach


def graph_order(graph) -> list[int]:
    """Topological order: repeatedly place the smallest node whose
    predecessors are all placed."""
    placed: list[int] = []
    left = set(range(graph.n_nodes))
    while left:
        nid = min(
            n for n in left if all(p in placed for p in graph_predecessors(graph, n))
        )
        placed.append(nid)
        left.remove(nid)
    return placed


class _Flow:
    """One fluid flow with its own rate, sync time and projection."""

    __slots__ = (
        "key", "route", "remaining", "nbytes", "on_done", "rate", "seq",
        "synced_at", "finish_at",
    )

    def __init__(self, key, route, nbytes: int, on_done, seq: int, now: float):
        self.key = key
        self.route = route
        self.remaining = float(nbytes)
        self.nbytes = nbytes
        self.on_done = on_done
        self.rate = 0.0
        #: Start order: the same-instant completion tie-break.
        self.seq = seq
        #: Last time ``remaining`` was integrated (only on rate changes).
        self.synced_at = now
        self.finish_at = _INF


class DenseFluidSolver:
    """Per-flow fair share, every live flow re-rated on every change.

    The same surface :class:`~repro.net.fabric.Fabric` uses of
    :class:`~repro.net.fabric.ScopedFluidSolver` — ``start``, ``abort``,
    ``evict_crossing``, the ``flows`` registry, the ``timer`` and the
    ``FabricStats`` counters — built from nothing but per-flow
    arithmetic: each flow keeps its own rate, sync time and remaining
    bytes, a membership change recomputes every live flow, and the next
    completion is a min-scan.  It shares no code with the production
    solver, so the equivalence suite compares route-class arithmetic
    against per-flow arithmetic.  It keeps no per-link index and no
    route classes (``classes`` stays empty for the drain-end sanitizer).
    """

    def __init__(self, fabric):
        self.sim = fabric.sim
        #: key -> flow, insertion-ordered = start order.
        self.flows: dict = {}
        self.classes: dict = {}
        self.seq = 0
        self.timer = self.sim.timer_handle(self._on_timer, name="net_next_finish")
        self.peak_flows = 0
        self.completed = 0
        self.membership_updates = 0
        self.flows_touched = 0
        self.rate_recomputes = 0

    # -- flow arithmetic -------------------------------------------------
    def _update_flow(self, flow: _Flow, now: float) -> bool:
        """Recompute one flow's rate; on change, integrate progress at
        the old rate and re-project completion."""
        self.rate_recomputes += 1
        rate = min(link.bytes_per_us / link.fluid_flows for link in flow.route)
        if rate == flow.rate:
            return False
        elapsed = now - flow.synced_at
        if elapsed > 0.0:
            flow.remaining -= flow.rate * elapsed
            flow.synced_at = now
        flow.rate = rate
        remaining = flow.remaining
        if remaining < 0.0:
            remaining = 0.0
        flow.finish_at = now + remaining / rate
        return True

    def _sync(self, flow: _Flow, now: float) -> float:
        """Integrate ``remaining`` up to ``now`` without a rate change;
        returns the clamped remaining bytes."""
        elapsed = now - flow.synced_at
        if elapsed > 0.0:
            flow.remaining -= flow.rate * elapsed
            flow.synced_at = now
        remaining = flow.remaining
        return remaining if remaining > 0.0 else 0.0

    def _membership_changed(self, now: float) -> None:
        self.membership_updates += 1
        self.flows_touched += len(self.flows)
        for flow in self.flows.values():
            self._update_flow(flow, now)

    # -- membership ------------------------------------------------------
    def start(self, key, route, nbytes: int, on_done) -> None:
        now = self.sim._now
        self.seq += 1
        self.flows[key] = _Flow(key, route, nbytes, on_done, self.seq, now)
        self.peak_flows = max(self.peak_flows, len(self.flows))
        for link in route:
            link.fluid_enter()
        self._membership_changed(now)
        self._settle_timer(now)

    def abort(self, key) -> bool:
        flow = self.flows.pop(key, None)
        if flow is None:
            return False
        for link in flow.route:
            link.fluid_exit()
            link.flows_aborted += 1
        now = self.sim._now
        self._membership_changed(now)
        self._settle_timer(now)
        return True

    def evict_crossing(self, link) -> list:
        now = self.sim._now
        return [
            (flow.key, self._sync(flow, now))
            for flow in self.flows.values()
            if link in flow.route
        ]

    # -- completion ------------------------------------------------------
    def _on_timer(self, handle) -> None:
        self._run_completions(self.sim._now)

    def _collect_due(self, now: float) -> list:
        # Registry order is start order: the completion tie-break.
        return [f for f in self.flows.values() if f.finish_at <= now]

    def _run_completions(self, now: float) -> None:
        due = self._collect_due(now)
        done = []
        while due:
            self.completed += len(due)
            for flow in due:
                del self.flows[flow.key]
                for link in flow.route:
                    link.fluid_exit()
                    link.bytes_carried += flow.nbytes
                    link.flows_completed += 1
            done += due
            self._membership_changed(now)
            due = self._collect_due(now)
        self._settle_timer(now)
        for flow in done:
            flow.on_done()

    def _settle_timer(self, now: float) -> None:
        if not self.flows:
            self.timer.cancel()
            return
        best = min(f.finish_at for f in self.flows.values())
        if best <= now:
            self._run_completions(now)
            return
        self.timer.schedule(best)


class RouteClassFluidSolver(ScopedFluidSolver):
    """:class:`~repro.net.fabric.ScopedFluidSolver` with ``start`` as
    it was before the solo path: every flow joins (or founds) its route
    class at once, so ``solo`` stays ``None`` and every abort, eviction
    and completion runs the general route-class code."""

    def start(self, key, route, nbytes: int, on_done) -> None:
        now = self.sim._now
        self.seq += 1
        rkey = tuple(route)
        cls = self.classes.get(rkey)
        if cls is None:
            cls = self.classes[rkey] = _RouteClass(rkey, self.seq, now)
            for link in rkey:
                link._fluid[cls] = None
        else:
            _integrate(cls, now)
        flow = _ClassFlow(key, rkey, nbytes, on_done, self.seq)
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


# -- PARALLEL dispatch, one generator Process per node and per edge ----------
def launch_processes(execution, feeds, nodes) -> None:
    """``ProgramExecution._launch`` as processes: one feeder per node in
    ``feeds``, then one per node in ``nodes``, each bootstrapped through
    the zero-delay FIFO."""
    for node in feeds:
        execution.sim.process(feed_node(execution, node))
    for node in nodes:
        execution.sim.process(run_node(execution, node))


def _prep_event(host, work_us: float) -> Event:
    done = Event(host.sim)

    def settle(exc) -> None:
        if exc is None:
            done.succeed_inline(None)
        else:
            done.fail(exc)

    host.prep_request(work_us, settle)
    return done


def prep(ex) -> Generator:
    """``NodeExecutor`` prep: one completion Event per host plus the
    allocation, gathered by an ``AllOf``."""
    group = ex.node.group
    fn = ex.node.computation
    per_host_us = ex.config.executor_prep_us + ex.config.host_launch_work_us
    host_events = [_prep_event(host, per_host_us) for host in group.hosts]
    handle, alloc_ready = ex.store.allocate(
        nbytes_per_shard=fn.output_nbytes_per_shard(),
        n_shards=group.n_logical,
        group=group,
        space=MemorySpace.HBM,
    )
    ex.output_handle = handle
    try:
        yield ex.sim.all_of(host_events + [alloc_ready])
    except BaseException:
        ex.store.discard(handle)
        ex.output_handle = None
        raise
    ex.prep_done = True


def run_node(execution, node) -> Generator:
    """Prep, submit, wait for the grant, enqueue, then the PCIe wait."""
    ex = execution._executors[node.node_id]
    try:
        prep_start = execution.sim.now
        yield from prep(ex)
        execution._trace_prep(node, prep_start)
        execution._attach_result_handles(node.node_id)
        scheduler, req = execution._submit(node)
        yield req.grant
    except Exception as exc:  # noqa: BLE001 - grant evicted / prep lost
        execution._node_lost(ex, exc)
        return
    ex.enqueue(gate=execution._gates.get(node.node_id))
    req.enqueued_ack.succeed(None)
    ex.all_kernels_done.add_callback(lambda ev: scheduler.complete(req))
    pcie = ex.pcie_cost_us()
    if pcie > 0:
        yield execution.sim.timeout(pcie)


def feed_node(execution, node) -> Generator:
    """Wait for every incoming transfer, then open the node's gate."""
    gate = execution._gates[node.node_id]
    transfers = [
        execution.sim.process(
            one_transfer(
                execution, spec, execution._executors[spec.src_node].all_kernels_done, node
            )
        )
        for spec in node.incoming
    ]
    try:
        yield execution.sim.all_of(transfers)
    except Exception as exc:  # noqa: BLE001 - producer lost
        if not gate.triggered:
            gate.fail(exc)
        return
    if not gate.triggered:
        gate.succeed(None)


def one_transfer(execution, spec, producer_done: Event, node) -> Generator:
    yield producer_done
    if spec.route is TransferRoute.LOCAL or spec.nbytes == 0:
        return
    src_group = execution.low.node(spec.src_node).group
    if spec.route is TransferRoute.ICI:
        per_shard = max(1, spec.nbytes // max(1, src_group.n_logical))
        yield execution.sim.timeout(
            src_group.island.ici.transfer_time_us(
                src_group.devices[0], node.group.devices[0], per_shard
            )
        )
    else:
        per_host = max(1, spec.nbytes // max(1, src_group.n_hosts_logical))
        yield execution.system.transport.send(
            src_group.hosts[0], node.group.hosts[0], per_host
        )


# -- the execution driver as one generator Process ---------------------------
def request(res: Resource) -> Event:
    """An Event that succeeds once ``res`` grants a slot.  An
    uncontended grant is already processed, so a process yielding it
    resumes inline; a contended grant settles through the loop."""
    ev = Event(res.sim)

    def on_grant() -> None:
        if queued:
            ev.succeed(res)
        else:
            ev.succeed_inline(res)

    queued = False
    res.acquire(on_grant)
    queued = True
    return ev


def send_reliable(transport, src, dst, nbytes, timeout_us=None, max_attempts=8) -> Event:
    """A send that retransmits after loss or timeout, as one process."""
    done = Event(transport.sim)

    def _proc() -> Generator:
        last: Optional[BaseException] = None
        for attempt in range(1, max_attempts + 1):
            try:
                yield transport.send(src, dst, nbytes, timeout_us=timeout_us)
            except MessageLost as exc:
                last = exc
                transport.retransmits += 1
                backoff = transport.config.net_retransmit_backoff_us
                if backoff > 0:
                    yield transport.sim.timeout(backoff)
                continue
            done.succeed(attempt)
            return
        done.fail(last)

    transport.sim.process(_proc())
    return done


def patch_driver(mp) -> None:
    """Drive every ``ProgramExecution`` by :func:`run_execution`
    (``mp`` is a ``pytest.MonkeyPatch``)."""
    mp.setattr(
        ProgramExecution, "start", lambda self: self.sim.process(run_execution(self))
    )
    mp.setattr(ProgramExecution, "_node_settled", lambda self, exc: None)


def _all_done(ex) -> list[Event]:
    return [node_ex.all_kernels_done for node_ex in ex._executors.values()]


def _mirror(barrier: Event, done: Event) -> None:
    def settle(ev: Event) -> None:
        if ev._exc is None:
            done.succeed(None)
        else:
            done.fail(ev._exc)

    barrier.add_callback(settle)


def run_execution(execution) -> Generator:
    """The driver: one pass over every node, then, with
    ``retry_on_failure``, wait for the nodes and recover and replay
    after each loss."""
    ex = execution
    if ex.mode is DispatchMode.PARALLEL and any(
        not node.computation.is_regular for node in ex.low.nodes
    ):
        ex.mode = DispatchMode.SEQUENTIAL
    if not ex.retry_on_failure:
        _mirror(ex.sim.all_of(_all_done(ex)), ex.done)
    failure = None
    try:
        yield from dispatch_once(ex, ex.low.nodes, first=True)
    except Exception as exc:  # noqa: BLE001 - sequential-mode loss
        if not ex.retry_on_failure:
            ex._abort_unsettled(exc)
            raise
        failure = exc
    ex.system.programs_dispatched += 1
    if not ex.handles_ready.triggered:
        ex.handles_ready.succeed(None)
    if not ex.retry_on_failure:
        return
    while True:
        if failure is None:
            try:
                yield ex.sim.all_of(_all_done(ex))
            except Exception as exc:  # noqa: BLE001 - loss triggers replay
                failure = exc
        if failure is None:
            ex.done.succeed(None)
            return
        for nid, node_ex in ex._executors.items():
            if nid not in ex._dispatched and not node_ex.all_kernels_done.triggered:
                node_ex.all_kernels_done.fail(failure)
        if (
            ex.attempts >= ex.max_attempts
            or ex.system.recovery is None
            or unwrap_fault(failure) is None
        ):
            ex.client.executions_abandoned += 1
            ex.done.fail(ExecutionAbandoned(ex.name, ex.attempts, failure))
            return
        cause, failure = failure, None
        try:
            yield from recover_and_replay(ex, cause)
        except Exception as exc:  # noqa: BLE001 - fresh fault or fatal
            if unwrap_fault(exc) is not None:
                failure = exc
            else:
                ex.client.executions_abandoned += 1
                ex.done.fail(ExecutionAbandoned(ex.name, ex.attempts, exc))
                return


def dispatch_once(ex, nodes, first: bool) -> Generator:
    """One controller pass, holding the controller thread throughout."""
    ex.attempts += 1
    cfg = ex.config
    hosts = ex.low.total_hosts_logical
    yield request(ex.client.controller)
    try:
        if ex.mode is DispatchMode.PARALLEL:
            yield ex.sim.timeout(
                cfg.coordinator_base_us
                + cfg.coordinator_work_per_host_us * hosts
                + cfg.cpp_dispatch_us * len(nodes)
                + cfg.coordinator_node_per_host_us * len(nodes) * hosts
            )
            yield ex.sim.timeout(cfg.dcn_latency_us)
            feeds = ex._wire_dataflow(nodes, seed_args=first)
            ex._dispatched.update(node.node_id for node in nodes)
            ex._launch(feeds, nodes)
        else:
            yield from dispatch_sequential(ex, nodes, seed_args=first)
    finally:
        ex.client.controller.release()


def _settle(ev: Event, exc: Optional[BaseException]) -> None:
    """A prep barrier's callback as one Event (sequential dispatch)."""
    if exc is None:
        ev.succeed(None)
    else:
        ev.fail(exc)


def dispatch_sequential(self, nodes, seed_args: bool = True) -> Generator:
    """The traditional single-controller model: every node is a
    standalone dispatch.  The controller cannot plan ahead (it
    behaves as if resource requirements only become known when the
    predecessor finishes), so per node it pays a full planning pass,
    ships the dispatch over DCN, waits for prep, enqueue, *and
    completion*, and only then turns to the next node."""
    self._launch(self._wire_dataflow(nodes, seed_args=seed_args), [])
    cfg = self.config
    for node in nodes:
        self._dispatched.add(node.node_id)
        ex = self._executors[node.node_id]
        controller_us = (
            cfg.coordinator_base_us
            + cfg.coordinator_work_per_host_us * node.group.n_hosts_logical
            + cfg.cpp_dispatch_us
        )
        yield self.sim.timeout(controller_us)
        yield self.sim.timeout(cfg.dcn_latency_us)  # controller -> host
        try:
            prep_start = self.sim.now
            prepped = self.sim.event()
            ex.prep(functools.partial(_settle, prepped))
            yield prepped
            self._trace_prep(node, prep_start)
            self._attach_result_handles(node.node_id)
            scheduler, req = self._submit(node)
            yield req.grant
        except Exception as exc:  # noqa: BLE001 - prep lost / grant evicted
            # Settle the node's completion event before propagating,
            # or the recovery quiesce would wait on it forever.
            self._node_lost(ex, exc)
            raise
        gate = self._gates.get(node.node_id)
        ex.enqueue(gate=gate)
        req.enqueued_ack.succeed(None)
        ex.all_kernels_done.add_callback(lambda ev, r=req, s=scheduler: s.complete(r))
        yield self.sim.timeout(ex.pcie_cost_us())
        # Stall: the controller waits for the computation itself (its
        # outputs define the "unknown" successor requirements) plus
        # the handle round trip.
        yield ex.all_kernels_done
        yield self.sim.timeout(cfg.dcn_latency_us)  # handles -> controller


def recover_program(self, execution) -> Generator:
    """Bring an execution's slices back onto healthy hardware
    (``self`` is the system's ``RecoveryManager``).

    Pays the detection latency once, then remaps every placement
    slice that lost a device, backing off while no healthy capacity
    exists (repair or preemption end will create some).  Raises
    ``RuntimeError`` after ``MAX_REMAP_ATTEMPTS`` backoffs.
    """
    yield self.sim.timeout(self.detection_us)
    slices = []
    seen: set[int] = set()
    for vslice in execution.low.source.placements.values():
        if vslice.slice_id not in seen:
            seen.add(vslice.slice_id)
            slices.append(vslice)
    rm = self.system.resource_manager
    for vslice in slices:
        on_draining = (
            vslice.bound
            and not vslice.needs_remap
            and rm.is_draining(vslice.group.island.island_id)
        )
        if vslice.bound and not vslice.needs_remap and not on_draining:
            continue
        if vslice.island_id is not None and rm.is_draining(vslice.island_id):
            # The pin names hardware that is going away; clients only
            # hold virtual device names, so recovery may migrate the
            # slice anywhere (the point of the indirection).
            vslice.repin(None)
        attempts = 0
        while True:
            try:
                rm.rebind_slice(vslice)
            except RuntimeError:
                attempts += 1
                if attempts >= MAX_REMAP_ATTEMPTS:
                    raise RuntimeError(
                        f"slice {vslice.slice_id}: no healthy capacity after "
                        f"{attempts} remap attempts"
                    )
                yield self.sim.timeout(RETRY_BACKOFF_US)
            else:
                self.remaps += 1
                yield self.sim.timeout(REMAP_US)
                break
    self.programs_recovered += 1


def recover_and_replay(ex, cause) -> Generator:
    """Quiesce, recover, re-lower, then replay the nodes the checkpoint
    does not cover."""
    yield ex.sim.all_settled(
        [ex._executors[nid].all_kernels_done for nid in sorted(ex._dispatched)]
    )
    yield from recover_program(ex.system.recovery, ex)
    ex.low = ex.client.lower(ex.low.source)
    ckpt = ex.checkpoint
    preserved = set()
    if ckpt is not None:
        cut = ckpt.last_checkpoint_us
        preserved = {nid for nid, t in ex._completed_at.items() if t <= cut}
    replay = [n for n in ex.low.nodes if n.node_id not in preserved]
    if ckpt is not None and replay:
        restore_us = ckpt.restore_cost_us()
        if restore_us > 0:
            yield ex.sim.timeout(restore_us)
    ex._dispatched = set(preserved)
    for node in replay:
        old = ex._executors.get(node.node_id)
        if old is not None and old.output_handle is not None and old.prep_done:
            ex.system.object_store.discard(old.output_handle)
        fresh = NodeExecutor(
            ex.sim, ex.config, ex.system.object_store, node, program=ex.low.name,
        )
        ex._executors[node.node_id] = fresh
        ex._completed_at.pop(node.node_id, None)
        ex._node_values.pop(node.node_id, None)
    yield from dispatch_once(ex, replay, first=False)


# -- the island grant loop as a generator reading a mailbox ------------------
class _Mailbox:
    """An unbounded FIFO with blocking ``get`` and a count of blocked
    getters."""

    def __init__(self, sim):
        self.sim = sim
        self.items: deque = deque()
        self.getters: deque = deque()

    def push(self, item) -> None:
        if self.getters:
            self.getters.popleft().succeed(item)
        else:
            self.items.append(item)

    def get(self) -> Event:
        if self.items:
            return self.sim.completed(self.items.popleft())
        ev = Event(self.sim)
        self.getters.append(ev)
        return ev


class MailboxScheduler:
    """``IslandScheduler`` as one generator ``Process`` on a mailbox.

    A control message is applied on delivery when the loop is parked on
    an empty mailbox with nothing pending, and queued otherwise; a
    submission always takes the mailbox hop.  Each deadline is a plain
    Timeout that fires even after the gang left pending.  The loop never
    finishes: run the simulator with ``detect_deadlock=False``.
    """

    def __init__(self, sim, config, policy):
        self.sim = sim
        self.config = config
        self.policy = policy
        self._incoming = _Mailbox(sim)
        self._pending: list[GangRequest] = []
        self._outstanding: dict[int, int] = {}
        self._live_grants: dict[int, tuple[int, ...]] = {}
        self.decisions = 0
        self.evictions = 0
        self.deadline_evictions = 0
        self.stale_completions = 0
        self.rejected_draining = 0
        self._paused = False
        self._draining = False
        self._drain_waiters: list[Event] = []
        sim.process(self._run(), name="mailbox-scheduler")

    def submit(self, client, program, node_label, cost_us=1.0, device_ids=(),
               deadline_at_us=None) -> GangRequest:
        req = GangRequest(
            client=client, program=program, node_label=node_label,
            grant=self.sim.event(), enqueued_ack=self.sim.event(),
            cost_us=cost_us, device_ids=tuple(device_ids),
            deadline_at_us=deadline_at_us, submitted_us=self.sim.now,
        )
        self._incoming.push(("req", req))
        if deadline_at_us is not None:
            delay = max(0.0, deadline_at_us - self.sim.now)
            self.sim.timeout(delay).add_callback(
                lambda ev, r=req: self._deliver("expire", r)
            )
        return req

    def complete(self, req) -> None:
        self._deliver("done", req)

    def evict_device(self, device_id) -> None:
        self._deliver("evict", device_id)

    def readmit_device(self, device_id) -> None:
        self._deliver("readmit", device_id)

    def pause(self) -> None:
        self._deliver("pause", None)

    def resume(self) -> None:
        self._deliver("resume", None)

    def drain(self) -> Event:
        drained = self.sim.event()
        self._deliver("drain", drained)
        return drained

    def undrain(self) -> None:
        self._deliver("undrain", None)

    @property
    def in_flight(self) -> int:
        return len(self._live_grants)

    def _deliver(self, kind, payload) -> None:
        if not self._pending and self._incoming.getters:
            self._apply(kind, payload)
        else:
            self._incoming.push((kind, payload))

    def _eligible(self, req) -> bool:
        depth = self.config.scheduler_queue_depth
        return all(self._outstanding.get(d, 0) < depth for d in req.device_ids)

    def _release(self, device_ids) -> None:
        for d in device_ids:
            remaining = self._outstanding.get(d, 0) - 1
            if remaining > 0:
                self._outstanding[d] = remaining
            else:
                self._outstanding.pop(d, None)

    def _purge_device(self, device_id) -> None:
        self._outstanding.pop(device_id, None)
        for seq, devices in list(self._live_grants.items()):
            if device_id in devices:
                del self._live_grants[seq]
                self._release(tuple(d for d in devices if d != device_id))

    def _apply(self, kind, payload) -> None:
        if kind == "evict":
            self._purge_device(payload)
            for req in [r for r in self._pending if payload in r.device_ids]:
                self._pending.remove(req)
                self.evictions += 1
                req.grant.fail(DeviceFailure(payload, f"evicted {req.node_label}"))
            self._check_drained()
        elif kind == "readmit":
            self._purge_device(payload)
            self._check_drained()
        elif kind == "req":
            if self._draining:
                self.rejected_draining += 1
                device = payload.device_ids[0] if payload.device_ids else -1
                payload.grant.fail(DeviceFailure(device, "draining"))
                return
            self._pending.append(payload)
        elif kind == "done":
            devices = self._live_grants.pop(payload.seq, None)
            if devices is None:
                self.stale_completions += 1
            else:
                self._release(devices)
            self._check_drained()
        elif kind == "expire":
            if payload in self._pending:
                self._pending.remove(payload)
                self.deadline_evictions += 1
                payload.grant.fail(
                    DeadlineExceeded(payload.node_label, payload.deadline_at_us)
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

    def _check_drained(self) -> None:
        if not self._draining or self._live_grants or self._pending:
            return
        waiters, self._drain_waiters = self._drain_waiters, []
        for ev in waiters:
            if not ev.triggered:
                ev.succeed(None)

    def _drain_incoming(self) -> None:
        while self._incoming.items:
            self._apply(*self._incoming.items.popleft())

    def _run(self) -> Generator:
        while True:
            kind, payload = yield self._incoming.get()
            self._apply(kind, payload)
            self._drain_incoming()
            while not self._paused and self._pending:
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
                choice.grant.succeed(None)
                yield choice.enqueued_ack
                self._drain_incoming()


class EagerFaultInjector:
    """Delivers a schedule to the recovery manager, every fault on a
    loop entry.

    One timer walks the schedule: each firing injects every fault due
    at that instant, then re-arms for the next.  The first firing is at
    the current instant, and takes the schedule as it stands then, so
    faults added before the run are delivered.
    """

    def __init__(self, recovery, schedule):
        self.recovery = recovery
        self.schedule = schedule
        self.injected: list[FaultEvent] = []
        #: Set while the timer is armed for the next fault: it is
        #: injected when the timer fires, without re-reading the clock.
        self._due = False
        sim = recovery.sim
        self._timer = sim.timer_handle(self._fire, name="fault-injector")
        self._timer.schedule(sim.now)

    def stop(self) -> None:
        """Cancel any not-yet-injected faults."""
        self._timer.cancel()

    def stats(self):
        from repro.stats import FaultInjectorStats

        by_kind: dict[str, int] = {}
        for event in self.injected:
            by_kind[event.kind.value] = by_kind.get(event.kind.value, 0) + 1
        return FaultInjectorStats(
            scheduled=len(self.schedule),
            injected=len(self.injected),
            remaining=len(self.schedule) - len(self.injected),
            injected_by_kind=by_kind,
        )

    def _fire(self, timer) -> None:
        sim = self.recovery.sim
        inject = self.recovery.inject
        record = self.injected.append
        events = self.schedule.events
        self.schedule._injecting = True
        due, self._due = self._due, False
        for i in range(len(self.injected), len(events)):
            event = events[i]
            if not due:
                delay = event.at_us - sim._now
                if delay > 0:
                    self._due = True
                    timer.schedule(sim._now + delay)
                    return
            due = False
            inject(event)
            record(event)
            tr = sim.tracer
            if tr is not None:
                tr.instant(
                    f"fault:{event.kind.value}",
                    "fault.injected",
                    track="faults",
                    args={
                        "kind": event.kind.value,
                        "target": event.link or event.target,
                        "repair_us": event.repair_us,
                    },
                )


def fault_layout(events, now: float, device_ids) -> tuple[list, list, int]:
    """Per event: the instant a timer walking the schedule from ``now``
    fires at, and whether it is always delivered eagerly (a device fault
    not on ``device_ids``, at or before its device's latest earlier
    repair end, after a permanent loss, or with a repair too short to
    move the clock); and the device fault holding the last transition,
    which is eager too."""
    shot, forced = [], []
    ends: dict = {}
    last, last_at = -1, -_INF
    t = now
    for i, event in enumerate(events):
        at = event.at_us
        if at - t > 0:
            t = t + (at - t)
        shot.append(t)
        forced.append(1)
        if event.kind is not FaultKind.DEVICE_FAILURE:
            continue
        end = t + event.repair_us if event.repair_us > 0 else _INF
        prev = ends.get(event.target)
        if event.target in device_ids and (prev is None or t > prev) and end > t:
            forced[i] = 0
        if prev is None or end > prev:
            ends[event.target] = end
        final = t if end == _INF else end
        if final >= last_at:
            last, last_at = i, final
    if last >= 0:
        forced[last] = 1
    return shot, forced, last


class CollectiveRendezvous:
    """The gang rendezvous with one timeout per phase: the wire timeout
    armed at the last join, which settles ``_done`` through the loop
    and arms the gang's compute timeout (the compute phase its joins
    bring), whose end settles ``compute_done`` through the loop too.
    Each participant waits out the compute phase on its own, once
    released.  The reference for
    :class:`repro.hw.device.CollectiveRendezvous`, whose release folds
    that compute phase in."""

    def __init__(
        self,
        sim,
        participants: int,
        duration_us: float,
        name: str = "",
        launch_us: float = 0.0,
    ):
        if participants < 1:
            raise ValueError("collective needs at least one participant")
        self.sim = sim
        self.name = name or "collective"
        self.expected = participants
        self.duration_us = duration_us
        self.launch_us = launch_us
        self.compute_us = 0.0
        self._joined = 0
        #: Set once the wire phase has completed: a later abort must not
        #: release the surviving peers' compute phase with a failure.
        self._wire_done = False
        self._done = sim.event()
        #: Settled at the end of the gang's compute phase.
        self.compute_done: Optional[Event] = None

    @property
    def aborted(self) -> bool:
        return self._done.triggered and not self._done.ok

    def join(self, compute_us: float) -> Event:
        self._joined += 1
        self.compute_us = compute_us
        if self.aborted:
            return self._done
        if self._joined > self.expected:
            raise RuntimeError(
                f"{self.name}: {self._joined} joins for {self.expected} participants"
            )
        if self._joined == self.expected:
            self.sim.timeout(self.launch_us + self.duration_us).add_callback(
                self._finish_wire
            )
        return self._done

    def _finish_wire(self, ev: Event) -> None:
        if self._done.triggered:
            return  # aborted during the wire phase
        self._wire_done = True
        if self.compute_us > 0:
            done = self.compute_done = self.sim.event()
            self.sim.timeout(self.compute_us).add_callback(lambda ev: done.succeed(None))
        self._done.succeed(None)

    def abort(self, cause: BaseException) -> None:
        if self._wire_done:
            return
        if not self._done.triggered:
            self._done.fail(cause)


class _PerDeviceDrain:
    """:class:`repro.hw.device.Device` draining on its own: its own
    FIFO and kernel counters, and one ``_on_phase_event``
    callback per device per wait (installed by
    :func:`patch_device_drain`).  Never part of a lane: it reads and
    writes the device's own drain state and nothing else."""

    kernels_run = 0
    kernels_aborted = 0

    def enqueue(self, kernel):
        if self.fault_clock is not None:
            self._touch()
        if self._failed:
            self._abort_kernel(kernel, DeviceFailure(self.device_id, "enqueue to failed device"))
            return kernel.done
        self._queue.append(kernel)
        if self._idle:
            self._idle = False
            self._drain_next()
        return kernel.done

    def fail(self, reason: str = "device failure") -> None:
        self._touch()
        if self._failed:
            return
        self._failed = True
        self._up[self._slot] = 0
        self.fail_count += 1
        self._waiting_on = None
        self._phase = None
        self._idle = False
        current, self._current = self._current, None
        queue = self._queue
        if current is None and not queue and not self.hbm.queue_len:
            return
        cause = DeviceFailure(self.device_id, reason)
        self.hbm.fail_waiters(cause)
        self._abort_kernel(current, cause)
        while queue:
            self._abort_kernel(queue.popleft(), cause)

    def restart(self) -> None:
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
        if self._current is not None:
            return f"running kernel {self._current.tag or 'kernel'!r}"
        if self._queue:
            return f"{len(self._queue)} queued kernel(s)"
        if self.hbm.queue_len:
            return f"{self.hbm.queue_len} HBM waiter(s)"
        if self.host is not None and self.host.failed:
            return f"host {self.host.name} down"
        return None

    def apply_idle_fault(self, down: bool) -> bool:
        if self._failed is down:
            return False
        self._failed = down
        if down:
            self._up[self._slot] = 0
            self.fail_count += 1
            self._idle = False
        else:
            self._up[self._slot] = 1
            self._idle = True
        return True

    def _abort_kernel(self, kernel, cause: BaseException) -> None:
        if kernel is None:
            return
        self.kernels_aborted += 1
        kernel.abort(cause)

    def _peer_fault(self, exc: BaseException) -> None:
        fault = unwrap_fault(exc)
        if fault is None:
            raise exc
        current, self._current = self._current, None
        self._abort_kernel(current, fault)
        self._drain_next()

    def _await(self, ev: Event, phase) -> bool:
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
        if self._failed:
            return
        if not self._queue:
            self._idle = True
            return
        kernel = self._queue.popleft()
        self._current = kernel
        gate = kernel.gate
        if gate is not None:
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
            self._start_us = self.sim.now + collective.launch_us
            join = collective.join(self._current.duration_us)
            if self._await(join, self._after_collective):
                return
            self._after_collective(join)
            return
        launch = self.config.kernel_launch_us
        if launch > 0:
            if self._await(self.sim.shared_timeout(launch), self._after_launch):
                return
        self._after_launch(None)

    def _after_launch(self, ev: Optional[Event]) -> None:
        kernel = self._current
        self._start_us = self.sim.now
        collective = kernel.collective
        if collective is not None:
            join = collective.join(self._current.duration_us)
            if self._await(join, self._after_collective):
                return
            self._after_collective(join)
        elif kernel.duration_us > 0:
            if self._await(self.sim.timeout(kernel.duration_us), self._complete):
                return
            self._complete(None)
        else:
            self._complete(None)

    def _after_collective(self, ev: Event) -> None:
        if ev._exc is not None:
            self._peer_fault(ev._exc)
            return
        compute_done = self._current.collective.compute_done
        if compute_done is not None:
            # The compute phase of its own, after the release.
            if self._await(compute_done, self._complete):
                return
        self._complete(None)

    def _complete(self, ev: Optional[Event]) -> None:
        kernel, self._current = self._current, None
        end = self.sim.now
        self.kernels_run += 1
        tr = self.sim.tracer
        if tr is not None:
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
            done.succeed_inline(None)
        self._drain_next()


def _fail_later(sim, on_done, cause: BaseException) -> None:
    ev = Event(sim)
    ev.callbacks.append(lambda ev: on_done(ev._exc))
    ev.fail(cause)


class _PrepState:
    """In-flight per-host prep: its own completion callback on the
    shared prep timeout, releasing the CPU and settling its one part."""

    __slots__ = ("host", "on_settled", "work_us", "holding", "settled")

    def __init__(self, host, on_settled, work_us: float):
        self.host = host
        self.on_settled = on_settled
        self.work_us = work_us
        self.holding = False
        self.settled = False

    def on_grant(self) -> None:
        host = self.host
        self.holding = True
        if self.work_us > 0:
            host.sim.shared_timeout(self.work_us).add_callback(self.on_done)
        else:
            self.on_done(None)

    def on_done(self, ev: Optional[Event]) -> None:
        if not self.holding:
            return
        self.holding = False
        host = self.host
        host._finish_prep(self)
        host.cpu.release()
        if not self.settled:
            self.settled = True
            self.on_settled(None)

    def abort(self, cause: BaseException) -> None:
        host = self.host
        host._finish_prep(self)
        if self.holding:
            self.holding = False
            host.cpu.release()
        if not self.settled:
            self.settled = True
            _fail_later(host.sim, self.on_settled, cause)


def _prep_request(host, work_us: float, on_done) -> None:
    """``Host.prep_request``: one :class:`_PrepState` per host."""
    if host.failed:
        _fail_later(host.sim, on_done, HostFailure(host.host_id, "prep on crashed host"))
        return
    state = _PrepState(host, on_done, work_us)
    host._live_preps[state] = None
    host.cpu.acquire(state.on_grant)  # repro: noqa[RPR005]


def _prep_hosts(hosts, work_us: float, on_parts) -> None:
    """``prep_hosts`` as one :func:`_prep_request` per host."""
    for host in hosts:
        host.prep_request(work_us, on_parts)


def _allocate(self, nbytes_per_shard, n_shards, group=None, space=MemorySpace.HBM):
    """``ShardedObjectStore.allocate`` with one ``HbmAllocator.alloc``
    per device, every grant recorded."""
    handle = ObjectHandle(
        object_id=next(object_store._object_ids),
        nbytes_total=nbytes_per_shard * n_shards,
        nbytes_per_shard=nbytes_per_shard,
        n_shards=n_shards,
        space=space,
        group=group,
    )
    self._objects[handle.object_id] = handle
    self.allocations += 1
    if space is MemorySpace.HBM:
        if group is None:
            raise ValueError("HBM allocation requires a device group")
        grants = [(dev, dev.hbm.alloc(nbytes_per_shard)) for dev in group.devices]
        self._hbm_grants[handle.object_id] = grants
        granted = self.sim.granted()
        if all(ev is granted for _, ev in grants):
            ready = granted
        else:
            ready = self.sim.all_of([ev for _, ev in grants])
    else:
        ready = self.sim.event()
        ready.succeed(None)
    return handle, ready


def _enqueue_gang(devices, kernel) -> None:
    """``enqueue_gang`` as one :meth:`Device.enqueue` per device."""
    for device in devices:
        device.enqueue(kernel)


def patch_device_drain(mp) -> None:
    """Run every device, rendezvous, host prep and HBM allocation the
    per-device way: :class:`_PerDeviceDrain` on ``Device``, one
    ``enqueue`` per device of a gang, this module's
    :class:`CollectiveRendezvous` wherever one is built, one
    :class:`_PrepState` callback per host and one allocator call per
    device, so no lane ever forms (``mp`` is a ``pytest.MonkeyPatch``)."""
    for name, attr in vars(_PerDeviceDrain).items():
        if not name.startswith("__"):
            mp.setattr(Device, name, attr, raising=False)
    mp.setattr(executor_module, "enqueue_gang", _enqueue_gang)
    for module in (
        device_module, executor_module, multi_controller, data_parallel,
    ):
        mp.setattr(module, "CollectiveRendezvous", CollectiveRendezvous)
    mp.setattr(Host, "prep_request", _prep_request)
    mp.setattr(
        Host, "_finish_prep", lambda host, state: host._live_preps.pop(state, None),
        raising=False,
    )
    mp.setattr(executor_module, "prep_hosts", _prep_hosts)
    mp.setattr(ShardedObjectStore, "allocate", _allocate)


class DirectDataParallelTrainer(DataParallelTrainer):
    """The Figure 12 step as direct kernels on one representative device
    per island, with raw DCN sends and no controller, scheduler, prep or
    program (the same constructor; it binds no slice)."""

    def __init__(self, system, *args, **kwargs):
        super().__init__(system, *args, **kwargs)
        self.islands = system.cluster.islands
        self.groups = [
            DeviceGroup.representative(isl, self.replica_cores) for isl in self.islands
        ]

    def _island_step(self, idx: int, transfers_done: list[Event]) -> Generator:
        sim = self.system.sim
        group = self.groups[idx]
        dev = group.devices[0]
        # Forward pass.
        fwd = Kernel(sim, duration_us=self.forward_time_us(), tag="fwd", program=f"dp{idx}")
        dev.enqueue(fwd)
        yield fwd.done
        # Backward in chunks; each finished chunk's gradients start
        # moving to the peer island immediately.
        k = len(self.islands)
        chunk_us = self.backward_time_us() / self.n_chunks
        per_chunk_bytes = self.grad_exchange_bytes(k) // self.n_chunks
        per_host_bytes = group.per_host_bytes(per_chunk_bytes)
        chunk_events: list[Event] = []
        for c in range(self.n_chunks):
            bwd = Kernel(sim, duration_us=chunk_us, tag=f"bwd{c}", program=f"dp{idx}")
            dev.enqueue(bwd)
            yield bwd.done
            if k > 1:
                peer = self.groups[(idx + 1) % k]
                chunk_events.append(
                    self.system.transport.send(
                        group.hosts[0], peer.hosts[0], per_host_bytes
                    )
                )
        if chunk_events:
            yield sim.all_of(chunk_events)
        transfers_done[idx].succeed(None)
        # Apply gradients once the *incoming* reduction is complete too.
        peer_idx = (idx - 1) % k
        if k > 1:
            yield transfers_done[peer_idx]
        apply = Kernel(sim, duration_us=self.apply_time_us(), tag="apply", program=f"dp{idx}")
        dev.enqueue(apply)
        yield apply.done

    def run(self, n_steps: int = 2) -> DataParallelResult:
        sim = self.system.sim
        start = sim.now
        for _ in range(n_steps):
            transfers_done = [
                sim.event(name=lambda i=i: f"grads{i}")
                for i in range(len(self.islands))
            ]
            procs = [
                sim.process(
                    self._island_step(i, transfers_done),
                    name=lambda i=i: f"dp_step{i}",
                )
                for i in range(len(self.islands))
            ]
            sim.run_until_triggered(sim.all_of(procs))
        step_us = (sim.now - start) / n_steps
        return DataParallelResult(
            step_time_us=step_us,
            tokens_per_second=self.batch_tokens * len(self.islands) / (step_us / 1e6),
            dcn_bytes_per_island=self.grad_exchange_bytes(len(self.islands)),
            exposed_us=max(0.0, step_us - self.step_compute_us()),
        )
