"""Sequential vs. parallel asynchronous dispatch (paper §4.5, Figure 4).

A :class:`ProgramExecution` runs one lowered program:

* **client/controller work** — per-program fan-out on the submitting
  client's serial controller thread (the single-controller cost that
  Figure 6 quantifies);
* **host-side prep** — executor preparation per node;
* **gang-scheduled enqueue** — per-island ordered kernel appends;
* **data movement** — ICI/DCN transfers between dependent nodes, gating
  successor kernels (head-of-line on the non-preemptible devices);
* **logical values** — real numpy results computed alongside the timing
  simulation.

Only the controller's planning differs between the two modes.  In
``PARALLEL`` mode, prep for *all* regular nodes runs concurrently and
the controller sends a single subgraph message per island.  In
``SEQUENTIAL`` mode (the Figure 4a strawman and the fallback for
irregular nodes), the controller walks the graph
(:class:`_SequentialPass`): node *k+1*'s dispatch begins only after
node *k* has completed and its output handles have travelled back over
DCN.  Either pass is a callback chain on the controller thread, and
either starts the same per-node event chain (:class:`_NodeChain`: prep
barrier, gang submit, grant, enqueue); each edge runs as another
(:class:`_Feed`, :class:`_Transfer`): callbacks, not generator
processes, because paper-scale sweeps dispatch hundreds of thousands of
nodes; so is a loss recovery (:class:`_Recovery`).  Either way, the
execution's one completion event is :attr:`ProgramExecution.done`.
"""

from __future__ import annotations

import functools
import itertools
from enum import Enum
from typing import Optional, TYPE_CHECKING

import numpy as np

from repro.core.executor import NodeExecutor
from repro.core.futures import PathwaysFuture
from repro.core.ir import LowLevelNode, LowLevelProgram, TransferRoute
from repro.core.object_store import MemorySpace, ObjectHandle
from repro.core.program import unflatten
from repro.core.scheduler import DeadlineExceeded
from repro.hw.device import unwrap_fault
from repro.sim import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import PathwaysSystem
    from repro.core.client import PathwaysClient
    from repro.config import SystemConfig

__all__ = ["DispatchMode", "ExecutionAbandoned", "ProgramExecution"]

#: Resource-manager work per slice remap during a loss recovery.
REMAP_US = 200.0
#: Wait between remap attempts while no healthy capacity exists (e.g.
#: during an island preemption).
RETRY_BACKOFF_US = 5_000.0
#: Remap attempts before a recovery gives the slice up as unplaceable.
MAX_REMAP_ATTEMPTS = 10_000


class ExecutionAbandoned(RuntimeError):
    """A retrying execution ran out of attempts (or had no recovery)."""

    def __init__(self, name: str, attempts: int, cause: BaseException):
        super().__init__(
            f"execution {name} abandoned after {attempts} attempt(s): {cause!r}"
        )
        self.attempts = attempts
        self.cause = cause

_exec_ids = itertools.count(1)


def controller_us(cfg: SystemConfig, n_nodes: int, hosts: int) -> float:
    """A PARALLEL controller pass: planning ``n_nodes`` nodes whose
    groups span ``hosts`` logical hosts, plus the per-node handle
    distribution to each of them."""
    return (
        cfg.coordinator_base_us
        + cfg.coordinator_work_per_host_us * hosts
        + cfg.cpp_dispatch_us * n_nodes
        + cfg.coordinator_node_per_host_us * n_nodes * hosts
    )


class DispatchMode(Enum):
    PARALLEL = "parallel"
    SEQUENTIAL = "sequential"


class ProgramExecution:
    """One run of a lowered program on behalf of a client."""

    def __init__(
        self,
        system: "PathwaysSystem",
        client: "PathwaysClient",
        low: LowLevelProgram,
        args: tuple[np.ndarray, ...],
        mode: DispatchMode = DispatchMode.PARALLEL,
        compute_values: bool = True,
        retry_on_failure: bool = False,
        max_attempts: int = 8,
        checkpoint=None,
        deadline_us: Optional[float] = None,
    ):
        self.system = system
        self.sim = system.sim
        self.config = system.config
        self.client = client
        self.low = low
        self.args = args
        self.mode = mode
        self.compute_values = compute_values
        #: Fault-tolerant mode: supervise node completion, and on a
        #: device loss recover (remap + re-lower) and replay lost nodes.
        #: Requires a :class:`~repro.resilience.RecoveryManager` attached
        #: to the system.
        self.retry_on_failure = retry_on_failure
        self.max_attempts = max_attempts
        #: Optional checkpoint cost model (duck-typed: needs
        #: ``last_checkpoint_us`` and ``restore_cost_us()``); nodes that
        #: completed before the last checkpoint are not replayed.
        self.checkpoint = checkpoint
        #: Grant deadline (absolute, measured from submission): every
        #: gang this execution submits must be granted by then or the
        #: island scheduler evicts it with
        #: :class:`~repro.core.scheduler.DeadlineExceeded`.
        self.deadline_at_us: Optional[float] = (
            self.sim.now + deadline_us if deadline_us is not None else None
        )
        self.attempts = 0
        #: True once any of this execution's gangs was evicted by the
        #: scheduler's deadline path — the typed signal (mirrored into
        #: ``client.deadline_rejections``) that spares callers from
        #: string-matching the failure cause.
        self.deadline_exceeded = False
        self.exec_id = next(_exec_ids)
        self.name = f"{low.name}#{self.exec_id}"

        #: Fires once the controller has enqueued everything and holds
        #: the output handles (what an OpByOp client waits for).
        self.handles_ready: Event = self.sim.event()
        #: Fires once every node of the current attempt has completed
        #: (with ``retry_on_failure``, not before the controller pass
        #: ends).  Fails with the first lost node's exception, or, with
        #: ``retry_on_failure``, only with :class:`ExecutionAbandoned`.
        self.done: Event = self.sim.event()
        #: Per-result futures (logical buffers in the object store).
        self.result_futures: list[PathwaysFuture] = []
        self._executors: dict[int, NodeExecutor] = {}
        self._node_values: dict[int, tuple[np.ndarray, ...]] = {}
        self._gates: dict[int, Event] = {}
        #: Completion time per node, for checkpoint-relative replay.
        self._completed_at: dict[int, float] = {}
        #: Nodes actually handed to the islands in the current attempt
        #: (sequential dispatch stops early on a failure; undispatched
        #: nodes have no in-flight work to quiesce).
        self._dispatched: set[int] = set()
        #: Nodes of the current attempt not yet completed.
        self._remaining = 0
        #: The current attempt's first loss (retry mode); cleared when
        #: the replay pass starts.
        self._loss: Optional[BaseException] = None
        #: A controller pass is running.
        self._in_pass = False
        self._span = None

        for node in low.nodes:
            self._executors[node.node_id] = NodeExecutor(
                self.sim,
                self.config,
                system.object_store,
                node,
                program=low.name,
            )

        for node_id, _ in low.source.results:
            handle = self._executors[node_id].output_handle  # None until prep
            fut = PathwaysFuture(
                handle if handle is not None else _placeholder_handle(node_id)
            )
            self.result_futures.append(fut)

    # -- public --------------------------------------------------------------
    def results(self):
        """Logical results, repacked into the user's return structure."""
        flat = [f.value() for f in self.result_futures]
        return unflatten(self.low.source.result_treedef, flat)

    # -- the controller-side driver -------------------------------------------
    def start(self) -> None:
        """Begin the first controller pass (``PathwaysClient.submit``).

        A PARALLEL pass is a callback chain: the controller grant, the
        planning timeout, the subgraph message's DCN timeout, then the
        node chains start and the controller is released.  A SEQUENTIAL
        pass is a callback chain too, one node at a time
        (:class:`_SequentialPass`), and so is a loss recovery
        (:class:`_Recovery`).  Until the first pass ends, and with
        ``retry_on_failure`` until :attr:`done` settles, the execution
        sits in the simulator's live-chain registry, so a pass that
        never ends is a :class:`~repro.sim.DeadlockError` at drain end.
        """
        # Parallel scheduling is only sound for regular compiled
        # functions; with any irregular node the controller cannot plan
        # ahead and falls back to the traditional model (paper §4.5).
        if self.mode is DispatchMode.PARALLEL and any(
            not node.computation.is_regular for node in self.low.nodes
        ):
            self.mode = DispatchMode.SEQUENTIAL
        tr = self.sim.tracer
        if tr is not None:
            self._span = tr.begin(  # repro: noqa[RPR007] closed when done settles
                f"exec:{self.name}",
                "dispatch.exec",
                track=f"client/{self.client.name}",
                trace_id=self.name,
                args={
                    "program": self.low.name,
                    "mode": self.mode.value,
                    "nodes": len(self.low.nodes),
                },
            )
        self.sim._live_chains[self] = None
        self._pass(self.low.nodes, first=True)

    def _pass(self, nodes: list[LowLevelNode], first: bool) -> None:
        """One controller pass over ``nodes`` (all of them on the first
        attempt; the lost subset on replays)."""
        self.attempts += 1
        self._loss = None
        self._remaining = len(nodes)
        self._in_pass = True
        # Released when the pass ends.
        self.client.controller.acquire(functools.partial(self._plan, nodes, first))  # repro: noqa[RPR005]

    def _plan(self, nodes: list[LowLevelNode], first: bool) -> None:
        """The controller thread is ours.  PARALLEL: one planning pass
        over the whole subgraph (the fan-out work Figure 6 measures),
        then one subgraph-describing message per island (minimizes
        traffic, paper §4.5).  SEQUENTIAL: one node at a time."""
        if self.mode is DispatchMode.SEQUENTIAL:
            self._launch(self._wire_dataflow(nodes, seed_args=first), [])
            _SequentialPass(self, nodes, first).next_node()
            return
        pass_us = controller_us(self.config, len(nodes), self.low.total_hosts_logical)
        self.sim.timeout(pass_us).add_callback(
            functools.partial(self._send_subgraph, nodes, first)
        )

    def _send_subgraph(self, nodes: list[LowLevelNode], first: bool, ev: Event) -> None:
        self.sim.timeout(self.config.dcn_latency_us).add_callback(
            functools.partial(self._hand_off, nodes, first)
        )

    def _hand_off(self, nodes: list[LowLevelNode], first: bool, ev: Event) -> None:
        """The subgraph message has landed: start the edge feeds and the
        node chains island-side, and release the controller thread
        without waiting for completions."""
        feeds = self._wire_dataflow(nodes, seed_args=first)
        self._dispatched.update(node.node_id for node in nodes)
        self._launch(feeds, nodes)
        self._pass_ended(first)

    def _launch(self, feeds: list[LowLevelNode], nodes: list[LowLevelNode]) -> None:
        """Start the edge feeds of ``feeds``, then the chains of ``nodes``."""
        for node in feeds:
            _Feed(self, node).start()
        for node in nodes:
            _NodeChain(self, node).start()

    def _pass_ended(self, first: bool, failure: Optional[BaseException] = None) -> None:
        """The controller pass is over: release the controller thread.
        ``failure`` is what stopped a sequential pass early."""
        self.client.controller.release()
        self._in_pass = False
        if first:
            if failure is not None and not self.retry_on_failure:
                # Settle every externally-visible event, so non-resilient
                # waiters (OpByOp clients on handles_ready, run_and_wait
                # on done) observe the failure instead of wedging forever.
                self._abort_unsettled(failure)
            else:
                self.system.programs_dispatched += 1
                self._settle_handles_ready(None)
        if self.retry_on_failure:
            if failure is not None and self._loss is None:
                self._loss = failure
            self._supervise()
        self._retire_if_idle()

    def _settle_handles_ready(self, exc: Optional[BaseException]) -> None:
        """Settle :attr:`handles_ready`: through the loop when something
        waits on it (an OpByOp client), inline at no cost otherwise."""
        ev = self.handles_ready
        if ev.triggered:
            return
        if exc is None:
            (ev.succeed if ev.callbacks else ev.succeed_inline)(None)
        else:
            (ev.fail if ev.callbacks else ev.fail_inline)(exc)

    def _supervise(self) -> None:
        """Retry mode, no pass running: settle :attr:`done`, or recover
        (remap + re-lower) and replay the lost nodes.  While a recovery
        runs, ``_loss`` stays set, so the failed attempt's other losses
        do not start another."""
        loss = self._loss
        if loss is None:
            if self._remaining == 0:
                self._settle_done(None)
            return
        # Nodes the failed pass never dispatched will not settle on their
        # own; fail them so the feeds waiting on them leave the live-chain
        # registry (``_loss`` is set, so this starts no other recovery).
        for nid, ex in self._executors.items():
            if nid not in self._dispatched and not ex.all_kernels_done.triggered:
                ex.all_kernels_done.fail(loss)
        if (
            self.attempts >= self.max_attempts
            or self.system.recovery is None
            or unwrap_fault(loss) is None
        ):
            # Out of budget, no recovery attached, or the loss is not a
            # hardware fault at all (e.g. DeadlineExceeded — replaying
            # would just expire again): abandon.
            self.client.executions_abandoned += 1
            self._settle_done(ExecutionAbandoned(self.name, self.attempts, loss))
            return
        _Recovery(self).start(loss)

    def _settle_done(self, exc: Optional[BaseException]) -> None:
        """Settle :attr:`done` and close the ``exec:`` span."""
        if exc is None:
            self.done.succeed(None)
        else:
            self.done.fail(exc)
        self._retire_if_idle()
        if self._span is not None:
            self.sim.tracer.end(self._span)

    def _retire_if_idle(self) -> None:
        """Leave the live-chain registry: the execution is live while a
        pass runs and, with ``retry_on_failure``, until :attr:`done`
        settles."""
        if not self._in_pass and (self.done.triggered or not self.retry_on_failure):
            self.sim._live_chains.pop(self, None)

    def _submit(self, node: LowLevelNode):
        """Hand a prepped node to its island's gang scheduler."""
        scheduler = self.system.scheduler_for(node.group.island)
        req = scheduler.submit(
            client=self.client.name,
            program=self.low.name,
            node_label=f"{self.name}:{node.label}",
            cost_us=node.compute_time_us,
            device_ids=node.group.device_ids,
            deadline_at_us=self.deadline_at_us,
        )
        return scheduler, req

    def _node_lost(self, ex: NodeExecutor, exc: BaseException) -> None:
        """Prep lost or grant evicted: settle the node's completion
        event so supervisors observe the loss instead of waiting forever."""
        self._note_deadline(exc)
        if not ex.all_kernels_done.triggered:
            ex.all_kernels_done.fail(exc)

    def _trace_prep(self, node: LowLevelNode, start_us: float) -> None:
        """Emit the host-side prep span; ``args["exec"]`` is the join key
        the critical-path analyzer uses to attribute prep to a served
        request's batch execution."""
        tr = self.sim.tracer
        if tr is not None:
            tr.complete(
                f"prep:{node.label}",
                "dispatch.prep",
                start_us,
                self.sim.now,
                track=f"client/{self.client.name}",
                trace_id=self.name,
                args={"exec": self.name, "node": node.label},
            )

    # -- dataflow wiring ----------------------------------------------------
    def _wire_dataflow(
        self, nodes: list[LowLevelNode], seed_args: bool = True
    ) -> list[LowLevelNode]:
        """Create gates for inter-node edges; returns the nodes that have
        incoming edges, for :meth:`_launch` to start their feeds.

        On replay attempts ``nodes`` is the lost subset: their gates and
        transfers are rebuilt against the (possibly pre-triggered)
        completion events of preserved producers.
        """
        feeds = [node for node in nodes if node.incoming]
        for node in feeds:
            self._gates[node.node_id] = self.sim.event()
        # Arg values seed the logical evaluation.
        if seed_args and self.compute_values:
            arg_nodes = self.low.source.arg_nodes
            for arg_node, value in zip(arg_nodes, self.args):
                self._node_values[arg_node] = (np.asarray(value),)
        # Node completion triggers value computation + refcount release.
        for node in nodes:
            self._executors[node.node_id].all_kernels_done.add_callback(
                functools.partial(self._on_node_done, node)
            )
        return feeds

    # -- completion bookkeeping ----------------------------------------------
    def _on_node_done(self, node: LowLevelNode, ev: Event) -> None:
        exc = ev._exc
        if exc is None:
            # A lost node has no values and no releases: the replay path
            # rebuilds it.
            self._record_completion(node)
        self._node_settled(exc)

    def _record_completion(self, node: LowLevelNode) -> None:
        self._completed_at[node.node_id] = self.sim.now
        self.system.computations_executed += 1
        if self.compute_values and node.computation.fn is not None:
            args = []
            ok = True
            # In-edges pre-sorted by dst_input at lowering time.
            for edge in self.low.sorted_in_edges[node.node_id]:
                vals = self._node_values.get(edge.src)
                if vals is None:
                    ok = False
                    break
                args.append(vals[edge.src_output])
            if ok:
                self._node_values[node.node_id] = node.computation.execute(*args)
        # Resolve any result futures fed by this node.
        if node.node_id in self.low.result_feeders:
            for fut, (src, out_idx) in zip(
                self.result_futures, self.low.source.results
            ):
                if src == node.node_id and not fut.is_ready:
                    vals = self._node_values.get(node.node_id)
                    fut.resolve(vals[out_idx] if vals is not None else None)
        # Intermediate outputs: drop the executor's reference once every
        # consumer has finished (successor map precomputed at lowering).
        consumers = self.low.consumers[node.node_id]
        handle = self._executors[node.node_id].output_handle
        if handle is None:
            return
        feeds_result = node.node_id in self.low.result_feeders
        if not consumers and not feeds_result:
            if not handle.freed:
                self.system.object_store.release(handle)
        elif consumers:
            # Single consumer (chains): watch its completion directly —
            # no barrier event needed.
            if len(consumers) == 1:
                remaining: Event = self._executors[consumers[0].node_id].all_kernels_done
            else:
                remaining = self.sim.all_of(
                    [self._executors[c.node_id].all_kernels_done for c in consumers]
                )
            remaining.add_callback(
                lambda ev, h=handle, fr=feeds_result: (
                    None if fr or h.freed else self.system.object_store.release(h)
                )
            )

    def _node_settled(self, exc: Optional[BaseException]) -> None:
        """Count one node of the current attempt in, or record its loss."""
        if exc is None:
            self._remaining -= 1
            if self._remaining == 0 and not (self.retry_on_failure and self._in_pass):
                self._settle_done(None)
        elif not self.retry_on_failure:
            if not self.done.triggered:
                self._settle_done(exc)
        elif self._loss is None:
            # Handled now, or when the running pass ends.  The attempt's
            # later losses, during the pass or the recovery, join this one.
            self._loss = exc
            if not self._in_pass:
                self._supervise()

    def _note_deadline(self, exc: BaseException) -> None:
        """Record a deadline eviction as a typed per-client rejection.

        Counted once per execution even when several of its gangs expire
        (each node submits its own gang against the shared deadline).
        """
        if isinstance(exc, DeadlineExceeded) and not self.deadline_exceeded:
            self.deadline_exceeded = True
            self.client.deadline_rejections += 1

    # -- failure recovery -----------------------------------------------------
    def _abort_unsettled(self, exc: BaseException) -> None:
        """Fail every not-yet-settled completion event of this execution
        (fatal non-retry loss: in-flight nodes have settled or will via
        kernel aborts; undispatched nodes never will on their own)."""
        self._settle_handles_ready(exc)
        for ex in self._executors.values():
            if not ex.all_kernels_done.triggered:
                ex.all_kernels_done.fail(exc)

    def _replay(self, nodes: list[LowLevelNode], preserved: set[int]) -> None:
        """Give ``nodes`` fresh executors and re-dispatch them; the
        ``preserved`` nodes keep their results."""
        self._dispatched = set(preserved)
        for node in nodes:
            old = self._executors.get(node.node_id)
            if (
                old is not None
                and old.output_handle is not None
                and old.prep_done
            ):
                # The lost attempt's output buffer: its HBM reservation
                # is returned so surviving gang devices don't leak.
                self.system.object_store.discard(old.output_handle)
            self._executors[node.node_id] = NodeExecutor(
                self.sim,
                self.config,
                self.system.object_store,
                node,
                program=self.low.name,
            )
            self._completed_at.pop(node.node_id, None)
            self._node_values.pop(node.node_id, None)
        self._pass(nodes, first=False)

    def _attach_result_handles(self, node_id: int) -> None:
        """Point result futures at the now-allocated output handles."""
        handle = self._executors[node_id].output_handle
        if handle is None:
            return
        for fut, (src, _) in zip(self.result_futures, self.low.source.results):
            if src == node_id:
                fut.handle = handle

    def release_results(self) -> None:
        """Client drops its result references (driver loops call this)."""
        released: set[int] = set()
        for fut in self.result_futures:
            h = fut.handle
            if h is not None and not h.freed and h.object_id not in released:
                released.add(h.object_id)
                self.system.object_store.release(h)


class _SequentialPass:
    """A SEQUENTIAL controller pass (Figure 4a), as a callback chain.

    The controller cannot plan ahead (it behaves as if resource
    requirements only become known when the predecessor finishes), so
    per node it pays a full planning pass, ships the dispatch over DCN
    and starts the node's :class:`_NodeChain`; once the chain has
    enqueued the node, it waits out the PCIe writes, *the node's
    completion* and the handles' trip back over DCN, and only then
    turns to the next node.  A lost node ends the pass with its failure.
    """

    __slots__ = ("execution", "nodes", "first")

    def __init__(self, execution: ProgramExecution, nodes: list[LowLevelNode], first: bool):
        self.execution = execution
        self.nodes = iter(nodes)
        self.first = first

    def next_node(self, ev: Optional[Event] = None) -> None:
        execution = self.execution
        node = next(self.nodes, None)
        if node is None:
            execution._pass_ended(self.first)
            return
        execution._dispatched.add(node.node_id)
        cfg = execution.config
        controller_us = (
            cfg.coordinator_base_us
            + cfg.coordinator_work_per_host_us * node.group.n_hosts_logical
            + cfg.cpp_dispatch_us
        )
        chain = _NodeChain(execution, node, self)
        # Plan the node, then ship its dispatch to the hosts over DCN.
        execution.sim.timeout(controller_us).add_callback(
            lambda ev: execution.sim.timeout(cfg.dcn_latency_us).add_callback(chain.start)
        )

    def enqueued(self, ex: NodeExecutor) -> None:
        """The chain enqueued the node: wait out the PCIe writes, then
        stall on the computation itself (its outputs define the
        "unknown" successor requirements)."""
        self.execution.sim.timeout(ex.pcie_cost_us()).add_callback(
            lambda ev: ex.all_kernels_done.add_callback(self.node_done)
        )

    def node_done(self, ev: Event) -> None:
        if ev._exc is not None:
            self.lost(ev._exc)
            return
        execution = self.execution
        # The output handles travel back to the controller.
        execution.sim.timeout(execution.config.dcn_latency_us).add_callback(self.next_node)

    def lost(self, exc: BaseException) -> None:
        self.execution._pass_ended(self.first, exc)


class _Recovery:
    """The ``retry_on_failure`` path (the paper's operability story), as
    a callback chain:

    1. quiesce — a countdown over every dispatched node of the failed
       attempt, until each has settled (gang peers release via
       collective abort);
    2. detect — the :class:`~repro.resilience.RecoveryManager`'s
       detection latency;
    3. remap — every placement slice that lost a device (or sits on a
       draining island) is rebound onto surviving hardware, backing off
       while no healthy capacity exists, then pays the remap time;
    4. re-lower — placement versions bumped by the remap make the
       client's lowering cache re-lower onto the new binding;
    5. replay — after the checkpoint's restore time, nodes it does not
       cover get fresh executors and are re-dispatched; checkpointed
       nodes keep their results.

    A fresh fault or a fatal error while remapping (no healthy capacity
    after ``MAX_REMAP_ATTEMPTS`` backoffs) goes back through the attempt
    budget.  The execution stays in the live-chain registry throughout.
    """

    __slots__ = ("execution", "recovery", "waiting", "slices", "vslice", "attempts")

    def __init__(self, execution: ProgramExecution):
        self.execution = execution
        self.recovery = execution.system.recovery

    def start(self, cause: BaseException) -> None:
        execution = self.execution
        tr = execution.sim.tracer
        if tr is not None:
            tr.instant(
                f"replay:{execution.name}",
                "resilience.replay",
                track=f"client/{execution.client.name}",
                trace_id=execution.name,
                args={"attempt": execution.attempts, "cause": type(cause).__name__},
            )
        self.waiting = 1
        for nid in sorted(execution._dispatched):
            callbacks = execution._executors[nid].all_kernels_done.callbacks
            if callbacks is not None:
                self.waiting += 1
                callbacks.append(self.settled)
        self.settled(None)

    def settled(self, ev: Optional[Event]) -> None:
        self.waiting -= 1
        if self.waiting == 0:
            self.execution.sim.timeout(self.recovery.detection_us).add_callback(
                self.detected
            )

    def detected(self, ev: Event) -> None:
        placements = self.execution.low.source.placements.values()
        self.slices = iter({s.slice_id: s for s in placements}.values())
        self.next_slice()

    def next_slice(self, ev: Optional[Event] = None) -> None:
        rm = self.execution.system.resource_manager
        for vslice in self.slices:
            if vslice.bound and not vslice.needs_remap and not rm.is_draining(
                vslice.group.island.island_id
            ):
                continue
            if vslice.island_id is not None and rm.is_draining(vslice.island_id):
                # The pin names hardware that is going away; clients only
                # hold virtual device names, so recovery may migrate the
                # slice anywhere (the point of the indirection).
                vslice.repin(None)
            self.vslice, self.attempts = vslice, 0
            self.rebind()
            return
        self.recovery.programs_recovered += 1
        self.relower()

    def rebind(self, ev: Optional[Event] = None) -> None:
        sim = self.execution.sim
        try:
            self.execution.system.resource_manager.rebind_slice(self.vslice)
        except RuntimeError:
            self.attempts += 1
            if self.attempts >= MAX_REMAP_ATTEMPTS:
                self.failed(RuntimeError(
                    f"slice {self.vslice.slice_id}: no healthy capacity after "
                    f"{self.attempts} remap attempts"
                ))
            else:
                sim.timeout(RETRY_BACKOFF_US).add_callback(self.rebind)
            return
        except Exception as exc:  # noqa: BLE001 - fatal: abandon
            self.failed(exc)
            return
        self.recovery.remaps += 1
        sim.timeout(REMAP_US).add_callback(self.next_slice)

    def failed(self, exc: BaseException) -> None:
        execution = self.execution
        execution._loss = exc
        execution._supervise()

    def relower(self) -> None:
        execution = self.execution
        # Same node ids: lowering is deterministic over the same source.
        execution.low = execution.client.lower(execution.low.source)
        ckpt = execution.checkpoint
        preserved: set[int] = set()
        if ckpt is not None:
            cut = ckpt.last_checkpoint_us
            preserved = {nid for nid, t in execution._completed_at.items() if t <= cut}
        replay = [n for n in execution.low.nodes if n.node_id not in preserved]
        restore_us = ckpt.restore_cost_us() if ckpt is not None and replay else 0.0
        if restore_us > 0:
            execution.sim.timeout(restore_us).add_callback(
                lambda ev: execution._replay(replay, preserved)
            )
        else:
            execution._replay(replay, preserved)


class _NodeChain:
    """One node of a dispatch, as an event chain.

    prep barrier -> gang submit -> grant -> enqueue, each step a
    callback of the one before: no generator, no Process, no per-host
    completion Event.  Success runs inline at the instant its input
    lands; a lost prep or an evicted grant fails the node's
    ``all_kernels_done`` (the retry path's loss signal).  A chain
    started by a :class:`_SequentialPass` tells it when the node is
    enqueued or lost.  Until the kernels are enqueued or the node is
    lost, the chain sits in the simulator's live-chain registry, so a
    prep or grant that never settles is a
    :class:`~repro.sim.DeadlockError` at drain end.
    """

    __slots__ = ("execution", "node", "ex", "seq", "prep_start", "scheduler", "req")

    def __init__(
        self, execution: ProgramExecution, node: LowLevelNode, seq: Optional[_SequentialPass] = None
    ):
        self.execution = execution
        self.node = node
        self.ex = execution._executors[node.node_id]
        self.seq = seq

    @property
    def name(self) -> str:
        return f"node {self.execution.name}:{self.node.label}"

    def start(self, ev: Optional[Event] = None) -> None:
        sim = self.execution.sim
        sim._live_chains[self] = None
        self.prep_start = sim.now
        self.ex.prep(self.on_prepped)

    def on_prepped(self, exc: Optional[BaseException]) -> None:
        execution = self.execution
        if exc is not None:
            if self.seq is None:
                self.lost(exc)
            else:
                # A SEQUENTIAL controller hears of a lost prep in a loop
                # entry of its own, after what the loss queued at this instant.
                execution.sim.event().fail(exc).add_callback(lambda ev: self.lost(ev._exc))
            return
        node = self.node
        execution._trace_prep(node, self.prep_start)
        execution._attach_result_handles(node.node_id)
        self.scheduler, self.req = execution._submit(node)
        self.req.grant.add_callback(self.on_grant)

    def on_grant(self, ev: Event) -> None:
        if ev._exc is not None:
            self.lost(ev._exc)
            return
        self.execution.sim._live_chains.pop(self, None)
        ex = self.ex
        ex.enqueue(gate=self.execution._gates.get(self.node.node_id))
        ex.all_kernels_done.add_callback(self.on_kernels_done)
        if self.seq is not None:
            self.seq.enqueued(ex)
        # The grant loop is parked on this ack; resume it inside the
        # grant's own loop entry.  The PCIe descriptor writes that
        # follow occupy no shared resource, so the loop never waits on
        # them (a SEQUENTIAL pass does, above).
        self.req.enqueued_ack.succeed_inline(None)

    def on_kernels_done(self, ev: Event) -> None:
        self.scheduler.complete(self.req)

    def lost(self, exc: BaseException) -> None:
        self.execution.sim._live_chains.pop(self, None)
        self.execution._node_lost(self.ex, exc)
        if self.seq is not None:
            self.seq.lost(exc)


class _Feed:
    """Opens one node's gate once every incoming edge moved its data.

    A lost producer or a lost transfer *fails* the gate rather than
    leaving it silent: the gated kernel at the head of its device queue
    is released with the failure instead of wedging the whole
    (non-preemptible) queue behind it forever.  The feed sits in the
    simulator's live-chain registry until every edge has landed or been
    lost, so an edge whose producer never settles is a
    :class:`~repro.sim.DeadlockError` at drain end.
    """

    __slots__ = ("execution", "node", "gate", "remaining")

    def __init__(self, execution: ProgramExecution, node: LowLevelNode):
        self.execution = execution
        self.node = node
        self.gate = execution._gates[node.node_id]
        self.remaining = len(node.incoming)

    @property
    def name(self) -> str:
        return f"feed {self.execution.name}:{self.node.label}"

    def start(self) -> None:
        execution = self.execution
        execution.sim._live_chains[self] = None
        for spec in self.node.incoming:
            producer = execution._executors[spec.src_node]
            producer.all_kernels_done.add_callback(_Transfer(self, spec).on_producer)

    def landed(self) -> None:
        self._edge_settled()
        if self.remaining == 0 and not self.gate.triggered:
            self.gate.succeed(None)

    def fail(self, exc: BaseException) -> None:
        if not self.gate.triggered:
            self.gate.fail(exc)
        self._edge_settled()

    def _edge_settled(self) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            self.execution.sim._live_chains.pop(self, None)


class _Transfer:
    """One edge of a :class:`_Feed`: wait for the producer, then move
    its output over ICI (a timed wire) or DCN (a routed transport
    message)."""

    __slots__ = ("feed", "spec", "start_us")

    def __init__(self, feed: _Feed, spec):
        self.feed = feed
        self.spec = spec

    def on_producer(self, ev: Event) -> None:
        feed = self.feed
        if ev._exc is not None:
            feed.fail(ev._exc)
            return
        spec = self.spec
        if spec.route is TransferRoute.LOCAL or spec.nbytes == 0:
            feed.landed()
            return
        execution = feed.execution
        sim = execution.sim
        self.start_us = sim.now
        src_group = execution.low.node(spec.src_node).group
        if spec.route is TransferRoute.ICI:
            # Per-shard slice moves in parallel across shard pairs; the
            # wire time is per-shard bytes over one link path.
            per_shard = max(1, spec.nbytes // max(1, src_group.n_logical))
            wire_us = src_group.island.ici.transfer_time_us(
                src_group.devices[0], feed.node.group.devices[0], per_shard
            )
            sim.timeout(wire_us).add_callback(self.on_moved)
        else:
            # DCN: a host crash mid-transfer fails the message with
            # MessageLost (a FaultError), which fails the gate and feeds
            # the retry_on_failure replay path.
            execution.system.transport.send(
                src_group.hosts[0], feed.node.group.hosts[0],
                src_group.per_host_bytes(spec.nbytes),
            ).add_callback(self.on_moved)

    def on_moved(self, ev: Event) -> None:
        feed = self.feed
        if ev._exc is not None:
            feed.fail(ev._exc)
            return
        execution = feed.execution
        tr = execution.sim.tracer
        if tr is not None:
            spec = self.spec
            tr.complete(
                f"xfer:{spec.src_node}->{spec.dst_node}",
                "dispatch.transfer",
                self.start_us,
                execution.sim.now,
                track=f"client/{execution.client.name}",
                trace_id=execution.name,
                args={"route": spec.route.name, "nbytes": spec.nbytes},
            )
        feed.landed()


def _placeholder_handle(node_id: int) -> ObjectHandle:
    """A result's handle until its node's output is allocated.  It holds
    nothing, so it is born freed: releasing the results of an execution
    abandoned before that node's prep frees nothing."""
    return ObjectHandle(
        object_id=-node_id,
        nbytes_total=0,
        nbytes_per_shard=0,
        n_shards=1,
        space=MemorySpace.HOST_DRAM,
        freed=True,
    )
