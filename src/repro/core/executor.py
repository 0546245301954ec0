"""Per-shard executors: host-side prep and kernel enqueue (paper Fig. 3).

For one low-level node, the executor layer

1. performs *prep* on every host covering the node's device group —
   serial CPU work (launch descriptors, transfer setup) plus output
   buffer allocation in HBM (the back-pressure point);
2. after the gang scheduler grants the node's turn, *enqueues* the
   kernels on each device over PCIe, optionally gated on the node's
   input transfers.

Prep and enqueue are deliberately separate steps: parallel asynchronous
dispatch runs prep for many nodes concurrently and only serializes the
(cheap) enqueues through the scheduler's global order.

Prep is a callback barrier, not a generator: :meth:`NodeExecutor.prep`
counts the node's host preps (:func:`~repro.hw.host.prep_hosts`) and
its HBM allocation directly, with no per-host completion Event and no
``AllOf``.  The last part to land calls the dispatcher back inline,
at the same instant; a failure (host crash, failed device) rolls the
allocation back first.  A host crash delivers its failures one loop
entry later, so the crash settles every prep it aborts in issue order
before any barrier reacts.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.config import SystemConfig
from repro.core.ir import LowLevelNode
from repro.core.object_store import MemorySpace, ObjectHandle, ShardedObjectStore
from repro.hw.device import CollectiveRendezvous, Kernel, enqueue_gang
from repro.hw.host import prep_hosts
from repro.sim import Event, Simulator

__all__ = ["NodeExecutor"]


class NodeExecutor:
    """Executes one low-level node instance on its device group."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        store: ShardedObjectStore,
        node: LowLevelNode,
        program: str,
    ):
        self.sim = sim
        self.config = config
        self.store = store
        self.node = node
        #: The program label every kernel of the node carries.
        self.program = program
        self.output_handle: Optional[ObjectHandle] = None
        #: True once every host prep and the output allocation landed
        #: (replay reads it to decide whether the buffer is this node's).
        self.prep_done = False
        self._prep_parts = 0
        self._on_prepped: Optional[Callable[[Optional[BaseException]], None]] = None
        self.all_kernels_done: Event = sim.event()

    # -- step 1: host-side preparation ----------------------------------------
    def prep(self, on_done: Callable[[Optional[BaseException]], None]) -> None:
        """Host work + output allocation on all hosts, in parallel.

        One callback barrier counts the host preps and the HBM
        allocation.  Success calls ``on_done(None)`` inline, at the
        instant the last part lands.  Both halves can be lost to a
        fault: a crashed host fails its CPU work fast
        (:class:`~repro.hw.host.HostFailure`), and a failed device
        cancels its pending HBM waiters.  Either way the partial
        reservation is rolled back exactly — granted shards freed,
        queued waiters cancelled — before ``on_done(exc)`` hands the
        failure to the dispatching program's retry path.
        """
        group = self.node.group
        per_host_us = self.config.executor_prep_us + self.config.host_launch_work_us
        self._on_prepped = on_done
        # Every host prep plus the allocation, so the barrier cannot
        # settle before the allocation below is requested.
        self._prep_parts = len(group.hosts) + 1
        prep_hosts(group.hosts, per_host_us, self._on_prep_part)
        # Output buffers: per-shard bytes reserved on every (simulated)
        # device of the group — this is where HBM back-pressure bites.
        handle, alloc_ready = self.store.allocate(
            nbytes_per_shard=self.node.output_nbytes_per_shard,
            n_shards=group.n_logical,
            group=group,
            space=MemorySpace.HBM,
        )
        self.output_handle = handle
        alloc_ready.add_callback(self._on_alloc)

    def _on_alloc(self, ev: Event) -> None:
        self._on_prep_part(ev._exc)

    def _on_prep_part(self, exc: Optional[BaseException], parts: int = 1) -> None:
        on_done = self._on_prepped
        if on_done is None:
            return  # already failed: later parts land on a settled barrier
        if exc is not None:
            # Dropping the callback also breaks the executor <-> caller
            # reference cycle, so both are freed by refcount.
            self._on_prepped = None
            self.store.discard(self.output_handle)
            self.output_handle = None
            on_done(exc)
            return
        self._prep_parts -= parts
        if self._prep_parts <= 0:
            self._on_prepped = None
            self.prep_done = True
            on_done(None)

    # -- step 2: enqueue (called under the scheduler's grant) ----------------
    def enqueue(self, gate: Optional[Event] = None) -> list[Kernel]:
        """Append this node's kernels to every device queue, atomically.

        Must be called while holding the island scheduler's grant; the
        appends take zero simulated time, which is what makes the
        scheduler's global order authoritative.  Returns the kernels.
        """
        node = self.node
        group = node.group
        collective = None
        if node.computation.collective is not None or len(group.devices) > 1 or group.n_logical > 1:
            # Gang execution: all shards synchronize; collective wire time
            # is computed from the *logical* gang width (none for a pure
            # gang sync).  The rendezvous release covers the kernel's
            # compute phase and -- folded here -- the per-device launch
            # latency: one shared timeout and one wait per device
            # instead of three.
            collective = CollectiveRendezvous(
                self.sim,
                participants=len(group.devices),
                duration_us=node.collective_us,
                launch_us=self.config.kernel_launch_us,
            )
        # One Kernel object — and one completion event — for the whole
        # gang: every field (duration, collective, gate, tag) is
        # identical across the gang's devices, and they all finish at
        # the same instant (shared collective compute phase), so
        # per-device kernel/event copies are pure allocation overhead.
        # The first device to complete triggers `done`; a failing device
        # fails it, which is the loss signal retry_on_failure needs.
        kernel = Kernel(
            self.sim,
            duration_us=node.compute_time_us,
            collective=collective,
            tag=node.label,
            program=self.program,
            gate=gate,
        )
        kernel.done.add_callback(self._on_kernel_done)
        enqueue_gang(group.devices, kernel)
        return [kernel]

    def _on_kernel_done(self, ev: Event) -> None:
        """Forward the gang kernel's completion to ``all_kernels_done``.

        A device failure fails the kernel's ``done`` event with
        :class:`~repro.hw.device.DeviceFailure`; forwarding the failure
        (instead of unconditionally succeeding) is what lets the
        dispatching program observe the loss and replay the node.
        """
        akd = self.all_kernels_done
        if akd.triggered:
            return
        if ev.ok:
            akd.succeed(None)
        else:
            akd.fail(ev._exc)

    # -- PCIe cost of the enqueues (sequential dispatch waits it out) --------
    def pcie_cost_us(self) -> float:
        """Per-host PCIe time for this node's launches.

        The executor writes one launch descriptor per device over PCIe;
        descriptors for the devices of one host go back to back.
        """
        group = self.node.group
        per_host_devices = max(1, len(group.devices) // max(1, len(group.hosts)))
        return self.config.pcie_latency_us * per_host_devices
