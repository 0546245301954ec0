"""Model replicas for serving: virtual slices + per-replica batchers.

Each :class:`Replica` is one inference engine — a model-parallel copy of
the served transformer pinned to a virtual slice (bound through the
resource manager, so a device failure remaps it onto surviving hardware
without the serving layer naming physical devices), its own
:class:`~repro.core.client.PathwaysClient` controller thread, and a
cache of inference-mode programs per batch shape.

The :class:`ReplicaSet` spreads replicas across islands (respecting
per-island capacity slots and preferring idle uplinks via
:meth:`~repro.net.fabric.Fabric.uplink_utilization`), pays a
weights-load transfer when a replica is added at runtime, and retires replicas gracefully: a retiring replica
stops receiving new requests, finishes its queue and in-flight batches,
then releases its slice — the serving analogue of the PR-2 island
drain/handback discipline.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, TYPE_CHECKING

from repro.core.dispatch import controller_us
from repro.core.virtual_device import VirtualSlice
from repro.models.transformer import TransformerConfig
from repro.serve.batcher import ContinuousBatcher
from repro.sim import Event
from repro.xla.computation import CompiledFunction
from repro.xla.shapes import TensorSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.dispatch import ProgramExecution
    from repro.core.system import PathwaysSystem
    from repro.hw.host import Host
    from repro.serve.frontend import Frontend, Request

__all__ = ["Replica", "ReplicaSet"]

#: Fraction of peak FLOP/s a batched inference step achieves.
_EFFICIENCY = 0.5
#: Model weights shipped to a replica added at runtime.
_WEIGHTS_BYTES = 64 << 20
#: Batches a replica keeps in flight (double buffering).
MAX_IN_FLIGHT = 2


class Replica:
    """One serving replica on a virtual slice."""

    def __init__(self, rset: "ReplicaSet", idx: int, island_id: int):
        self.rset = rset
        self.idx = idx
        self.name = f"{rset.name}.r{idx}"
        self.vslice = VirtualSlice(
            rset.devices_per_replica, island_id=island_id
        )
        rset.system.resource_manager.bind_slice(self.vslice)
        #: The replica's own controller thread (batch submissions from
        #: different replicas must not serialize on one client).
        self.client = rset.system.client(self.name)
        self.queue: Deque["Request"] = deque()
        #: In-flight batch executions (oldest first).
        self.in_flight: list["ProgramExecution"] = []
        self.in_flight_requests = 0
        self.active = False
        self.retiring = False
        self.retired: Optional[Event] = None
        self.batches = 0
        self.requests_served = 0
        self.batcher: Optional[ContinuousBatcher] = None
        self._programs: dict[tuple[int, int], object] = {}

    # -- placement ----------------------------------------------------------
    @property
    def island_id(self) -> int:
        """Current home island (follows remaps)."""
        if self.vslice.bound:
            return self.vslice.group.island.island_id
        return self.vslice.island_id if self.vslice.island_id is not None else -1

    @property
    def lead_host(self) -> "Host":
        return self.vslice.group.hosts[0]

    # -- load ---------------------------------------------------------------
    @property
    def queue_len(self) -> int:
        return len(self.queue)

    @property
    def backlog(self) -> int:
        """Requests queued or inside in-flight batches."""
        return len(self.queue) + self.in_flight_requests

    def enqueue(self, req: "Request") -> None:
        self.queue.append(req)
        self.batcher.wake()

    # -- cost model ---------------------------------------------------------
    def compute_time_us(self, tokens: int) -> float:
        """Device time of one batched inference step over ``tokens``."""
        rset = self.rset
        return rset.model.infer_step_time_us(
            tokens,
            rset.devices_per_replica,
            rset.config.tpu_flops_per_us,
            _EFFICIENCY,
        )

    def overhead_us(self) -> float:
        """Per-batch non-compute cost: controller fan-out, the subgraph
        message, prep, the scheduler decision, launch, and PCIe."""
        cfg = self.rset.config
        if self.vslice.bound:
            hosts = self.vslice.group.n_hosts_logical
        else:
            hosts = 1
        return (
            controller_us(cfg, 1, hosts)
            + cfg.dcn_latency_us
            + cfg.executor_prep_us
            + cfg.scheduler_decision_us
            + cfg.kernel_launch_us
            + cfg.pcie_latency_us
        )

    def service_time_us(self, batch: int) -> float:
        """End-to-end service estimate for a ``batch``-request gang at
        the nominal request shape (the admission estimator's unit)."""
        return self.overhead_us() + self.compute_time_us(
            batch * self.rset.tokens_per_request
        )

    # -- programs -----------------------------------------------------------
    def program_for(self, batch: int, tokens: int):
        """The (cached) one-node inference program for a batch shape."""
        key = (batch, tokens)
        program = self._programs.get(key)
        if program is None:
            spec = TensorSpec((batch, max(1, self.rset.tokens_per_request)))
            fn = CompiledFunction(
                name=f"{self.name}:infer[b{batch}x{tokens}t]",
                in_specs=(spec,),
                out_specs=(spec,),
                fn=None,
                n_shards=self.rset.devices_per_replica,
                duration_us=self.compute_time_us(tokens),
            )
            program = self.client.wrap(fn, devices=self.vslice).solo_program
            self._programs[key] = program
        return program


class ReplicaSet:
    """The replica pool one frontend routes into."""

    def __init__(
        self,
        system: "PathwaysSystem",
        model: TransformerConfig,
        devices_per_replica: int,
        tokens_per_request: int,
        max_batch: int = 8,
        max_wait_us: float = 2_000.0,
    ):
        if devices_per_replica < 1:
            raise ValueError("need >= 1 device per replica")
        if max_batch < 1:
            raise ValueError("need max_batch >= 1")
        self.system = system
        self.sim = system.sim
        self.config = system.config
        self.model = model
        self.devices_per_replica = devices_per_replica
        self.tokens_per_request = tokens_per_request
        self.max_batch = max_batch
        self.max_wait_us = max_wait_us
        self.max_in_flight = MAX_IN_FLIGHT
        #: Prefix of every replica's (and its client's) name.
        self.name = "serve"
        self.frontend: Optional["Frontend"] = None
        self.replicas: list[Replica] = []
        self.scale_ups = 0
        self.scale_downs = 0
        #: (simulated time, active replica count) at every change.
        self.width_history: list[tuple[float, int]] = [(self.sim.now, 0)]
        self._next_idx = 0

    def attach_frontend(self, frontend: "Frontend") -> None:
        self.frontend = frontend

    # -- pool views ----------------------------------------------------------
    def routable(self) -> list[Replica]:
        """Replicas the frontend may route new requests to."""
        return [r for r in self.replicas if r.active and not r.retiring]

    def least_loaded(self) -> Optional[Replica]:
        candidates = self.routable()
        if not candidates:
            return None
        return min(candidates, key=lambda r: (r.backlog, r.idx))

    def replicas_on(self, island_id: int) -> list[Replica]:
        return [r for r in self.replicas if r.island_id == island_id]

    @property
    def width(self) -> int:
        return len(self.routable())

    @property
    def peak_width(self) -> int:
        return max(w for _, w in self.width_history)

    @property
    def min_width(self) -> int:
        """Smallest routable width once serving opened (initialization
        at t=0 counts only through its final width)."""
        base = 0
        mins = []
        for t, w in self.width_history:
            if t <= 0:
                base = w
            else:
                mins.append(w)
        return min([base] + mins)

    # -- capacity model -------------------------------------------------------
    def replica_capacity_rps(self) -> float:
        """Steady-state requests/second one replica sustains at full
        batches: with double buffering (``max_in_flight > 1``) the
        controller/prep overhead pipelines against device compute, so
        the cycle time is the larger of the two; without it they add."""
        if not self.replicas:
            raise RuntimeError("capacity query before any replica exists")
        probe = self.replicas[0]
        overhead = probe.overhead_us()
        compute = probe.compute_time_us(self.max_batch * self.tokens_per_request)
        cycle = (
            max(compute, overhead)
            if self.max_in_flight > 1
            else compute + overhead
        )
        return self.max_batch * 1e6 / cycle

    def capacity_rps(self) -> float:
        """Capacity at the peak routable width."""
        return self.peak_width * self.replica_capacity_rps()

    # -- growth ---------------------------------------------------------------
    def island_slots(self, island_id: int) -> int:
        """How many replicas an island can hold on healthy devices."""
        island = self.system.cluster.islands[island_id]
        return island.n_healthy // self.devices_per_replica

    def pick_island(self, prefer: tuple[int, ...] = ()) -> Optional[int]:
        """Island for the next replica: capacity first, then idle
        uplinks (the fabric-utilization signal — the seed of
        congestion-aware placement), then fewest resident replicas."""
        fabric = self.system.cluster.fabric
        rm = self.system.resource_manager
        best: Optional[int] = None
        best_key = None
        for island in self.system.cluster.islands:
            iid = island.island_id
            if rm.is_draining(iid):
                continue
            if self.island_slots(iid) <= len(self.replicas_on(iid)):
                continue
            key = (
                iid not in prefer,
                round(fabric.uplink_utilization(iid), 6),
                len(self.replicas_on(iid)),
                iid,
            )
            if best_key is None or key < best_key:
                best, best_key = iid, key
        return best

    def grow(
        self, initial: bool = False, prefer: tuple[int, ...] = ()
    ) -> Optional[Replica]:
        """Add one replica on the best-placed island (:meth:`pick_island`).

        ``initial`` replicas come up with weights preloaded — the pool
        the serving run opens with.  Runtime growth ships the weights
        from the frontend host over the fabric first and only then
        becomes routable; those count as ``scale_ups``.
        Returns None when no island has a free slot.
        """
        if self.frontend is None:
            raise RuntimeError("attach a Frontend before growing replicas")
        island_id = self.pick_island(prefer=prefer)
        if island_id is None:
            return None
        replica = Replica(self, self._next_idx, island_id)
        self._next_idx += 1
        self.replicas.append(replica)
        if initial:
            self._activate_now(replica)
        else:
            # Ship the model weights to the replica's lead host; the
            # transfer contends on the fabric like any other traffic.
            self.system.transport.send(
                self.frontend.host, replica.lead_host, _WEIGHTS_BYTES
            ).add_callback(lambda ev: self._spun_up(replica, ev._exc))
        return replica

    def _activate_now(self, replica: Replica) -> None:
        replica.active = True
        replica.batcher = ContinuousBatcher(self.frontend, replica)
        self._record_width()

    def _spun_up(self, replica: Replica, exc: Optional[BaseException]) -> None:
        """Runtime growth's weights transfer settled (``exc`` when it was
        lost, e.g. to an endpoint crash)."""
        if exc is not None or replica.retiring:
            # A failed spin-up unwinds rather than leave a zombie in the
            # pool (it would block growth and wedge drains); a replica
            # retired while its weights were in flight (e.g. its island
            # started draining) hands the hardware straight back.
            self._finalize_retire(replica)
            return
        self.scale_ups += 1
        self._activate_now(replica)

    # -- graceful shrink ------------------------------------------------------
    def retire(self, replica: Replica) -> Event:
        """Stop routing to ``replica``; it finishes its queue and
        in-flight batches, then releases its slice.  Returns the event
        fired once the hardware is free (the drain/handback pattern).

        A replica still spinning up finalizes as soon as its weights
        transfer settles; one already gone returns a fired event."""
        if replica.retired is None:
            replica.retired = self.sim.event()
        if replica not in self.replicas:
            # Already unwound (failed spin-up) or fully retired.
            if not replica.retired.triggered:
                replica.retired.succeed(None)
            return replica.retired
        if not replica.retiring:
            replica.retiring = True
            self._record_width()  # it left the routable pool now
            if replica.batcher is not None:
                replica.batcher.wake()
        return replica.retired

    def _finalize_retire(self, replica: Replica) -> None:
        """Release everything of a replica: called by its batcher once
        nothing remains, or by the spin-up path when activation fails
        or was retired mid-flight."""
        if replica.vslice.bound:
            self.system.resource_manager.release_slice(replica.vslice)
        if replica in self.replicas:
            self.replicas.remove(replica)
        if replica.active:
            replica.active = False
            self.scale_downs += 1
        self._record_width()
        if replica.retired is not None and not replica.retired.triggered:
            replica.retired.succeed(None)

    def _record_width(self) -> None:
        self.width_history.append((self.sim.now, self.width))
