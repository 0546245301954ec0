"""Cross-island data-parallel training (paper §5.3, Figure 12, Appendix D).

Each island holds one model-parallel replica (the model sharded over the
island's cores); islands exchange gradients over DCN each step, which
:class:`DataParallelTrainer` runs as one Pathways program.  The
transfer is *chunked and overlapped*: as each backward chunk finishes,
its gradient shard starts moving, so DCN time hides behind the remaining
backward compute — the mechanism that yields the paper's ~97% scaling
across two islands of 512 (64B model) and 1024 (136B model) chips.

:class:`ElasticDataParallelTrainer` is the dynamic-width sibling: its
replica count follows the hardware (growing onto islands added or
repaired at runtime, vacating draining ones at checkpoint boundaries)
through the :mod:`repro.resilience.elastic` controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.config import SystemConfig
from repro.core.ir import TransferRoute
from repro.core.program import PathwaysProgram
from repro.core.system import PathwaysSystem
from repro.core.virtual_device import VirtualSlice
from repro.hw.device import CollectiveRendezvous, Device, DeviceFailure, Kernel
from repro.models.transformer import TransformerConfig
from repro.plaque.graph import ShardedGraph
from repro.sim import Event
from repro.xla import CompiledFunction, DType, Sharding, TensorSpec

__all__ = [
    "DataParallelTrainer",
    "DataParallelResult",
    "ElasticDataParallelTrainer",
    "ElasticRunResult",
]

#: How long the elastic trainer takes to notice a replica lost mid-step.
_DETECTION_US = 1_000.0


@dataclass
class DataParallelResult:
    step_time_us: float
    tokens_per_second: float
    dcn_bytes_per_island: int    # what the program's DCN edges move
    #: Step time compute does not cover: exposed DCN transfer plus dispatch.
    exposed_us: float

    @property
    def step_time_s(self) -> float:
        return self.step_time_us / 1e6


class _ReplicaStep:
    """One replica's step cost, shared by both trainers: forward,
    backward and apply sharded over ``replica_cores`` cores, and the
    gradient volume a ring all-reduce moves per replica."""

    config: SystemConfig
    params: int
    batch_tokens: int
    efficiency: float
    replica_cores: int

    def forward_time_us(self) -> float:
        flops = 2.0 * self.params * self.batch_tokens
        return flops / self.replica_cores / (
            self.config.tpu_flops_per_us * self.efficiency
        )

    def backward_time_us(self) -> float:
        return 2.0 * self.forward_time_us()

    def apply_time_us(self) -> float:
        return 4.0 * self.params / self.replica_cores / (
            self.config.tpu_flops_per_us * self.efficiency
        )

    def step_compute_us(self) -> float:
        return self.forward_time_us() + self.backward_time_us() + self.apply_time_us()

    def grad_exchange_bytes(self, width: int) -> int:
        """Per-replica DCN volume for the global reduction over ``width``
        replicas.

        Ring all-reduce moves 2*(K-1)/K of the f32 gradient through each
        replica's NICs.  For two islands this is ~4 bytes/parameter,
        matching the paper's 457 GB for the 64B model (Appendix D).
        """
        if width < 2:
            return 0
        return int(2 * (width - 1) / width * 4 * self.params)


class DataParallelTrainer(_ReplicaStep):
    """Data parallelism across islands, model parallelism within; one program per step."""

    def __init__(
        self,
        system: PathwaysSystem,
        model: TransformerConfig,
        cores_per_island: int,
        batch_tokens_per_island: int,
        efficiency: float,
        n_chunks: int = 8,
        nominal_params: Optional[int] = None,
    ):
        if n_chunks < 1:
            raise ValueError("need >= 1 gradient chunk")
        self.system = system
        self.config = system.config
        self.model = model
        self.replica_cores = cores_per_island
        self.batch_tokens = batch_tokens_per_island
        self.efficiency = efficiency
        self.n_chunks = n_chunks
        self.params = nominal_params if nominal_params is not None else model.params
        self.islands = system.cluster.islands
        if len(self.islands) < 1:
            raise ValueError("cluster has no islands")
        self._program: Optional[PathwaysProgram] = None

    def build(self) -> PathwaysProgram:
        """Per island a forward node, a chain of ``n_chunks`` backward
        nodes and an apply node behind its own last chunk and every chunk
        of the previous island in the ring (those edges cross DCN)."""
        if self._program is not None:
            return self._program
        k, n, cores = len(self.islands), self.n_chunks, self.replica_cores
        # A chunk's gradients: BF16 split over the cores, padded up to whole shards.
        shard = -(-(self.grad_exchange_bytes(k) // n) // (DType.BF16.width * cores))
        scalar, grad = TensorSpec.scalar(), TensorSpec((shard * cores,), DType.BF16)
        layout = {scalar: Sharding.REPLICATED, grad: Sharding.SPLIT_LEADING}
        graph = ShardedGraph(name=f"dp[{self.model.name}]x{k}c{n}")
        arg = graph.add_arg()
        placements: dict[int, VirtualSlice] = {}
        outs = {arg: scalar}

        def add(name: str, us: float, out: TensorSpec, vslice: VirtualSlice, *srcs: int) -> int:
            ins = tuple(outs[src] for src in srcs)
            nid = graph.add_compute(CompiledFunction(
                f"{name}[{self.model.name}]", ins, (out,), n_shards=cores, duration_us=us,
                in_shardings=tuple(layout[t] for t in ins), out_shardings=(layout[out],),
            ))
            placements[nid], outs[nid] = vslice, out
            for slot, src in enumerate(srcs):
                graph.connect(src, nid, dst_input=slot)
            return nid

        vset = self.system.make_virtual_device_set()
        vslices = [vset.add_slice(cores, island_id=isl.island_id) for isl in self.islands]
        chunks: list[list[int]] = []
        for vslice in vslices:
            chain = [add("fwd", self.forward_time_us(), scalar, vslice, arg)]
            for _ in range(n):
                chain.append(add("bwd", self.backward_time_us() / n, grad, vslice, chain[-1]))
            chunks.append(chain[1:])
        applies = [
            add("apply", self.apply_time_us(), scalar, vslices[i],
                own[-1], *(chunks[i - 1] if k > 1 else ()))
            for i, own in enumerate(chunks)
        ]
        self._program = PathwaysProgram.close(graph, placements, [arg], [(a, 0) for a in applies])
        return self._program

    # -- measurement ----------------------------------------------------------
    def run(self, n_steps: int = 2) -> DataParallelResult:
        program, k, sim = self.build(), len(self.islands), self.system.sim
        client = self.system.client("dp")
        step_us = sim.drain(sim.process(
            client.drive_pipelined(program, (0.0,), n_iters=n_steps, max_in_flight=1),
            name=lambda: f"train:{program.name}",
        )) / n_steps
        edges = [t for node in client.lower(program).nodes for t in node.incoming]
        return DataParallelResult(
            step_time_us=step_us,
            tokens_per_second=self.batch_tokens * k / (step_us / 1e6),
            dcn_bytes_per_island=sum(t.nbytes for t in edges if t.route is TransferRoute.DCN) // k,
            exposed_us=max(0.0, step_us - self.step_compute_us()),
        )

    def single_island_equivalent_step_us(self) -> float:
        """Step time of one island with K x the cores (the paper's ~100%
        reference point): same per-core compute, no DCN."""
        k = len(self.islands)
        flops = 6.0 * self.params * self.batch_tokens * k
        cores = self.replica_cores * k
        compute = flops / cores / (self.config.tpu_flops_per_us * self.efficiency)
        apply = 4.0 * self.params / cores / (
            self.config.tpu_flops_per_us * self.efficiency
        )
        return compute + apply


# -- elastic data parallelism (resilience subsystem integration) -------------


@dataclass
class _Replica:
    """One DP replica: a virtual slice pinned to its home island."""

    vslice: VirtualSlice

    @property
    def island_id(self) -> int:
        return self.vslice.group.island.island_id


@dataclass
class ElasticRunResult:
    """Outcome of one elastic data-parallel run."""

    requested_steps: int
    elapsed_us: float
    #: First-time step completions (the optimizer state advanced).
    useful_steps: int
    #: Step executions repeated after a rollback.
    replayed_steps: int
    #: Tokens consumed by first-time steps (replays train on the same
    #: data again, so they add nothing here).
    tokens_processed: float
    #: (simulated time, replica count) at every width change.
    width_history: list[tuple[float, int]]
    #: (step index, width it ran at) for every step execution, replays
    #: included — fixed-width and elastic runs must agree on the index
    #: sequence (same optimizer trajectory, modulo the widened batches).
    step_log: list[tuple[int, int]]
    checkpoint_overhead_us: float
    losses: int
    grows: int
    drains_honored: int
    rollback_steps: int

    @property
    def goodput_steps_per_second(self) -> float:
        if self.elapsed_us <= 0:
            return 0.0
        return self.useful_steps / (self.elapsed_us / 1e6)

    @property
    def goodput_tokens_per_second(self) -> float:
        if self.elapsed_us <= 0:
            return 0.0
        return self.tokens_processed / (self.elapsed_us / 1e6)

    @property
    def max_width(self) -> int:
        return max(w for _, w in self.width_history)

    @property
    def min_width(self) -> int:
        return min(w for _, w in self.width_history)


class ElasticDataParallelTrainer(_ReplicaStep):
    """Data-parallel training whose replica count follows the hardware.

    Each replica is a virtual slice (bound through the resource manager)
    holding a full model copy; every step, all replicas run one
    gang-scheduled fwd/bwd/apply through their island scheduler — so
    elastic gangs re-enter the consistent enqueue order like any other
    work — and exchange gradients over DCN in a ring, chunk-overlapped
    with the backward pass.

    Elasticity happens at **checkpoint boundaries** (between steps):

    * a capacity-change signal (island added, repair, end of preemption)
      grows the replica set — the new replica pays the snapshot-restore
      cost to receive current state, then joins the next step;
    * a drain signal shrinks it gracefully — snapshot first, release the
      slices, report ``vacated`` to the elastic controller: no work is
      lost;
    * an *abrupt* loss mid-step (device failure, unannounced preemption)
      rolls back to the last snapshot and replays, exactly like the
      churn workload.

    The step index sequence is identical to a fixed-width run's (same
    number of optimizer updates); only the per-step global batch widens
    with the replica count.  Implements the elastic-workload protocol of
    :class:`~repro.resilience.elastic.ElasticController` (register the
    trainer to receive signals).
    """

    def __init__(
        self,
        system: PathwaysSystem,
        model: TransformerConfig,
        devices_per_replica: int,
        batch_tokens_per_replica: int,
        efficiency: float,
        checkpoint,
        n_chunks: int = 4,
    ):
        if n_chunks < 1:
            raise ValueError("need >= 1 gradient chunk")
        if devices_per_replica < 1:
            raise ValueError("need >= 1 device per replica")
        self.system = system
        self.sim = system.sim
        self.config = system.config
        self.model = model
        self.replica_cores = devices_per_replica
        self.batch_tokens = batch_tokens_per_replica
        self.efficiency = efficiency
        self.ckpt = checkpoint
        self.n_chunks = n_chunks
        self.params = model.params
        self.name = "edp"
        #: Set by ElasticController.register().
        self.elastic = None

        self.replicas: list[_Replica] = []
        self.pending_grow: set[int] = set()
        self.pending_drain: set[int] = set()
        self._wakeup: Optional[Event] = None
        #: Simulated time spent inside train() segments; counters are
        #: cumulative across run() calls, so elapsed must be too.
        self._elapsed_us = 0.0

        self.steps_done = 0
        self._high_water = 0
        self.useful_steps = 0
        self.replayed_steps = 0
        self.tokens_processed = 0.0
        self.losses = 0
        self.grows = 0
        self.drains_honored = 0
        self.rollback_steps = 0
        self.width_history: list[tuple[float, int]] = []
        self.step_log: list[tuple[int, int]] = []

        rm = system.resource_manager
        for isl in rm.islands:
            if isl.n_healthy >= devices_per_replica and not rm.is_draining(
                isl.island_id
            ):
                self.replicas.append(self._make_replica(isl.island_id))
        if not self.replicas:
            raise RuntimeError(
                f"{self.name}: no island can host a replica of "
                f"{devices_per_replica} devices"
            )

    # -- elastic-workload protocol (called by the ElasticController) ---------
    def notify_capacity(self, island_id: int, reason: str) -> None:
        self.pending_grow.add(island_id)
        self._wake()

    def notify_drain(self, island_id: int) -> None:
        self.pending_drain.add(island_id)
        self.pending_grow.discard(island_id)
        self._wake()

    def _wake(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed(None)

    # -- driving -------------------------------------------------------------
    def run(self, n_steps: int) -> ElasticRunResult:
        """Train ``n_steps`` steps, driving the simulator to completion."""
        proc = self.sim.process(
            self.train(n_steps), name=lambda: f"{self.name}:driver"
        )
        self.sim.run_until_triggered(proc)
        return self.result(n_steps)

    def result(self, n_steps: int) -> ElasticRunResult:
        return ElasticRunResult(
            requested_steps=n_steps,
            elapsed_us=self._elapsed_us,
            useful_steps=self.useful_steps,
            replayed_steps=self.replayed_steps,
            tokens_processed=self.tokens_processed,
            width_history=list(self.width_history),
            step_log=list(self.step_log),
            checkpoint_overhead_us=self.ckpt.overhead_us,
            losses=self.losses,
            grows=self.grows,
            drains_honored=self.drains_honored,
            rollback_steps=self.rollback_steps,
        )

    def train(self, n_steps: int) -> Generator:
        """The driver loop (a simulation process)."""
        segment_start = self.sim.now
        self._record_width()
        try:
            while self.steps_done < n_steps:
                yield from self._apply_signals()
                if not self.replicas:
                    yield from self._wait_for_capacity()
                    continue
                ok = yield from self._one_step()
                if not ok:
                    continue
                width = len(self.replicas)
                self.step_log.append((self.steps_done, width))
                if self.steps_done >= self._high_water:
                    self._high_water = self.steps_done + 1
                    self.useful_steps += 1
                    self.tokens_processed += width * self.batch_tokens
                else:
                    self.replayed_steps += 1
                self.steps_done += 1
                if self.ckpt.due():
                    yield from self.ckpt.save(self.steps_done)
        finally:
            self._elapsed_us += self.sim.now - segment_start

    # -- boundary reconfiguration --------------------------------------------
    def _apply_signals(self) -> Generator:
        """Consume pending drain/grow signals at this step boundary."""
        rm = self.system.resource_manager
        for island_id in sorted(self.pending_drain):
            self.pending_drain.discard(island_id)
            victims = [r for r in self.replicas if r.island_id == island_id]
            if not victims:
                if self.elastic is not None:
                    self.elastic.vacated(island_id)
                continue
            # Forced checkpoint boundary: snapshot, then hand the
            # hardware back with nothing lost.
            yield from self.ckpt.save(self.steps_done)
            for replica in victims:
                rm.release_slice(replica.vslice)
                self.replicas.remove(replica)
            self.drains_honored += 1
            self._record_width()
            if self.elastic is not None:
                self.elastic.vacated(island_id)
        for island_id in sorted(self.pending_grow):
            self.pending_grow.discard(island_id)
            if any(r.island_id == island_id for r in self.replicas):
                continue
            if rm.is_draining(island_id):
                continue
            island = self.system.cluster.islands[island_id]
            if island.n_healthy < self.replica_cores:
                continue  # a later repair event will retry
            replica = self._make_replica(island_id)
            # The new replica receives current state: one snapshot
            # restore (DCN + PCIe) before it can join the gang.
            restore_us = self.ckpt.restore_cost_us()
            if restore_us > 0:
                yield self.sim.timeout(restore_us)
            self.replicas.append(replica)
            self.grows += 1
            self._record_width()

    def _wait_for_capacity(self) -> Generator:
        if self.pending_grow:
            return
        self._wakeup = self.sim.event(name=lambda: f"{self.name}:wakeup")
        yield self._wakeup
        self._wakeup = None

    # -- one synchronous DP step ----------------------------------------------
    def _one_step(self) -> Generator:
        sim = self.sim
        reps = list(self.replicas)
        k = len(reps)
        outs = [
            sim.event(name=lambda i=i: f"{self.name}:grads{i}") for i in range(k)
        ]
        procs = [
            sim.process(
                self._replica_step(i, reps, outs),
                # Mutable parts (step counter, binding) are frozen via
                # lambda defaults so the lazy name resolves to what was
                # true at spawn time.
                name=lambda s=self.steps_done, isl=reps[i].island_id: (
                    f"{self.name}:s{s}@i{isl}"
                ),
            )
            for i in range(k)
        ]
        yield sim.all_settled(procs)
        if all(proc.ok for proc in procs):
            return True
        yield from self._handle_loss()
        return False

    def _replica_step(self, idx: int, reps: list[_Replica], outs: list[Event]) -> Generator:
        replica = reps[idx]
        k = len(reps)
        group = replica.vslice.group
        island = group.island
        scheduler = self.system.scheduler_for(island)
        req = scheduler.submit(
            client=self.name,
            program=self.name,
            node_label=f"{self.name}:s{self.steps_done}@i{island.island_id}",
            cost_us=self.step_compute_us(),
            device_ids=group.device_ids,
        )
        granted = False
        try:
            yield req.grant
            granted = True
            devices = group.devices
            fwd = self._gang(devices, self.forward_time_us(), f"fwd{self.steps_done}")
            chunk_us = self.backward_time_us() / self.n_chunks
            chunks = [
                self._gang(devices, chunk_us, f"bwd{self.steps_done}.{c}")
                for c in range(self.n_chunks)
            ]
            gate = outs[(idx - 1) % k] if k > 1 else None
            apply_k = self._gang(
                devices, self.apply_time_us(), f"apply{self.steps_done}", gate=gate
            )
            # Order fixed on every device queue; release the scheduler.
            req.enqueued_ack.succeed(None)
            per_chunk = self.grad_exchange_bytes(k) // self.n_chunks
            per_host = group.per_host_bytes(per_chunk)
            transfers: list[Event] = []
            yield fwd[0].done
            for chunk in chunks:
                yield chunk[0].done
                if k > 1:
                    peer = reps[(idx + 1) % k].vslice.group
                    transfers.append(
                        self.system.transport.send(
                            group.hosts[0], peer.hosts[0], per_host
                        )
                    )
            if transfers:
                yield self.sim.all_of(transfers)
            outs[idx].succeed(None)
            yield apply_k[0].done
        except BaseException as exc:
            if not outs[idx].triggered:
                cause = (
                    exc
                    if isinstance(exc, DeviceFailure)
                    else DeviceFailure(
                        group.devices[0].device_id, f"dp replica lost: {exc!r}"
                    )
                )
                # Gates fail with DeviceFailure so peer device queues
                # drop the poisoned apply instead of wedging.
                outs[idx].fail(cause)
            raise
        finally:
            if granted:
                scheduler.complete(req)

    def _gang(
        self,
        devices: list[Device],
        duration_us: float,
        tag: str,
        gate: Optional[Event] = None,
    ) -> list[Kernel]:
        """One kernel per device (the step's loss detection depends on
        it), on one rendezvous whose release carries their compute."""
        collective = None
        if len(devices) > 1:
            collective = CollectiveRendezvous(
                self.sim,
                participants=len(devices),
                duration_us=0.0,
            )
        kernels = []
        for device in devices:
            kernel = Kernel(
                self.sim,
                duration_us=duration_us,
                collective=collective,
                tag=tag,
                program=self.name,
                gate=gate,
            )
            device.enqueue(kernel)
            kernels.append(kernel)
        return kernels

    # -- abrupt loss -----------------------------------------------------------
    def _handle_loss(self) -> Generator:
        """A replica died mid-step: drop dead replicas, roll back."""
        self.losses += 1
        rm = self.system.resource_manager
        yield self.sim.timeout(_DETECTION_US)
        survivors = []
        for replica in self.replicas:
            draining = rm.is_draining(replica.island_id)
            if replica.vslice.needs_remap or draining:
                island_id = replica.island_id
                rm.release_slice(replica.vslice)
                if draining:
                    self.drains_honored += 1
                    if self.elastic is not None:
                        self.elastic.vacated(island_id)
            else:
                survivors.append(replica)
        self.replicas = survivors
        self._record_width()
        restored = yield from self.ckpt.restore()
        self.rollback_steps += max(0, self.steps_done - restored)
        self.steps_done = min(self.steps_done, restored)

    # -- helpers ---------------------------------------------------------------
    def _make_replica(self, island_id: int) -> _Replica:
        vslice = VirtualSlice(self.replica_cores, island_id=island_id)
        self.system.resource_manager.bind_slice(vslice)
        return _Replica(vslice)

    def _record_width(self) -> None:
        self.width_history.append((self.sim.now, len(self.replicas)))
