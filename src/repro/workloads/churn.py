"""Multi-tenant training under failure churn (resilience scenario family).

N clients each run a gang-scheduled training loop on their own virtual
slice while a seeded Poisson fault process kills (and optionally
repairs) devices underneath them.  Each client's driver is *resilient*:

* every step is submitted with ``retry_on_failure`` so a mid-step device
  loss is remapped and replayed by the runtime;
* device state (weights) lives in HBM, so when the client's slice is
  remapped (its bind version changes) the driver restores from its last
  checkpoint and replays the steps since — or from step 0 with
  checkpointing disabled.

:func:`attach_training` attaches the clients and their faults to any
system; ``run_churn`` runs them on one island and reports *goodput*:
first-time useful steps per second of wall clock, the quantity the
recovery-overhead benchmark sweeps against MTBF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Generator, Optional

from repro.core.client import PathwaysClient
from repro.core.dispatch import ExecutionAbandoned
from repro.core.scheduler import SchedulingPolicy
from repro.core.system import PathwaysSystem
from repro.core.virtual_device import VirtualSlice
from repro.hw.cluster import ClusterSpec
from repro.resilience import (
    CheckpointManager,
    FaultInjector,
    FaultSchedule,
    RecoveryManager,
)
from repro.workloads.microbench import gang_step
from repro.xla.computation import scalar_allreduce_add

__all__ = ["ChurnResult", "attach_training", "run_churn"]

#: Faults are drawn over this many ideal run lengths.  The horizon need
#: not cover the run: in the config-A churn benchmark (seed 0) it is
#: 10 s but the run lasts 13.74 s, so all its faults are delivered and
#: the last 3.7 s have none.  Once the drivers finish, ``stop()``
#: cancels any faults still scheduled.
_HORIZON_SLACK = 20.0


@dataclass
class ChurnResult:
    """Outcome of one churn run.  ``recoveries`` and ``remaps`` are the
    system's recovery manager's, shared by every tenant."""

    n_clients: int
    steps_per_client: int
    elapsed_us: float
    #: First-time completions of each client's step counter (the work
    #: the tenants actually wanted).
    useful_steps: int
    #: Step executions beyond the useful ones: rollback replays.
    replayed_steps: int
    #: Simulated time spent writing/reading checkpoints.
    checkpoint_overhead_us: float
    faults_injected: int
    recoveries: int
    remaps: int
    checkpoints_taken: int = 0
    #: Devices added mid-run by elastic scale-up (0 when disabled).
    devices_added: int = 0
    per_client_steps: dict[str, int] = field(default_factory=dict)
    abandoned: list[str] = field(default_factory=list)
    system_handle: Optional[PathwaysSystem] = None

    @property
    def goodput_steps_per_second(self) -> float:
        if self.elapsed_us <= 0:
            return 0.0
        return self.useful_steps / (self.elapsed_us / 1e6)


def _resilient_driver(
    client: PathwaysClient, program, n_iters: int, devs: VirtualSlice,
    ckpt: CheckpointManager, stats: dict,
) -> Generator:
    """Train ``n_iters`` steps, rolling back to the last checkpoint
    whenever the slice is remapped under the loop; returns the end instant."""
    done = 0
    version = devs.version
    while done < n_iters:
        execution = client.submit(
            program, (0.0,), compute_values=False, retry_on_failure=True,
            max_attempts=32, checkpoint=ckpt,
        )
        try:
            yield execution.done
        except ExecutionAbandoned:
            stats["abandoned"] += 1
            break
        finally:
            execution.release_results()
        if devs.version != version:
            # The slice was rebound mid-loop: HBM state died with the
            # old devices.  Restore the snapshot and replay from there.
            version = devs.version
            restored_step = yield from ckpt.restore()
            stats["replayed"] += max(0, done - restored_step)
            done = min(done, restored_step)
            continue
        done += 1
        if ckpt.due():
            yield from ckpt.save(done)
    stats["done"] = done
    return client.system.sim.now


def attach_training(
    system: PathwaysSystem,
    n_clients: int = 3,
    steps_per_client: int = 30,
    compute_time_us: float = 2_000.0,
    slice_devices: int = 4,
    mtbf_us: Optional[float] = None,
    repair_us: float = 25_000.0,
    checkpoint_interval_us: Optional[float] = None,
    state_bytes: int = 64 << 20,
    seed: int = 0,
) -> SimpleNamespace:
    """Attach ``n_clients`` resilient, checkpointing training clients,
    each on its own slice, and with ``mtbf_us`` their device faults
    (:func:`run_churn` documents the parameters; faults need the
    system's recovery manager).

    Returns a handle: ``done`` triggers once every client's driver has
    finished; ``result()`` then stops the faults and reports the run.
    """
    # Bind every tenant's slice first: the fault schedule needs the
    # initial representative sets to scale aggregate fault rates.
    tenants = []
    stats: dict[str, dict] = {}
    for c in range(n_clients):
        name = f"tenant{c}"
        unit = scalar_allreduce_add(slice_devices, compute_time_us, name=f"step_{name}")
        client, devs, step = gang_step(system, name, slice_devices, unit)
        ckpt = CheckpointManager(
            system, checkpoint_interval_us, state_bytes, name=f"ckpt_{name}"
        )
        stats[name] = {"replayed": 0, "abandoned": 0, "done": 0}
        tenants.append((client, step, devs, ckpt, name))
    checkpoints = [ckpt for _, _, _, ckpt, _ in tenants]

    injector = None
    if mtbf_us is not None:
        horizon_us = steps_per_client * compute_time_us * _HORIZON_SLACK
        all_ids = [d.device_id for d in system.cluster.devices]
        rep_factor: dict[int, float] = {}
        for _, _, devs, _, _ in tenants:
            group = devs.group
            if group.is_aggregate:
                f = group.representation_factor
                for d in group.devices:
                    rep_factor[d.device_id] = max(rep_factor.get(d.device_id, 1.0), f)
        schedule = FaultSchedule.poisson_device_failures(
            mtbf_us=mtbf_us, horizon_us=horizon_us,
            device_ids=[i for i in all_ids if i not in rep_factor],
            seed=seed, repair_us=repair_us,
        )
        if rep_factor:
            # Representatives fail representation_factor times faster,
            # preserving the per-gang fault rate of a fully-detailed
            # simulation; spares keep the nominal per-device MTBF.
            by_factor: dict[float, list[int]] = {}
            for dev_id, f in rep_factor.items():
                by_factor.setdefault(f, []).append(dev_id)
            schedule = FaultSchedule.merge(schedule, *(
                FaultSchedule.poisson_device_failures(
                    mtbf_us=mtbf_us / f, horizon_us=horizon_us,
                    device_ids=sorted(ids), seed=seed + 7919 * (k + 1),
                    repair_us=repair_us,
                )
                for k, (f, ids) in enumerate(sorted(by_factor.items()))
            ))
        injector = FaultInjector(system.recovery, schedule)

    sim = system.sim
    start = sim.now
    done = sim.all_of([
        sim.process(
            _resilient_driver(
                client, step.solo_program, steps_per_client, devs, ckpt, stats[name]
            ),
            name=lambda n=name: f"driver:{n}",
        )
        for client, step, devs, ckpt, name in tenants
    ])

    def result() -> ChurnResult:
        if injector is not None:
            injector.stop()
        rec = system.recovery.stats() if system.recovery is not None else None
        return ChurnResult(
            n_clients=n_clients,
            steps_per_client=steps_per_client,
            elapsed_us=max(done.value, default=start) - start,
            useful_steps=sum(s["done"] for s in stats.values()),
            replayed_steps=sum(s["replayed"] for s in stats.values()),
            checkpoint_overhead_us=sum(c.overhead_us for c in checkpoints),
            checkpoints_taken=sum(c.checkpoints_taken for c in checkpoints),
            faults_injected=injector.stats().injected if injector is not None else 0,
            recoveries=rec.programs_recovered if rec else 0,
            remaps=rec.remaps if rec else 0,
            per_client_steps={name: s["done"] for name, s in stats.items()},
            abandoned=[name for name, s in stats.items() if s["abandoned"]],
            system_handle=system,
        )

    return SimpleNamespace(done=done, result=result)


def run_churn(
    n_clients: int = 3,
    steps_per_client: int = 30,
    compute_time_us: float = 2_000.0,
    slice_devices: int = 4,
    n_hosts: int = 4,
    devices_per_host: int = 4,
    mtbf_us: Optional[float] = None,
    repair_us: float = 25_000.0,
    checkpoint_interval_us: Optional[float] = None,
    state_bytes: int = 64 << 20,
    seed: int = 0,
    policy: Optional[SchedulingPolicy] = None,
    add_island_at: Optional[tuple[float, int, int]] = None,
    log_schedule: bool = False,
) -> ChurnResult:
    """N tenants training under device churn on one island.

    ``mtbf_us=None`` disables fault injection (the ideal baseline);
    ``checkpoint_interval_us=None`` disables checkpointing (roll back to
    step 0 on every loss).  Spare devices (``n_hosts * devices_per_host
    - n_clients * slice_devices``) plus repairs are what remapping draws
    on.

    ``add_island_at=(at_us, n_hosts, devices_per_host)`` exercises
    elastic scale-up under churn: a fresh island joins the cluster at
    ``at_us``, widening the healthy-capacity pool that post-failure
    remaps draw from (recovery can then land evicted tenants on the new
    island instead of backing off for a repair).

    **Paper-scale aggregate runs** (configs A/B): with ``slice_devices >
    AGGREGATE_THRESHOLD`` each tenant's gang is simulated by
    representative devices standing in for ``slice_devices`` logical
    shards.  Two rules keep the reliability study faithful:

    * co-located aggregate tenants bind *disjoint* representatives, as
      every aggregate slice does
      (:meth:`~repro.core.resource_manager.ResourceManager.bind_slice`),
      so they do not falsely serialize on shared simulated cores;
    * the representatives' per-device MTBF is divided by their
      representation factor, preserving the *per-gang* fault arrival
      rate a fully-detailed simulation of ``slice_devices`` cores would
      see.  (The scaling is computed from the initial binding;
      post-remap representative sets keep their original rates — an
      approximation that is exact until the first migration and
      conservative after it.)
    """
    if n_clients * slice_devices > n_hosts * devices_per_host:
        raise ValueError(
            f"{n_clients} clients x {slice_devices} devices exceed the island "
            f"({n_hosts * devices_per_host} devices); churn needs headroom"
        )
    system = PathwaysSystem.build(
        ClusterSpec(islands=((n_hosts, devices_per_host),), name="churn"),
        policy=policy, log_schedule=log_schedule,
    )
    RecoveryManager(system)

    grown = {"devices": 0}
    if add_island_at is not None:
        grow_at_us, grow_hosts, grow_per_host = add_island_at

        def _grow(ev) -> None:
            # Same policy as the original islands, so fairness sweeps
            # compare like with like after a remap lands here.
            system.add_island(grow_hosts, grow_per_host, policy=policy)
            grown["devices"] = grow_hosts * grow_per_host

        system.sim.timeout(grow_at_us).add_callback(_grow)

    tenant = attach_training(
        system, n_clients, steps_per_client, compute_time_us, slice_devices,
        mtbf_us, repair_us, checkpoint_interval_us, state_bytes, seed,
    )
    system.sim.drain(tenant.done)
    result = tenant.result()
    result.devices_added = grown["devices"]
    return result
