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

``run_churn`` reports *goodput*: first-time useful steps per second of
wall clock, the quantity the recovery-overhead benchmark sweeps against
MTBF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.config import DEFAULT_CONFIG, SystemConfig
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
from repro.xla.computation import scalar_allreduce_add

__all__ = ["ChurnResult", "run_churn"]


@dataclass
class ChurnResult:
    """Outcome of one churn run."""

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
    client: PathwaysClient,
    program,
    n_iters: int,
    devs: VirtualSlice,
    ckpt: CheckpointManager,
    stats: dict,
) -> Generator:
    """Train ``n_iters`` steps, rolling back to the last checkpoint
    whenever the slice is remapped under the loop."""
    done = 0
    version = devs.version
    while done < n_iters:
        execution = client.submit(
            program,
            (0.0,),
            compute_values=False,
            retry_on_failure=True,
            max_attempts=32,
            checkpoint=ckpt,
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
    config: SystemConfig = DEFAULT_CONFIG,
    policy: Optional[SchedulingPolicy] = None,
    horizon_slack: float = 20.0,
    add_island_at: Optional[tuple[float, int, int]] = None,
    aggregate_threshold: int = 64,
    aggregate_fault_scaling: bool = True,
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
    aggregate_threshold`` each tenant's gang is simulated by
    representative devices standing in for ``slice_devices`` logical
    shards.  Two knobs keep the reliability study faithful:

    * co-located aggregate tenants always bind *disjoint*
      representatives (``disjoint_aggregate_reps``), so they do not
      falsely serialize on shared simulated cores;
    * ``aggregate_fault_scaling`` divides the representatives'
      per-device MTBF by their representation factor, preserving the
      *per-gang* fault arrival rate a fully-detailed simulation of
      ``slice_devices`` cores would see.  (The scaling is computed from
      the initial binding; post-remap representative sets keep their
      original rates — an approximation that is exact until the first
      migration and conservative after it.)
    """
    if n_clients * slice_devices > n_hosts * devices_per_host:
        raise ValueError(
            f"{n_clients} clients x {slice_devices} devices exceed the island "
            f"({n_hosts * devices_per_host} devices); churn needs headroom"
        )
    aggregate = slice_devices > aggregate_threshold
    system = PathwaysSystem.build(
        ClusterSpec(islands=((n_hosts, devices_per_host),), name="churn"),
        config=config,
        policy=policy,
        aggregate_threshold=aggregate_threshold,
        disjoint_aggregate_reps=aggregate,
        log_schedule=log_schedule,
    )
    recovery = RecoveryManager(system)

    grown = {"devices": 0}
    if add_island_at is not None:
        grow_at_us, grow_hosts, grow_per_host = add_island_at

        def _grow(ev) -> None:
            # Same policy as the original islands, so fairness sweeps
            # compare like with like after a remap lands here.
            system.add_island(grow_hosts, grow_per_host, policy=policy)
            grown["devices"] = grow_hosts * grow_per_host

        system.sim.timeout(grow_at_us).add_callback(_grow)

    # Bind every tenant's slice first: the fault schedule needs the
    # initial representative sets to scale aggregate fault rates.
    tenants = []
    checkpoints = []
    stats: dict[str, dict] = {}
    for c in range(n_clients):
        name = f"tenant{c}"
        client = system.client(name)
        devs = system.make_virtual_device_set().add_slice(tpu_devices=slice_devices)
        unit = scalar_allreduce_add(
            slice_devices, compute_time_us, name=f"step_{name}"
        )
        step = client.wrap(unit, devices=devs)
        ckpt = CheckpointManager(
            system, checkpoint_interval_us, state_bytes, name=f"ckpt_{name}"
        )
        checkpoints.append(ckpt)
        stats[name] = {"replayed": 0, "abandoned": 0, "done": 0}
        tenants.append((client, step, devs, ckpt, name))

    injector = None
    if mtbf_us is not None:
        # Faults are drawn over ``horizon_slack`` ideal run lengths,
        # which need not cover the run: in the config-A churn benchmark
        # (seed 0) the horizon is 10 s but the run lasts 13.74 s, so all
        # its faults are delivered and the last 3.7 s have none.  Once
        # the drivers finish, stop() cancels any faults still scheduled.
        ideal_us = steps_per_client * compute_time_us
        horizon_us = ideal_us * horizon_slack
        all_ids = [d.device_id for d in system.cluster.devices]
        rep_factor: dict[int, float] = {}
        if aggregate_fault_scaling:
            for _, _, devs, _, _ in tenants:
                group = devs.group
                if group.is_aggregate:
                    f = group.representation_factor
                    for d in group.devices:
                        rep_factor[d.device_id] = max(
                            rep_factor.get(d.device_id, 1.0), f
                        )
        schedule = FaultSchedule.poisson_device_failures(
            mtbf_us=mtbf_us,
            horizon_us=horizon_us,
            device_ids=[i for i in all_ids if i not in rep_factor],
            seed=seed,
            repair_us=repair_us,
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
                    mtbf_us=mtbf_us / f,
                    horizon_us=horizon_us,
                    device_ids=sorted(ids),
                    seed=seed + 7919 * (k + 1),
                    repair_us=repair_us,
                )
                for k, (f, ids) in enumerate(sorted(by_factor.items()))
            ))
        injector = FaultInjector(recovery, schedule)

    drivers = []
    for client, step, devs, ckpt, name in tenants:
        drivers.append(
            system.sim.process(
                _resilient_driver(
                    client,
                    step.solo_program,
                    steps_per_client,
                    devs,
                    ckpt,
                    stats[name],
                ),
                name=lambda n=name: f"driver:{n}",
            )
        )

    start = system.sim.now
    system.sim.run_until_triggered(system.sim.all_of(drivers))
    elapsed = system.sim.now - start
    if injector is not None:
        injector.stop()

    recovery_stats = recovery.stats()
    return ChurnResult(
        n_clients=n_clients,
        steps_per_client=steps_per_client,
        elapsed_us=elapsed,
        useful_steps=sum(s["done"] for s in stats.values()),
        replayed_steps=sum(s["replayed"] for s in stats.values()),
        checkpoint_overhead_us=sum(c.overhead_us for c in checkpoints),
        checkpoints_taken=sum(c.checkpoints_taken for c in checkpoints),
        faults_injected=injector.stats().injected if injector is not None else 0,
        recoveries=recovery_stats.programs_recovered,
        remaps=recovery_stats.remaps,
        devices_added=grown["devices"],
        per_client_steps={name: s["done"] for name, s in stats.items()},
        abandoned=[name for name, s in stats.items() if s["abandoned"]],
        system_handle=system,
    )
