"""Fault tolerance & elasticity for the Pathways reproduction.

The paper's single-controller design is motivated in large part by
operability at scale: islands of non-preemptible accelerators must
survive device failures, host crashes, and island preemption without
wedging the gang-scheduled enqueue order.  This subsystem makes
failure/recovery a first-class workload dimension of the simulator:

* :mod:`repro.resilience.faults` — deterministic fault schedules
  (hand-written or seeded Poisson MTBF draws) and the injector, which
  applies faults on idle devices without loop entries;
* :mod:`repro.resilience.checkpoint` — periodic program-state
  snapshot/restore cost model over PCIe + DCN;
* :mod:`repro.resilience.recovery` — central detection, scheduler
  eviction, virtual-slice remapping, and the handshake with
  ``ProgramExecution.retry_on_failure``;
* :mod:`repro.resilience.elastic` — the grow half: elastic scale-up
  onto added/repaired islands, and graceful island drain/handback for
  preemption notices (checkpoint + vacate instead of abrupt loss).

Typical wiring::

    from repro.resilience import (
        CheckpointManager, FaultInjector, FaultSchedule, RecoveryManager,
    )

    system = PathwaysSystem.build(spec)
    recovery = RecoveryManager(system)            # attaches as system.recovery
    ckpt = CheckpointManager(system, interval_us=50_000.0, state_bytes=1 << 30)
    schedule = FaultSchedule.poisson_device_failures(
        mtbf_us=100_000.0, horizon_us=1e6,
        device_ids=[d.device_id for d in system.cluster.devices],
        seed=7, repair_us=20_000.0,
    )
    FaultInjector(recovery, schedule)
    execution = client.submit(program, args, retry_on_failure=True, checkpoint=ckpt)
    serving = attach_serving(system)      # a whole tenant (repro.workloads)
    system.sim.drain(system.sim.all_of([execution.done, serving.done]))
"""

from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.elastic import ElasticController
from repro.resilience.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSchedule,
)
from repro.resilience.recovery import RecoveryManager

__all__ = [
    "CheckpointManager",
    "ElasticController",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultSchedule",
    "RecoveryManager",
]
