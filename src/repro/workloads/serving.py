"""Open-loop online-serving workload (the repro.serve scenario family).

Arrival-process generators, :func:`attach_serving` (the tenant, on any
system) and ``run_serving``, the driver the serving benchmarks and tests
build on: an open-loop client population (arrivals
do not wait for completions — the defining property of SLO studies)
pushes requests over the routed fabric into a
:class:`~repro.serve.frontend.Frontend`, continuous batchers coalesce
them into gang-scheduled inference programs on a
:class:`~repro.serve.replicas.ReplicaSet`, and every request ends in
exactly one typed outcome: completed, rejected (by reason), or —
asserted never, absent unrecoverable faults — abandoned.

Two arrival shapes:

* :func:`poisson_arrivals` — stationary Poisson at ``rate_rps``;
* :func:`diurnal_arrivals` — a sinusoidal day over the run: trough at
  the start and end, peak at half-time (non-homogeneous Poisson via
  thinning).

Deterministic: all randomness flows from the seeded generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Generator, Optional

import numpy as np

from repro.config import DEFAULT_CONFIG
from repro.core.scheduler import EarliestDeadlinePolicy
from repro.core.system import PathwaysSystem
from repro.hw.cluster import ClusterSpec
from repro.models.transformer import DECODER_3B
from repro.resilience import ElasticController, RecoveryManager
from repro.serve import Autoscaler, Frontend, ReplicaSet

__all__ = [
    "ServingResult",
    "attach_serving",
    "diurnal_arrivals",
    "poisson_arrivals",
    "run_serving",
]

#: Every replica serves ``DECODER_3B`` on this many devices, and every
#: request has this shape.
_DEVICES_PER_REPLICA = 4
_PROMPT_TOKENS = 24
_GEN_TOKENS = 8


# -- arrival processes --------------------------------------------------------
def poisson_arrivals(
    rate_rps: float, duration_us: float, seed: int = 0
) -> np.ndarray:
    """Stationary Poisson arrival times (µs) in [0, duration)."""
    if rate_rps <= 0 or duration_us <= 0:
        return np.empty(0)
    rng = np.random.default_rng(seed)
    mean_gap_us = 1e6 / rate_rps
    # Draw in one vectorized block sized generously, then trim.
    n_est = int(duration_us / mean_gap_us * 1.5) + 16
    times = np.cumsum(rng.exponential(mean_gap_us, size=n_est))
    while times[-1] < duration_us:  # pragma: no cover - rare top-up
        times = np.concatenate(
            [times, times[-1] + np.cumsum(rng.exponential(mean_gap_us, size=n_est))]
        )
    return times[times < duration_us]


def diurnal_arrivals(
    mean_rps: float,
    duration_us: float,
    amplitude: float = 0.8,
    seed: int = 0,
) -> np.ndarray:
    """A sinusoidal "day" over the run:
    rate(t) = mean·(1 − A·cos(2πt/duration)).

    Trough at the start and end, peak ``mean·(1+A)`` at half-time.  A
    non-homogeneous Poisson process, drawn by thinning a Poisson stream
    at the peak rate.
    """
    if not 0.0 <= amplitude <= 1.0:
        raise ValueError(f"amplitude must be in [0, 1], got {amplitude}")
    peak = mean_rps * (1.0 + amplitude)
    candidates = poisson_arrivals(peak, duration_us, seed=seed)
    if candidates.size == 0:
        return candidates
    rate = mean_rps * (
        1.0 - amplitude * np.cos(2.0 * np.pi * candidates / duration_us)
    )
    rng = np.random.default_rng(seed + 0x5EED)
    keep = rng.random(candidates.size) * peak < rate
    return candidates[keep]


# -- results ------------------------------------------------------------------
@dataclass
class ServingResult:
    """Outcome of one serving tenant: its own frontend's and replica
    set's, except ``recoveries``, ``messages_lost`` and ``fabric_idle``,
    which are system-wide (every tenant shares recovery and transport)."""

    arrival: str
    offered_rps: float
    duration_us: float
    #: Simulated time until the last outstanding request settled.
    elapsed_us: float
    arrived: int
    admitted: int
    completed: int
    #: Typed rejections by reason (see repro.serve.frontend REJECT_*).
    rejections: dict[str, int]
    #: Requests lost to non-deadline failures (the benches assert 0).
    abandoned: int
    slo_us: float
    #: Within-SLO completions / arrived — counts rejections against us.
    slo_attainment: float
    #: Within-SLO completions per second of offered window.
    goodput_rps: float
    #: Analytic replica-set capacity at the run's peak width.
    capacity_rps: float
    p50_us: float
    p95_us: float
    p99_us: float
    mean_us: float
    max_us: float
    stage_mean_us: dict[str, float]
    width_min: int
    width_peak: int
    scale_ups: int
    scale_downs: int
    width_history: list[tuple[float, int]] = field(default_factory=list)
    #: Scheduler deadline evictions summed over this tenant's replica clients.
    deadline_rejections: int = 0
    recoveries: int = 0
    messages_lost: int = 0
    fabric_idle: bool = True
    system_handle: Optional[PathwaysSystem] = None

    @property
    def total_rejected(self) -> int:
        return sum(self.rejections.values())


# -- the tenant ---------------------------------------------------------------
def attach_serving(
    system: PathwaysSystem,
    arrival: str = "poisson",
    rate_rps: float = 400.0,
    duration_us: float = 500_000.0,
    n_replicas: int = 2,
    slo_us: float = 50_000.0,
    max_batch: int = 8,
    max_wait_us: float = 2_000.0,
    autoscale: bool = False,
    max_replicas: int = 4,
    autoscale_interval_us: float = 5_000.0,
    diurnal_amplitude: float = 0.8,
    fail_replica_at: Optional[float] = None,
    repair_us: float = 30_000.0,
    seed: int = 0,
) -> SimpleNamespace:
    """Attach an open-loop serving tenant: a frontend, its replica set
    and an arrival process (:func:`run_serving` documents the
    parameters; the drill needs the system's recovery manager).

    Returns a handle: ``done`` triggers once every request has arrived
    and settled; ``result()`` then reports the run.
    """
    sim = system.sim
    replicas = ReplicaSet(
        system, model=DECODER_3B, devices_per_replica=_DEVICES_PER_REPLICA,
        tokens_per_request=_PROMPT_TOKENS + _GEN_TOKENS, max_batch=max_batch,
        max_wait_us=max_wait_us,
    )
    frontend = Frontend(system, replicas)
    for _ in range(n_replicas):
        if replicas.grow(initial=True) is None:
            raise RuntimeError("no island slot for an initial replica")
    if autoscale:
        Autoscaler(
            system, frontend, replicas, min_replicas=n_replicas,
            max_replicas=max_replicas, interval_us=autoscale_interval_us,
        )

    if arrival == "poisson":
        arrivals = poisson_arrivals(rate_rps, duration_us, seed=seed)
        offered_rps = rate_rps
    elif arrival == "diurnal":
        arrivals = diurnal_arrivals(
            rate_rps, duration_us, amplitude=diurnal_amplitude, seed=seed
        )
        offered_rps = arrivals.size / (duration_us / 1e6)
    else:
        raise ValueError(f"unknown arrival process {arrival!r}")

    if fail_replica_at is not None:
        recovery = system.recovery

        def _fail(ev) -> None:
            if not replicas.replicas:
                return  # the autoscaler emptied the pool; nothing to kill
            victim = replicas.replicas[0]
            if victim.vslice.bound:
                device = victim.vslice.group.devices[0]
                recovery.fail_device(device, reason="serving replica drill")
                if repair_us > 0:
                    sim.timeout(repair_us).add_callback(
                        lambda e, d=device: recovery.repair_device(d)
                    )

        sim.timeout(fail_replica_at).add_callback(_fail)

    start = sim.now
    src_hosts = list(system.cluster.hosts)

    def _arrival_driver() -> Generator:
        for i, t in enumerate(arrivals):
            delay = float(t) - sim.now
            if delay > 0:
                yield sim.timeout(delay)
            frontend.submit_from(
                src_hosts[i % len(src_hosts)], _PROMPT_TOKENS, _GEN_TOKENS, slo_us
            )
        yield frontend.close()
        return sim.now  # the instant the last request settled

    def result() -> ServingResult:
        sys_stats = system.stats()
        serve_stats = frontend.stats()
        snap = serve_stats.latency
        arrived = serve_stats.arrived
        return ServingResult(
            arrival=arrival,
            offered_rps=offered_rps,
            duration_us=duration_us,
            elapsed_us=done.value - start,
            arrived=arrived,
            admitted=serve_stats.admitted,
            completed=serve_stats.completed,
            rejections=dict(serve_stats.rejections),
            abandoned=serve_stats.abandoned,
            slo_us=slo_us,
            slo_attainment=snap.slo_met / arrived if arrived else 1.0,
            goodput_rps=snap.slo_met / (duration_us / 1e6),
            capacity_rps=replicas.capacity_rps() if replicas.replicas else 0.0,
            p50_us=snap.p50_us,
            p95_us=snap.p95_us,
            p99_us=snap.p99_us,
            mean_us=snap.mean_us,
            max_us=snap.max_us,
            stage_mean_us=snap.stage_mean_us,
            width_min=replicas.min_width,
            width_peak=replicas.peak_width,
            scale_ups=replicas.scale_ups,
            scale_downs=replicas.scale_downs,
            width_history=list(replicas.width_history),
            deadline_rejections=sum(
                c.deadline_rejections for c in sys_stats.clients
                if c.name.startswith(f"{replicas.name}.")
            ),
            recoveries=sys_stats.recovery.programs_recovered if sys_stats.recovery else 0,
            messages_lost=sys_stats.net.messages_lost,
            fabric_idle=system.cluster.fabric.idle,
            system_handle=system,
        )

    done = sim.process(_arrival_driver())
    return SimpleNamespace(done=done, result=result)


# -- the driver ---------------------------------------------------------------
def run_serving(
    arrival: str = "poisson",
    rate_rps: float = 400.0,
    duration_us: float = 500_000.0,
    islands: int = 2,
    hosts_per_island: int = 2,
    devices_per_host: int = 4,
    n_replicas: int = 2,
    slo_us: float = 50_000.0,
    max_batch: int = 8,
    max_wait_us: float = 2_000.0,
    autoscale: bool = False,
    max_replicas: int = 4,
    autoscale_interval_us: float = 5_000.0,
    diurnal_amplitude: float = 0.8,
    fail_replica_at: Optional[float] = None,
    repair_us: float = 30_000.0,
    contention: bool = True,
    seed: int = 0,
    log_schedule: bool = False,
    tracer=None,
) -> ServingResult:
    """One open-loop serving run; drives the simulator to completion.

    ``arrival`` picks the process: ``"poisson"`` at ``rate_rps``, or
    ``"diurnal"`` (mean ``rate_rps``, one sinusoidal day over the run).
    Each replica serves ``DECODER_3B`` on four devices.  ``autoscale``
    attaches an :class:`~repro.serve.Autoscaler` between the initial
    width ``n_replicas`` and ``max_replicas``.
    ``fail_replica_at`` injects a device failure under replica 0 at that
    time (repaired ``repair_us`` later) — the replica-loss drill: the
    in-flight batch replays through the recovery path.  ``tracer``
    attaches a :class:`repro.telemetry.Tracer` (schedule-neutral: the
    run's event schedule is byte-identical with or without it).
    """
    total_devices = islands * hosts_per_island * devices_per_host
    if n_replicas * _DEVICES_PER_REPLICA > total_devices:
        raise ValueError(
            f"{n_replicas} replicas x {_DEVICES_PER_REPLICA} devices exceed "
            f"the cluster ({total_devices} devices)"
        )
    system = PathwaysSystem.build(
        ClusterSpec(
            islands=((hosts_per_island, devices_per_host),) * islands,
            name="serve",
        ),
        config=DEFAULT_CONFIG.with_overrides(net_contention=contention),
        policy=EarliestDeadlinePolicy(),
        log_schedule=log_schedule,
        tracer=tracer,
    )
    RecoveryManager(system, detection_us=500.0)
    ElasticController(system)
    tenant = attach_serving(
        system, arrival=arrival, rate_rps=rate_rps, duration_us=duration_us,
        n_replicas=n_replicas, slo_us=slo_us, max_batch=max_batch,
        max_wait_us=max_wait_us, autoscale=autoscale,
        max_replicas=max_replicas, autoscale_interval_us=autoscale_interval_us,
        diurnal_amplitude=diurnal_amplitude, fail_replica_at=fail_replica_at,
        repair_us=repair_us, seed=seed,
    )
    system.sim.drain(tenant.done)
    return tenant.result()
