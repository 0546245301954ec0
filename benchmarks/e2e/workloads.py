"""The four end-to-end workloads of the wall-clock benchmark.

Each workload is a function ``(seed, size) -> Outcome`` that drives the
simulator through its public entry points only (``run_serving``,
``run_pathways``, ``run_churn``, ``PathwaysSystem.build`` and
``Transport.send``) and returns:

* ``units`` -- how much simulated work the repetition did, the
  numerator of ``units_per_s``;
* ``fingerprint`` -- the repetition's *simulated* outputs.  It holds no
  engine event count, so a change that removes events but keeps every
  simulated result still matches;
* ``invariants`` -- conservation checks that hold for every seed.

The harness adds the checks every workload shares (fabric idle, no NIC
slot leaked) from the system it saw built.  ``size="full"`` is the
measured configuration; ``size="smoke"`` is a tiny one for the
self-test.  Why each workload is in the benchmark is in README.md.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Generator

import numpy as np

__all__ = ["DEFAULT_SEED", "EXPONENTS", "SEEDLESS", "SIZES", "WORKLOADS", "Outcome"]

#: The seed whose fingerprints are pinned in ``pinned.json``.
DEFAULT_SEED = 0

#: Workloads whose inputs do not depend on the seed: their pinned
#: fingerprint holds for every seed.
SEEDLESS = frozenset({"dispatch"})

#: How a workload's repetition time follows the speedometer's chunk time
#: (see speed.py): as its power ``EXPONENTS[workload]``.  Least-squares
#: fits of log repetition time on log chunk time, over three sets of ten
#: full-size runs per workload, gave 1.1-1.4 (serve), 1.4-1.7
#: (dispatch), 1.6-2.1 (fabric) and 1.5-1.6 (churn), with correlations
#: of 0.90-0.97.  Each value is the step of 0.25 that left the run
#: medians steadiest across seeds.
EXPONENTS = {"serve": 1.25, "dispatch": 1.75, "fabric": 2.0, "churn": 1.75}


@dataclass(frozen=True)
class Outcome:
    """One repetition's result: work done, simulated outputs, checks."""

    units: int
    fingerprint: dict
    invariants: dict


SIZES: dict[str, dict[str, dict]] = {
    "serve": {
        "full": dict(rate_rps=800.0, duration_us=11_000_000.0),
        "smoke": dict(rate_rps=400.0, duration_us=200_000.0),
    },
    "dispatch": {
        "full": dict(n_hosts=64, devices_per_host=8, n_calls=60),
        "smoke": dict(n_hosts=4, devices_per_host=4, n_calls=4),
    },
    "fabric": {
        "full": dict(hosts=64, n_flows=5_000),
        "smoke": dict(hosts=8, n_flows=200),
    },
    "churn": {
        "full": dict(
            n_clients=3, steps_per_client=250, slice_devices=512, n_hosts=512,
            devices_per_host=4, mtbf_us=400_000.0, checkpoint_interval_us=15_000.0,
        ),
        "smoke": dict(
            n_clients=2, steps_per_client=20, slice_devices=4, n_hosts=8,
            devices_per_host=4, mtbf_us=200_000.0, checkpoint_interval_us=5_000.0,
        ),
    },
}


def serve(seed: int, size: str) -> Outcome:
    """Open-loop Poisson serving with a replica-loss drill at mid-run.
    The unit is one arrived request."""
    from repro.workloads.serving import run_serving

    p = SIZES["serve"][size]
    r = run_serving(
        rate_rps=p["rate_rps"],
        duration_us=p["duration_us"],
        islands=2,
        hosts_per_island=2,
        devices_per_host=4,
        n_replicas=2,
        contention=True,
        fail_replica_at=p["duration_us"] / 2,
        seed=seed,
    )
    fingerprint = {
        "arrived": r.arrived,
        "completed": r.completed,
        "rejections": dict(sorted(r.rejections.items())),
        "abandoned": r.abandoned,
        "p50_us": float(r.p50_us),
        "p99_us": float(r.p99_us),
        "max_us": float(r.max_us),
        "elapsed_us": float(r.elapsed_us),
        "recoveries": r.recoveries,
    }
    invariants = {
        "one_outcome_per_request": (
            r.arrived == r.completed + r.total_rejected + r.abandoned
        ),
        "nothing_abandoned": r.abandoned == 0,
        "replica_loss_recovered": r.recoveries >= 1,
    }
    return Outcome(r.arrived, fingerprint, invariants)


def dispatch(seed: int, size: str) -> Outcome:
    """Fig-5 PW-C: a 128-node chained program over every core, two calls
    in flight.  The unit is one computation; ``seed`` is unused."""
    from repro.workloads.microbench import CHAIN_LEN, run_pathways

    p = SIZES["dispatch"][size]
    r = run_pathways(
        "chained", p["n_hosts"], devices_per_host=p["devices_per_host"],
        n_calls=p["n_calls"],
    )
    fingerprint = {
        "elapsed_us": float(r.sim_elapsed_us),
        "computations_per_second": float(r.computations_per_second),
    }
    return Outcome(CHAIN_LEN * p["n_calls"], fingerprint, {})


def _flow(sim, transport, i: int, src, dst, nbytes: int, delay_us: float,
          delivered: list) -> Generator:
    yield sim.timeout(delay_us)
    yield transport.send(src, dst, nbytes)
    delivered[i] = sim.now


def fabric(seed: int, size: str) -> Outcome:
    """Thousands of concurrent fluid flows on one island's NIC pairs.

    Each flow's NIC pair, size (log-normal, median 1 MiB, clipped to
    128 KiB..8 MiB) and arrival offset (uniform within 1 ms) come from
    ``seed``.  The window is far shorter than the drain time, so
    thousands of flows are live at once.  The unit is one delivered flow.
    """
    from repro import PathwaysSystem
    from repro.config import DEFAULT_CONFIG
    from repro.hw.cluster import ClusterSpec

    p = SIZES["fabric"][size]
    n_flows, hosts = p["n_flows"], p["hosts"]
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, hosts // 2, size=n_flows)
    sizes = np.clip(
        rng.lognormal(mean=np.log(1 << 20), sigma=0.75, size=n_flows),
        128 << 10, 8 << 20,
    ).astype(np.int64)
    offsets = rng.uniform(0.0, 1_000.0, size=n_flows)

    system = PathwaysSystem.build(
        ClusterSpec(islands=((hosts, 1),), name="e2e-fabric"),
        config=DEFAULT_CONFIG.with_overrides(
            net_contention=True, net_link_sharing="fair"
        ),
    )
    sim, transport = system.sim, system.transport
    island_hosts = system.cluster.islands[0].hosts
    delivered: list = [None] * n_flows
    procs = []
    for i in range(n_flows):
        pair = int(pairs[i])
        procs.append(sim.process(_flow(
            sim, transport, i, island_hosts[2 * pair], island_hosts[2 * pair + 1],
            int(sizes[i]), float(offsets[i]), delivered,
        )))
    sim.run_until_triggered(sim.all_of(procs))

    fab = system.stats().net.fabric
    n_delivered = n_flows - delivered.count(None)
    times = np.asarray([-1.0 if t is None else t for t in delivered], dtype="<f8")
    fingerprint = {
        "deliveries_sha256": hashlib.sha256(times.tobytes()).hexdigest(),
        "elapsed_us": float(sim.now),
        "peak_concurrent_flows": fab.peak_concurrent_flows,
    }
    invariants = {
        "every_flow_delivered": n_delivered == n_flows,
        "every_flow_completed": fab.flows_completed == n_flows,
    }
    return Outcome(n_delivered, fingerprint, invariants)


def churn(seed: int, size: str) -> Outcome:
    """Config-A multi-tenant training under seeded device churn.  The
    unit is one step executed, replays included."""
    from repro.workloads.churn import run_churn

    p = SIZES["churn"][size]
    r = run_churn(seed=seed, **p)
    fingerprint = {
        "useful_steps": r.useful_steps,
        "replayed_steps": r.replayed_steps,
        "faults_injected": r.faults_injected,
        "recoveries": r.recoveries,
        "remaps": r.remaps,
        "per_client_steps": dict(sorted(r.per_client_steps.items())),
        "elapsed_us": float(r.elapsed_us),
    }
    invariants = {
        "nothing_abandoned": not r.abandoned,
        "every_step_done": r.useful_steps == p["n_clients"] * p["steps_per_client"],
        "faults_injected": r.faults_injected > 0,
    }
    return Outcome(r.useful_steps + r.replayed_steps, fingerprint, invariants)


WORKLOADS: dict[str, Callable[[int, str], Outcome]] = {
    "serve": serve,
    "dispatch": dispatch,
    "fabric": fabric,
    "churn": churn,
}
