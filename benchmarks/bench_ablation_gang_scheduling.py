"""Ablation: centralized gang scheduling on vs off.

The paper's §2/§4.4 argument: without a centralized scheduler imposing a
consistent enqueue order, concurrent programs with collectives deadlock
non-preemptible accelerators.  With it, they interleave safely and
efficiently.  This bench demonstrates both halves.
"""

from __future__ import annotations

from repro.bench.harness import Table
from repro.config import DEFAULT_CONFIG
from repro.hw.cluster import ClusterSpec, make_cluster
from repro.hw.device import CollectiveRendezvous, Kernel
from repro.sim import DeadlockError, Simulator
from repro.workloads.multitenant import run_pathways_multitenant


def run_without_scheduler(n_programs=4, n_steps=5):
    """Clients enqueue gang collectives directly, per device with no
    central ordering: each host's enqueue RPCs interleave, so devices
    observe the programs in inconsistent orders — the multi-controller
    failure mode for shared accelerators."""
    sim = Simulator()
    cluster = make_cluster(sim, ClusterSpec(islands=((2, 4),)), config=DEFAULT_CONFIG)
    devices = cluster.devices
    all_kernels = []

    def client(idx):
        # Each client visits devices in a different rotation, pausing
        # between per-device enqueues (network jitter): orders diverge.
        rotation = devices[idx:] + devices[:idx]
        for step in range(n_steps):
            coll = CollectiveRendezvous(
                sim, participants=len(devices), duration_us=10.0,
                name=f"c{idx}s{step}",
            )
            for dev in rotation:
                kernel = Kernel(sim, duration_us=5.0, collective=coll)
                dev.enqueue(kernel)
                all_kernels.append(kernel)
                yield sim.timeout(0.5 + 0.1 * idx)
            yield sim.timeout(1.0)

    clients = [sim.process(client(i), name=f"client{i}") for i in range(n_programs)]
    try:
        sim.run_until_triggered(sim.all_of(clients), limit=1e8)
        done = sim.all_of([k.done for k in all_kernels])
        sim.run_until_triggered(done, limit=1e8)
        return ("completed", 0)
    except (TimeoutError, DeadlockError):
        stuck = sum(1 for k in all_kernels if not k.done.triggered)
        return ("deadlock", stuck)


def run_with_scheduler():
    res = run_pathways_multitenant(
        4, 330.0, n_hosts=2, devices_per_host=4, iters_per_client=5,
        aggregate_threshold=64,
    )
    return res.aggregate_computations_per_second


def sweep():
    return run_without_scheduler(), run_with_scheduler()


def test_ablation_gang_scheduling():
    (no_sched_outcome, stuck), with_sched_tput = sweep()

    table = Table(
        "Ablation: gang scheduling (4 concurrent collective programs, 8 TPUs)",
        columns=["configuration", "outcome"],
    )
    table.add_row("no centralized scheduler", f"{no_sched_outcome} ({stuck} stuck)")
    table.add_row("Pathways gang scheduler", f"{with_sched_tput:,.0f} computations/s")
    table.show()

    assert no_sched_outcome == "deadlock"
    assert with_sched_tput > 0
