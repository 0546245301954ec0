"""Recovery overhead: goodput vs MTBF under device churn.

The paper motivates the single-controller design with operability at
scale; this bench quantifies it on the new resilience subsystem.  Three
tenants train on their own gang-scheduled slices of one island while a
seeded Poisson fault process kills (and later repairs) devices.  Swept:

* **MTBF** — per-device mean time between failures, from "reliable"
  (no faults) down to constant churn;
* **checkpointing** — periodic snapshot/restore vs replay-from-scratch;
* **policy under churn** — FIFO vs proportional share (1:2:4), showing
  the fairness machinery keeps working while gangs are evicted,
  remapped, and replayed.

Expected shape: goodput degrades monotonically as MTBF decreases, and
at high failure rates checkpoint-restore holds goodput at or above the
no-checkpoint baseline (which loses the whole run on every loss).
"""

from __future__ import annotations

from repro.bench.harness import Table
from repro.core.scheduler import ProportionalSharePolicy
from repro.workloads.churn import run_churn

#: Per-device MTBF sweep (µs), descending reliability; None = no faults.
MTBF_US = [None, 400_000.0, 100_000.0, 25_000.0]
CKPT_INTERVAL_US = 15_000.0
STATE_BYTES = 8 << 20
SEEDS = [1, 3]
STEPS = 30

#: Paper-scale sweep (ROADMAP "reliability studies at paper scale"):
#: goodput vs MTBF on the paper's configuration sizes, with tenants on
#: *aggregate* device groups (512-core gangs are represented by 16
#: simulated devices whose fault rates are scaled to preserve the
#: per-gang arrival rate — see ``run_churn``).
PAPER_MTBF_US = [None, 1_000_000.0, 400_000.0, 200_000.0]
#: label -> (n_hosts, devices_per_host, slice_devices)
PAPER_CONFIGS = {
    "A (512h x 4)": (512, 4, 512),
    "B (64h x 8)": (64, 8, 128),
}
PAPER_STEPS = 20


def _mean_goodput(mtbf_us, checkpoint_interval_us, seeds, policy=None):
    results = [
        run_churn(
            steps_per_client=STEPS,
            mtbf_us=mtbf_us,
            checkpoint_interval_us=checkpoint_interval_us,
            state_bytes=STATE_BYTES,
            seed=seed,
            policy=policy,
        )
        for seed in seeds
    ]
    goodput = sum(r.goodput_steps_per_second for r in results) / len(results)
    return goodput, results


def sweep():
    rows = []
    for mtbf in MTBF_US:
        no_ckpt, nr = _mean_goodput(mtbf, None, SEEDS)
        with_ckpt, cr = _mean_goodput(mtbf, CKPT_INTERVAL_US, SEEDS)
        rows.append(
            {
                "mtbf": mtbf,
                "no_ckpt": no_ckpt,
                "ckpt": with_ckpt,
                "faults": sum(r.faults_injected for r in cr) / len(cr),
                "replayed": sum(r.replayed_steps for r in cr) / len(cr),
                "ckpt_overhead_ms": sum(r.checkpoint_overhead_us for r in cr)
                / len(cr)
                / 1000.0,
                "abandoned": any(r.abandoned for r in nr + cr),
            }
        )

    # Scheduling policy under churn, at the middle of the sweep.
    churn_mtbf = MTBF_US[1]
    policy_rows = {}
    for label, policy in (
        ("FIFO", None),
        ("PS 1:2:4", ProportionalSharePolicy(
            {"tenant0": 1.0, "tenant1": 2.0, "tenant2": 4.0}
        )),
    ):
        goodput, results = _mean_goodput(
            churn_mtbf, CKPT_INTERVAL_US, SEEDS, policy=policy
        )
        policy_rows[label] = (goodput, results[0])
    return rows, policy_rows


def paper_scale_sweep():
    """Goodput vs MTBF at the paper's deployment sizes (aggregate gangs)."""
    rows = []
    for label, (n_hosts, per_host, slice_devices) in PAPER_CONFIGS.items():
        for mtbf in PAPER_MTBF_US:
            r = run_churn(
                n_clients=3,
                steps_per_client=PAPER_STEPS,
                slice_devices=slice_devices,
                n_hosts=n_hosts,
                devices_per_host=per_host,
                mtbf_us=mtbf,
                checkpoint_interval_us=CKPT_INTERVAL_US,
                state_bytes=STATE_BYTES,
                seed=1,
            )
            rows.append(
                {
                    "config": label,
                    "mtbf": mtbf,
                    "goodput": r.goodput_steps_per_second,
                    "useful": r.useful_steps,
                    "replayed": r.replayed_steps,
                    "faults": r.faults_injected,
                    "remaps": r.remaps,
                    "abandoned": bool(r.abandoned),
                }
            )
    return rows


def test_recovery_overhead():
    rows, policy_rows = sweep()

    table = Table(
        "Recovery overhead: goodput (useful steps/s) vs per-device MTBF "
        "(3 tenants x 4 TPUs + 4 spares, 2 ms steps)",
        columns=[
            "MTBF (ms)", "no ckpt", "ckpt", "faults", "replayed (ckpt)",
            "ckpt overhead (ms)",
        ],
    )
    for row in rows:
        table.add_row(
            "inf" if row["mtbf"] is None else row["mtbf"] / 1000.0,
            row["no_ckpt"],
            row["ckpt"],
            row["faults"],
            row["replayed"],
            row["ckpt_overhead_ms"],
        )
    table.show()

    ptable = Table(
        "Scheduling policy under churn (checkpointed)",
        columns=["policy", "goodput", "per-tenant useful steps"],
    )
    for label, (goodput, result) in policy_rows.items():
        ptable.add_row(
            label,
            goodput,
            " ".join(str(v) for v in result.per_client_steps.values()),
        )
    ptable.show()

    # Every tenant finished its run under every regime.
    assert not any(row["abandoned"] for row in rows)
    # Goodput degrades monotonically as MTBF decreases (checkpointed
    # series; the no-checkpoint baseline is noisier but bounded by it).
    ckpt_series = [row["ckpt"] for row in rows]
    assert all(a >= b for a, b in zip(ckpt_series, ckpt_series[1:])), ckpt_series
    # Checkpoint-restore recovers at least the no-checkpoint goodput at
    # the highest failure rate (and everywhere faults actually fire).
    for row in rows:
        if row["mtbf"] is not None:
            assert row["ckpt"] >= row["no_ckpt"] * 0.95, row
    # Fault-free runs beat every faulty regime.
    ideal = rows[0]
    assert ideal["mtbf"] is None
    for row in rows[1:]:
        assert ideal["ckpt"] >= row["ckpt"]
        assert ideal["no_ckpt"] >= row["no_ckpt"]
    # The policy machinery keeps functioning under churn.
    for label, (goodput, result) in policy_rows.items():
        assert goodput > 0 and not result.abandoned, label


def test_recovery_overhead_paper_scale():
    """The ROADMAP paper-scale item: goodput vs MTBF on config A/B sizes
    with aggregate device groups."""
    rows = paper_scale_sweep()

    table = Table(
        "Paper-scale recovery: goodput vs per-device MTBF "
        "(3 tenants on aggregate gangs, fault rate scaled to gang width)",
        columns=[
            "config", "MTBF (ms)", "goodput", "useful", "replayed",
            "faults", "remaps",
        ],
    )
    for row in rows:
        table.add_row(
            row["config"],
            "inf" if row["mtbf"] is None else row["mtbf"] / 1000.0,
            row["goodput"],
            row["useful"],
            row["replayed"],
            row["faults"],
            row["remaps"],
        )
    table.show()

    by_config: dict[str, list[dict]] = {}
    for row in rows:
        by_config.setdefault(row["config"], []).append(row)
    for label, series in by_config.items():
        # Every tenant finished every run (recovery handled aggregate
        # groups: no hangs, no abandonment at these rates).
        assert not any(r["abandoned"] for r in series), label
        # The fault-free baseline exists and beats every faulty regime.
        ideal = series[0]
        assert ideal["mtbf"] is None
        for row in series[1:]:
            assert row["goodput"] < ideal["goodput"], (label, row)
            # Faults actually fired and were recovered via remaps.
            assert row["faults"] > 0 and row["remaps"] > 0, (label, row)
        # Goodput degrades monotonically as MTBF decreases.
        goodputs = [r["goodput"] for r in series[1:]]
        assert all(a >= b for a, b in zip(goodputs, goodputs[1:])), (label, goodputs)
