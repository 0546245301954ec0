"""Elasticity: goodput vs island add/drain rate (resilience subsystem).

The recovery-overhead bench measures the *shrink* half of the paper's
operability story; this one measures the *grow* half and the graceful
alternative to abrupt loss:

* **Scale-up** — an elastic data-parallel trainer starts on one island;
  mid-run, ``PathwaysSystem.add_island`` introduces capacity and the
  trainer widens its replica count at the next checkpoint boundary —
  re-binding virtual devices through the resource manager and
  re-entering the schedulers' consistent enqueue order.
* **Drain vs kill** — the same periodic island preemption is delivered
  either with an advance notice (the ElasticController drains the
  island: checkpoint, vacate, handback — nothing lost) or abruptly
  (in-flight gangs die, the trainer rolls back to its last snapshot and
  replays).  Swept over the preemption rate.

Expected shape: DP width observably grows after ``add_island``; at every
preemption rate the drain/handback path yields strictly higher goodput
than abrupt preemption, and the gap widens with the rate.
"""

from __future__ import annotations

from repro.bench.harness import Table
from repro.core.system import PathwaysSystem
from repro.hw.cluster import ClusterSpec
from repro.models.data_parallel import ElasticDataParallelTrainer
from repro.models.transformer import TransformerConfig
from repro.resilience import (
    CheckpointManager,
    ElasticController,
    FaultInjector,
    FaultSchedule,
    RecoveryManager,
)

MODEL = TransformerConfig(
    name="dp-bench", n_layers=4, d_model=256, d_ff=1024, n_heads=8,
    vocab_size=32_000, seq_len=1024,
)
DEVICES_PER_REPLICA = 4
BATCH_TOKENS = 16_384
EFFICIENCY = 0.5
CKPT_INTERVAL_US = 20_000.0
STATE_BYTES = 4 << 20
#: Preemption cycles within the measured horizon (the drain rate sweep).
RATES = [1, 2, 3]
STEPS = 40
NOTICE_US = 15_000.0


def _trainer(system) -> ElasticDataParallelTrainer:
    ckpt = CheckpointManager(
        system, CKPT_INTERVAL_US, state_bytes=STATE_BYTES, name="edp-ckpt"
    )
    trainer = ElasticDataParallelTrainer(
        system,
        MODEL,
        devices_per_replica=DEVICES_PER_REPLICA,
        batch_tokens_per_replica=BATCH_TOKENS,
        efficiency=EFFICIENCY,
        checkpoint=ckpt,
        n_chunks=8,
    )
    system.elastic.register(trainer)
    return trainer


def run_scale_up(n_steps: int):
    """One island -> two: capacity added mid-run, width grows."""
    system = PathwaysSystem.build(ClusterSpec(islands=((1, 4),), name="grow"))
    RecoveryManager(system)
    ElasticController(system)
    trainer = _trainer(system)
    # Size the add to land mid-run: roughly a third of the fixed-width
    # runtime (the trainer only widens at a checkpoint boundary after).
    eta_us = n_steps * trainer.step_compute_us()
    system.sim.timeout(eta_us / 3).add_callback(
        lambda ev: system.add_island(1, 4)
    )
    return trainer.run(n_steps)


def run_preempted(n_steps: int, cycles: int, graceful: bool):
    """Two islands, island 1 preempted ``cycles`` times over the run."""
    system = PathwaysSystem.build(
        ClusterSpec(islands=((1, 4), (1, 4)), name="drain")
    )
    recovery = RecoveryManager(system)
    ElasticController(system)
    trainer = _trainer(system)
    # Horizon estimate at full width; preemptions spread evenly over it.
    eta_us = n_steps * trainer.step_compute_us() / 2
    period_us = eta_us / (cycles + 1)
    duration_us = period_us / 3
    schedule = FaultSchedule()
    for c in range(cycles):
        # Align the *hardware loss* instant across the two regimes: the
        # graceful run's notice arrives NOTICE_US earlier.
        loss_at = (c + 1) * period_us
        if graceful:
            schedule.island_preemption(
                max(0.0, loss_at - NOTICE_US), 1, duration_us, notice_us=NOTICE_US
            )
        else:
            schedule.island_preemption(loss_at, 1, duration_us)
    FaultInjector(recovery, schedule)
    return trainer.run(n_steps)


def sweep():
    grown = run_scale_up(STEPS)
    rows = []
    for cycles in RATES:
        drained = run_preempted(STEPS, cycles, graceful=True)
        killed = run_preempted(STEPS, cycles, graceful=False)
        rows.append({"cycles": cycles, "drain": drained, "kill": killed})
    return grown, rows


def test_elasticity():
    grown, rows = sweep()

    wtable = Table(
        "Elastic scale-up: DP width over one run (island added mid-run)",
        columns=["t (ms)", "width"],
    )
    for t_us, width in grown.width_history:
        wtable.add_row(t_us / 1000.0, width)
    wtable.show()

    table = Table(
        "Drain/handback vs abrupt preemption: goodput (Mtokens/s) vs "
        "preemption cycles per run (2 islands x 4 TPUs)",
        columns=[
            "cycles", "drain", "kill", "drain replayed", "kill replayed",
            "drain rollback", "kill rollback",
        ],
    )
    for row in rows:
        table.add_row(
            row["cycles"],
            row["drain"].goodput_tokens_per_second / 1e6,
            row["kill"].goodput_tokens_per_second / 1e6,
            row["drain"].replayed_steps,
            row["kill"].replayed_steps,
            row["drain"].rollback_steps,
            row["kill"].rollback_steps,
        )
    table.show()

    # DP width observably grows mid-run after add_island.
    assert grown.useful_steps == STEPS
    assert grown.width_history[0][1] == 1
    assert grown.max_width == 2
    t_grow = next(t for t, w in grown.width_history if w == 2)
    assert 0.0 < t_grow < grown.elapsed_us, grown.width_history
    # Step identity is preserved: every step index executed exactly once.
    assert [i for i, _ in grown.step_log] == list(range(STEPS))

    for row in rows:
        drained, killed = row["drain"], row["kill"]
        assert drained.useful_steps == STEPS and killed.useful_steps == STEPS
        # Graceful drain loses nothing; abrupt preemption rolls back.
        assert drained.rollback_steps == 0, row["cycles"]
        assert killed.losses >= 1, row["cycles"]
        # The headline: drain/handback strictly beats abrupt preemption.
        assert (
            drained.goodput_tokens_per_second > killed.goodput_tokens_per_second
        ), (row["cycles"], drained.goodput_tokens_per_second,
            killed.goodput_tokens_per_second)
