"""Table 1: T5 training throughput, JAX multi-controller vs Pathways.

Runs each T5 configuration's SPMD training step on both systems over the
same simulated hardware.  The paper's claim is *identity*: realistic
computations are large enough to mask all single-controller overhead, so
JAX and Pathways columns match at every size.
"""

from __future__ import annotations

import pytest

from repro.baselines.multi_controller import MultiControllerJax
from repro.bench.harness import Table
from repro.config import DEFAULT_CONFIG
from repro.core.system import PathwaysSystem
from repro.hw.cluster import ClusterSpec, make_cluster
from repro.models.spmd import SpmdTrainer
from repro.models.t5 import T5_CONFIGS
from repro.sim import Simulator


def run_entry(entry, n_steps=3):
    trainer = SpmdTrainer(
        entry.config, entry.tpu_cores, entry.batch_tokens, entry.efficiency,
        nominal_params=entry.nominal_params,
    )
    fn = trainer.step_computation()
    spec = ClusterSpec(islands=((entry.tpu_cores // 4, 4),))

    sim = Simulator()
    jax = MultiControllerJax(sim, make_cluster(sim, spec), DEFAULT_CONFIG)
    proc = sim.process(jax.run_steps(fn, n_steps))
    start = sim.now
    sim.run_until_triggered(proc)
    jax_tps = entry.batch_tokens * n_steps / ((sim.now - start) / 1e6)

    system = PathwaysSystem.build(spec)
    pw_tps = trainer.run_on_pathways(system, system.client("t5"), n_steps)
    return jax_tps, pw_tps


def sweep():
    return {entry.name: run_entry(entry) for entry in T5_CONFIGS}


def test_table1_t5_throughput():
    results = sweep()

    table = Table(
        "Table 1: T5 training throughput (tokens/s)",
        columns=["Model", "Params", "TPU cores", "paper", "JAX (sim)", "PW (sim)"],
    )
    for entry in T5_CONFIGS:
        jax_tps, pw_tps = results[entry.name]
        table.add_row(
            entry.name, entry.params_label, entry.tpu_cores,
            entry.paper_tokens_per_s, jax_tps, pw_tps,
        )
    table.show()

    for entry in T5_CONFIGS:
        jax_tps, pw_tps = results[entry.name]
        # The headline claim: identical JAX and Pathways throughput.
        assert pw_tps == pytest.approx(jax_tps, rel=0.02), entry.name
        # Calibration sanity: within 10% of the paper's absolute number.
        assert pw_tps == pytest.approx(entry.paper_tokens_per_s, rel=0.10), entry.name
