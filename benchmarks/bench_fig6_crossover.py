"""Figure 6: smallest computation where Pathways matches JAX throughput.

Sweeps per-computation device time for 16 hosts / 128 TPUs
(configuration B) and 512 hosts / 2048 TPUs (configuration A), reporting
the PW/JAX throughput ratio and the measured convergence point.  Paper:
~2.3 ms at 16 hosts, ~35 ms at 512 hosts.
"""

from __future__ import annotations

from repro.bench.harness import Table
from repro.core.system import PathwaysSystem
from repro.workloads.microbench import _spec, run_jax
from repro.xla.computation import scalar_allreduce_add

SWEEP_MS = [0.1, 0.33, 1.0, 2.4, 5.0, 10.0, 20.0, 35.0, 50.0, 100.0]
CONFIGS = [(16, 8, "B"), (512, 4, "A")]
PARITY = 0.90


def pathways_throughput(hosts, dph, compute_us, n_iters=20):
    system = PathwaysSystem.build(_spec(hosts, dph))
    client = system.client("bench")
    n = hosts * dph
    devs = system.make_virtual_device_set().add_slice(tpu_devices=n)
    step = client.wrap(scalar_allreduce_add(n, compute_us), devices=devs)
    driver = system.sim.process(
        client.drive_pipelined(step.solo_program, (0.0,), n_iters=n_iters)
    )
    start = system.sim.now
    system.sim.run_until_triggered(driver)
    return n_iters / ((system.sim.now - start) / 1e6)


def sweep():
    results = {}
    for hosts, dph, label in CONFIGS:
        rows = []
        for ms in SWEEP_MS:
            us = ms * 1000
            jax = run_jax(
                "opbyop", hosts, devices_per_host=dph,
                compute_time_us=us, n_calls=25,
            ).computations_per_second
            pw = pathways_throughput(hosts, dph, us)
            rows.append((ms, jax, pw, pw / jax))
        results[label] = rows
    return results


def convergence_ms(rows):
    for ms, _, _, ratio in rows:
        if ratio >= PARITY:
            return ms
    return float("inf")


def test_fig6_crossover():
    results = sweep()

    for (hosts, dph, label), rows in zip(CONFIGS, results.values()):
        table = Table(
            f"Figure 6: config {label} ({hosts} hosts, {hosts*dph} TPUs)",
            columns=["compute (ms)", "JAX (comp/s)", "PW (comp/s)", "PW/JAX"],
        )
        for row in rows:
            table.add_row(*row)
        table.show()

    conv_b = convergence_ms(results["B"])
    conv_a = convergence_ms(results["A"])
    table = Table(
        f"Figure 6: convergence (PW >= {PARITY:.0%} of JAX)",
        columns=["config", "convergence (ms)", "paper (ms)"],
    )
    table.add_row("B", conv_b, 2.4)
    table.add_row("A", conv_a, 35.0)
    table.show()

    # Parity exists at config B (~2.4 ms point).
    assert conv_b <= 5.0
    # Shape: the parity point grows ~15x from 16 to 512 hosts.
    assert 20.0 <= conv_a <= 100.0
    assert conv_a > 5 * conv_b
