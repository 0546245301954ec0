"""Figure 8: aggregate throughput of concurrent programs.

1..256 clients each gang-schedule a computation over all 128 TPUs of
configuration B (16 hosts x 8), for per-computation device times of
0.04 / 0.33 / 1.04 / 2.4 ms.  Paper claims: Pathways reaches at least
JAX's aggregate throughput (no context-switch overhead) and exceeds
JAX's maximum for very small computations.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import Table, geometric_range
from repro.workloads.multitenant import run_jax_multitenant, run_pathways_multitenant

CLIENTS = geometric_range(1, 256)
COMPUTE_MS = [0.04, 0.33, 1.04, 2.4]


def sweep():
    results = {}
    for ms in COMPUTE_MS:
        us = ms * 1000
        for n in CLIENTS:
            iters = 8 if n <= 64 else 4
            pw = run_pathways_multitenant(n, us, iters_per_client=iters)
            jax = run_jax_multitenant(n, us, iters_per_client=iters)
            results[(ms, n)] = (
                pw.aggregate_computations_per_second,
                jax.aggregate_computations_per_second,
            )
    return results


def test_fig8_multitenancy():
    results = sweep()

    for ms in COMPUTE_MS:
        table = Table(
            f"Figure 8: aggregate computations/second, compute = {ms} ms "
            "(config B, 128 TPUs)",
            columns=["clients", "PW", "JAX"],
        )
        for n in CLIENTS:
            pw, jax = results[(ms, n)]
            table.add_row(n, pw, jax)
        table.show()

    # Every cell is a positive rate.
    assert all(pw > 0 and jax > 0 for pw, jax in results.values())
    # PW max exceeds JAX max for the smallest computation.
    pw_max = max(results[(0.04, n)][0] for n in CLIENTS)
    jax_max = max(results[(0.04, n)][1] for n in CLIENTS)
    assert pw_max > jax_max
    # For large computations both saturate at the device rate: PW matches
    # JAX within 10% (no context-switch overhead).
    pw_sat = max(results[(2.4, n)][0] for n in CLIENTS)
    jax_sat = max(results[(2.4, n)][1] for n in CLIENTS)
    assert pw_sat == pytest.approx(jax_sat, rel=0.1)
    # PW aggregate rises with client count (multi-tenancy works).
    assert results[(0.33, 64)][0] > 3 * results[(0.33, 1)][0]
