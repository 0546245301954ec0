"""Figure 5: dispatch overhead of Pathways vs TF, JAX, and Ray.

Reproduces the computations/second-vs-hosts sweep for all ten series
(JAX-F, PW-F, PW-C, JAX-O, Ray-F, TF-C, PW-O, Ray-C, Ray-O, TF-O) over
2..512 hosts of configuration A (4 TPUs/host).  The computation is a
single scalar AllReduce followed by a scalar addition; chains/fusions
are 128 long, as in the paper.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import Series, Table, geometric_range
from repro.workloads.microbench import run_jax, run_pathways, run_ray, run_tf

HOSTS = geometric_range(2, 512)


def sweep() -> list[Series]:
    series = {
        label: Series(label)
        for label in (
            "JAX-F", "PW-F", "PW-C", "JAX-O", "Ray-F",
            "TF-C", "PW-O", "Ray-C", "Ray-O", "TF-O",
        )
    }
    for h in HOSTS:
        series["JAX-F"].add(h, run_jax("fused", h, n_calls=15).computations_per_second)
        series["JAX-O"].add(h, run_jax("opbyop", h, n_calls=30).computations_per_second)
        series["PW-F"].add(h, run_pathways("fused", h, n_calls=8).computations_per_second)
        series["PW-C"].add(h, run_pathways("chained", h, n_calls=4).computations_per_second)
        series["PW-O"].add(h, run_pathways("opbyop", h, n_calls=8).computations_per_second)
        series["TF-C"].add(h, run_tf("chained", h).computations_per_second)
        series["TF-O"].add(h, run_tf("opbyop", h).computations_per_second)
        series["Ray-F"].add(h, run_ray("fused", h).computations_per_second)
        series["Ray-C"].add(h, run_ray("chained", h).computations_per_second)
        series["Ray-O"].add(h, run_ray("opbyop", h).computations_per_second)
    return list(series.values())


def test_fig5_dispatch_overhead():
    all_series = sweep()

    table = Table(
        "Figure 5: computations/second vs number of hosts (config A, 4 TPU/host)",
        columns=["hosts"] + [s.label for s in all_series],
    )
    for i, h in enumerate(HOSTS):
        table.add_row(h, *(s.points[i][1] for s in all_series))
    table.show()

    by = {s.label: s for s in all_series}
    # Every series produced a positive throughput at every swept host
    # count.
    for s in all_series:
        assert len(s.points) == len(HOSTS)
        assert all(y > 0 for _, y in s.points), s.label
    # PW-F matches JAX-F for small host counts.
    assert by["PW-F"].y_at(2) == pytest.approx(by["JAX-F"].y_at(2), rel=0.25)
    # Single-controller systems (TF, Ray OpByOp) trail Pathways everywhere.
    for h in HOSTS:
        assert by["PW-C"].y_at(h) > by["TF-C"].y_at(h)
        assert by["PW-C"].y_at(h) > by["Ray-O"].y_at(h)
    # PW-C outperforms JAX-O up to ~256 cores (64 hosts at 4/host).
    assert by["PW-C"].y_at(64) > by["JAX-O"].y_at(64)
    # TF-O is the worst series at scale.
    others = [s for s in all_series if s.label != "TF-O"]
    assert all(by["TF-O"].y_at(512) < s.y_at(512) for s in others)
