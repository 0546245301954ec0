"""Figures 9 & 11: gang-scheduled interleaving traces + proportional share.

Renders ASCII per-core timelines of four concurrent clients on one
island, for scheduler weight ratios 1:1:1:1 and 1:2:4:8, and checks the
measured device-time shares against the targets.  Also reproduces the
Figure 11 utilization claim: more concurrent clients drive devices to
~100% busy when a single client cannot.
"""

from __future__ import annotations

import math

import pytest

from repro.bench.harness import Table
from repro.telemetry.timeline import (
    interleave_granularity_us,
    kernel_devices,
    kernel_span_range,
    program_share,
    render_timeline,
    utilization_by_device,
)
from repro.workloads.multitenant import run_pathways_multitenant

WEIGHT_SETS = ([1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 4.0, 8.0])
UTIL_CLIENTS = (1, 4, 16)


def run_fairness(wts):
    weights = {f"client{i}": w for i, w in enumerate(wts)}
    return run_pathways_multitenant(
        4, 2000.0, n_hosts=2, devices_per_host=8, iters_per_client=25,
        weights=weights, with_trace=True, pipelined=True,
        scale_iters_by_weight=True,
    )


def run_all():
    fairness = {tuple(wts): run_fairness(wts) for wts in WEIGHT_SETS}
    utilization = {
        n: run_pathways_multitenant(
            n, 330.0, n_hosts=2, devices_per_host=8, iters_per_client=20,
            with_trace=True, pipelined=True,
        )
        for n in UTIL_CLIENTS
    }
    return fairness, utilization


def test_fig9_fairness_traces():
    fairness, utilization = run_all()

    share_table = Table(
        "Figure 9: proportional share", columns=["weights", "client", "share", "target"]
    )
    gran_table = Table(
        "Figure 9: interleave granularity", columns=["weights", "granularity (ms)"]
    )
    for wts, res in fairness.items():
        trace = res.system_handle.sim.tracer
        lo, hi = kernel_span_range(trace)
        window = (lo + 0.1 * (hi - lo), lo + 0.8 * (hi - lo))
        shares = program_share(trace, window=window)
        total = sum(wts)
        ratio = ":".join(str(int(w)) for w in wts)
        print(f"\n== Figure 9: proportional share {ratio} ==")
        print(render_timeline(trace, width=100, devices=kernel_devices(trace)[:4]))
        for i, w in enumerate(wts):
            measured = shares.get(f"step_client{i}_solo", 0.0)
            share_table.add_row(ratio, f"client{i}", measured, w / total)
            assert measured == pytest.approx(w / total, abs=0.05)
        gran = interleave_granularity_us(trace)
        gran_table.add_row(ratio, gran / 1000)
        assert gran < 20_000.0
    share_table.show()
    gran_table.show()

    util_table = Table(
        "Figure 11: utilization vs concurrent clients (0.33 ms)",
        columns=["clients", "mean device utilization"],
    )
    utils = {}
    for n, res in utilization.items():
        u = utilization_by_device(res.system_handle.sim.tracer)
        utils[n] = math.fsum(u.values()) / len(u)
        util_table.add_row(n, utils[n])
    util_table.show()
    # A single client cannot saturate; many clients approach ~100%.
    assert utils[1] < 0.5
    assert utils[16] > 0.85
