"""Figure 10: pipelining across islands connected via DCN.

The S=16, M=64 pipelined 3B model achieves the same throughput on four
islands of 32 cores (configuration C, stages 0-3 per island, DCN between
stage groups) as on a single island of 128 cores (configuration B),
because cross-island activation transfers overlap with compute.  Also
renders the pipeline trace (forward wave, backward wave, bubble).
"""

from __future__ import annotations

import pytest

from repro.bench.harness import Table
from repro.core.system import PathwaysSystem
from repro.hw.cluster import ClusterSpec, config_c
from repro.models.pipeline import PipelineBuilder
from repro.models.transformer import DECODER_3B
from repro.telemetry import Tracer
from repro.telemetry.timeline import render_timeline

BATCH_TOKENS = 2048 * 1024
EFFICIENCY = 0.365
P3B = 3_000_000_000
PAPER_TOKENS_S = 131_400.0


def run_config_c():
    system = PathwaysSystem.build(config_c(), tracer=Tracer())
    builder = PipelineBuilder(
        system, DECODER_3B, 16, 64, 8, BATCH_TOKENS, EFFICIENCY,
        stage_islands=[s // 4 for s in range(16)], nominal_params=P3B,
    )
    result = builder.run(system.client("t"))
    return result, system


def run_config_b():
    system = PathwaysSystem.build(ClusterSpec(islands=((16, 8),), name="B16"))
    builder = PipelineBuilder(
        system, DECODER_3B, 16, 64, 8, BATCH_TOKENS, EFFICIENCY,
        nominal_params=P3B,
    )
    return builder.run(system.client("t"))


def sweep():
    rc, system_c = run_config_c()
    rb = run_config_b()
    return rc, rb, system_c


def test_fig10_island_pipeline(benchmark):
    rc, rb, system_c = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = Table(
        "Figure 10: 3B model, S=16 M=64 pipeline (tokens/s)",
        columns=["configuration", "islands", "paper", "measured"],
    )
    table.add_row("C (4 x 32 cores, DCN)", 4, PAPER_TOKENS_S, rc.tokens_per_second)
    table.add_row("B (1 x 128 cores)", 1, PAPER_TOKENS_S, rb.tokens_per_second)
    table.show()

    # One representative core per island: the pipeline wave + bubble.
    trace = system_c.sim.tracer
    devices = [isl.devices[0].device_id for isl in system_c.cluster.islands]
    print("\npipeline trace (one core per island; A..=fwd/bwd kernels):")
    print(render_timeline(trace, width=110, devices=devices, legend=False))
    dcn = Table("Figure 10: DCN traffic", columns=["configuration", "DCN bytes moved"])
    dcn.add_row("C (4 x 32 cores, DCN)", system_c.cluster.transport.bytes_sent)
    dcn.show()

    # The headline: same throughput across DCN as within one island.
    assert rc.tokens_per_second == pytest.approx(rb.tokens_per_second, rel=0.03)
    # And the DCN was genuinely exercised.
    assert system_c.cluster.transport.bytes_sent > 1e9
    # Calibration: within 10% of the paper's 131.4k tokens/s.
    assert rc.tokens_per_second == pytest.approx(PAPER_TOKENS_S, rel=0.10)
