"""Figure 12 (+ §5.3): 64B and 136B models data-parallel over two islands.

Each island holds one model-parallel replica; gradients reduce globally
over DCN, chunked and overlapped with backward compute.  Paper: ~97% of
the throughput of a single island with twice the devices; the 64B model
moves ~457 GB per step (1030 GB for 136B) for the global reduction.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import Table
from repro.core.system import PathwaysSystem
from repro.hw.cluster import ClusterSpec
from repro.models.data_parallel import DataParallelTrainer
from repro.models.transformer import DECODER_64B, DECODER_136B

CASES = [
    # (model, nominal params, cores/island, hosts/island, batch tokens/island)
    (DECODER_64B, 64_000_000_000, 512, 64, 131_072),
    (DECODER_136B, 136_000_000_000, 1024, 128, 131_072),
]
EFFICIENCY = 0.35
PAPER_EFFICIENCY = 0.972
PAPER_TOTAL_GB = {DECODER_64B.name: 457.0, DECODER_136B.name: 1030.0}


def run_case(model, params, cores, hosts, batch):
    spec = ClusterSpec(islands=((hosts, cores // hosts), (hosts, cores // hosts)))
    system = PathwaysSystem.build(spec)
    trainer = DataParallelTrainer(
        system, model, cores, batch, EFFICIENCY,
        n_chunks=8, nominal_params=params,
    )
    result = trainer.run(n_steps=2)
    # The transport moved every byte of the program's DCN edges: each
    # of an island's logical hosts sends its share, for 2 islands x 2 steps.
    assert system.transport.bytes_sent * hosts == result.dcn_bytes_per_island * 2 * 2
    single = trainer.single_island_equivalent_step_us()
    return result, single / result.step_time_us


def sweep():
    return {
        model.name: run_case(model, params, cores, hosts, batch)
        for model, params, cores, hosts, batch in CASES
    }


def test_fig12_two_island_data_parallel():
    results = sweep()

    table = Table(
        "Figure 12: two-island data parallelism over DCN",
        columns=[
            "model", "cores/island", "step (s)", "DCN total (GB)",
            "paper DCN (GB)", "efficiency", "paper eff.",
        ],
    )
    for (model, params, cores, hosts, batch) in CASES:
        result, efficiency = results[model.name]
        total_gb = 2 * result.dcn_bytes_per_island / 1e9
        table.add_row(
            model.name, cores, result.step_time_s, total_gb,
            PAPER_TOTAL_GB[model.name], efficiency, PAPER_EFFICIENCY,
        )
    table.show()

    for model, params, cores, hosts, batch in CASES:
        result, efficiency = results[model.name]
        # The headline: >= ~97% of the single-island-with-2x-devices rate.
        assert efficiency >= 0.95, model.name
        # Transfer volume in the paper's ballpark (ring-allreduce math).
        total_gb = 2 * result.dcn_bytes_per_island / 1e9
        assert total_gb == pytest.approx(PAPER_TOTAL_GB[model.name], rel=0.20)
        # The DCN time was genuinely overlapped, not absent.
        assert result.dcn_bytes_per_island > 1e11
