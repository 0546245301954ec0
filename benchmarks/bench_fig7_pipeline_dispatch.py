"""Figure 7: parallel vs sequential asynchronous dispatch.

Each of S pipeline stages runs on 4 TPU cores of a different host,
forwarding data over ICI.  Parallel dispatch amortizes the fixed client
and scheduling overheads as S grows; sequential dispatch pays a full
controller round per node and stays flat.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import Table, geometric_range
from repro.core.system import DispatchMode
from repro.workloads.microbench import run_pathways_pipeline_chain

STAGES = geometric_range(1, 128)


def sweep():
    rows = []
    for s in STAGES:
        par = run_pathways_pipeline_chain(s, n_calls=8)
        seq = run_pathways_pipeline_chain(s, n_calls=3, mode=DispatchMode.SEQUENTIAL)
        rows.append((s, par, seq))
    return rows


def test_fig7_parallel_vs_sequential():
    rows = sweep()

    table = Table(
        "Figure 7: computations/second vs pipeline stages (4 TPU cores/stage)",
        columns=["stages", "parallel", "sequential"],
    )
    for row in rows:
        table.add_row(*row)
    table.show()

    by_stage = {s: (p, q) for s, p, q in rows}
    # Both modes converge at one stage.
    p1, s1 = by_stage[1]
    assert p1 == pytest.approx(s1, rel=0.25)
    # Parallel dispatch amortizes the fixed client overhead with stages...
    assert by_stage[16][0] > 4 * p1
    # ...while sequential stays flat.
    assert by_stage[128][1] == pytest.approx(s1, rel=0.25)
    # At depth, parallel sustains a multiple of sequential throughput.
    assert by_stage[128][0] > 3 * by_stage[128][1]
