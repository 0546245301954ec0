"""Ablation: accelerator-resident object store vs client data returns.

The paper attributes TF's and Ray's OpByOp gaps largely to the lack of a
device object store: results must move device -> host DRAM (Ray) or all
the way back to the client over DCN (TF1) before the next computation
can reference them.  This bench runs the same chained workload under the
three data-management regimes.
"""

from __future__ import annotations

from repro.bench.harness import Table
from repro.config import DEFAULT_CONFIG
from repro.hw.cluster import ClusterSpec, make_cluster
from repro.hw.device import Kernel
from repro.sim import Simulator

N_STEPS = 60
RESULT_BYTES = 4 << 20  # 4 MiB intermediate, to make movement visible


def run_regime(regime: str) -> float:
    """Chain of computations; between steps the intermediate either stays
    in HBM (pathways), round-trips to host DRAM (ray), or returns to the
    client over DCN (tf1)."""
    sim = Simulator()
    config = DEFAULT_CONFIG
    cluster = make_cluster(sim, ClusterSpec(islands=((2, 4),)), config=config)
    dev = cluster.devices[0]

    def driver():
        for _ in range(N_STEPS):
            kernel = Kernel(sim, duration_us=50.0)
            dev.enqueue(kernel)
            yield kernel.done
            if regime == "hbm_store":
                continue  # handle stays on-device; nothing moves
            if regime == "dram_store":
                yield sim.timeout(
                    config.ray_object_store_put_us
                    + RESULT_BYTES / config.gpu_dram_bytes_per_us
                )
            elif regime == "client_return":
                # TF1 fetch: device -> host DRAM over PCIe, then host ->
                # client over DCN, plus the client's next feed RPC.
                yield sim.timeout(
                    RESULT_BYTES / config.gpu_dram_bytes_per_us
                    + 2 * config.dcn_latency_us
                    + RESULT_BYTES / config.dcn_bytes_per_us
                )

    proc = sim.process(driver())
    start = sim.now
    sim.run_until_triggered(proc)
    return N_STEPS / ((sim.now - start) / 1e6)


def sweep():
    return {
        "hbm_store": run_regime("hbm_store"),
        "dram_store": run_regime("dram_store"),
        "client_return": run_regime("client_return"),
    }


def test_ablation_object_store():
    results = sweep()

    table = Table(
        "Ablation: data management for a 4 MiB intermediate (steps/s)",
        columns=["regime", "steps/s"],
    )
    table.add_row("HBM object store (Pathways)", results["hbm_store"])
    table.add_row("host-DRAM store (Ray-style)", results["dram_store"])
    table.add_row("client return (TF1-style)", results["client_return"])
    table.show()

    assert results["hbm_store"] > 2 * results["dram_store"]
    assert results["dram_store"] > results["client_return"]
