"""Pipelined training of the paper's 3B-parameter Transformer (§5.3).

Splits the 62-layer decoder into pipeline stages placed on separate
virtual slices — optionally on separate *islands* connected by DCN
(Figure 10's configuration C) — builds the GPipe schedule as one
Pathways program, and measures tokens/second.  The pipeline bubble is
not computed from a formula: it emerges from the simulated devices'
non-preemptible FIFOs and the data-dependency gates.

Run:  python examples/pipeline_transformer.py
"""

from __future__ import annotations

from repro import PathwaysSystem
from repro.hw.cluster import ClusterSpec, config_c
from repro.models.pipeline import PipelineBuilder
from repro.models.transformer import DECODER_3B

BATCH_TOKENS = 2048 * 1024   # 2048 examples x 1024-token sequences
EFFICIENCY = 0.365           # calibrated against Table 2 (EXPERIMENTS.md)
NOMINAL_PARAMS = 3_000_000_000


def run_single_island() -> None:
    print("== Single island: 128 TPUs, S=16 stages, M=64 microbatches ==")
    system = PathwaysSystem.build(ClusterSpec(islands=((16, 8),), name="B"))
    builder = PipelineBuilder(
        system, DECODER_3B, n_stages=16, n_microbatches=64, cores_per_stage=8,
        batch_tokens=BATCH_TOKENS, efficiency=EFFICIENCY,
        nominal_params=NOMINAL_PARAMS,
    )
    result = builder.run(system.client("train"))
    print(f"  {result}")
    print(f"  (paper: 131.4k tokens/s)")


def run_four_islands() -> None:
    print("\n== Four islands of 32 TPUs over DCN (configuration C) ==")
    system = PathwaysSystem.build(config_c())
    builder = PipelineBuilder(
        system, DECODER_3B, n_stages=16, n_microbatches=64, cores_per_stage=8,
        batch_tokens=BATCH_TOKENS, efficiency=EFFICIENCY,
        stage_islands=[stage // 4 for stage in range(16)],
        nominal_params=NOMINAL_PARAMS,
    )
    result = builder.run(system.client("train"))
    print(f"  {result}")
    print(f"  DCN traffic: {system.cluster.transport.bytes_sent / 1e9:.1f} GB "
          f"in {system.cluster.transport.messages_sent} messages")
    print("  (paper: same 131.4k tokens/s as the single island — DCN")
    print("   transfers overlap with compute)")


def main() -> None:
    print(f"model: {DECODER_3B.name} — {DECODER_3B.n_layers} layers, "
          f"d_model {DECODER_3B.d_model}, d_ff {DECODER_3B.d_ff}, "
          f"{DECODER_3B.params / 1e9:.2f}B params\n")
    run_single_island()
    run_four_islands()


if __name__ == "__main__":
    main()
