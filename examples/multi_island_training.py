"""Training a 64B-parameter model across two TPU islands over DCN (§5.3).

Each island of 512 cores holds one model-parallel replica of the 64B
decoder; the global batch is split between them and gradients reduce
over the datacenter network each step.  The transfer is chunked so it
overlaps the backward pass — the mechanism behind the paper's ~97%
two-island scaling efficiency and Figure 12's trace.  Each step is one
Pathways program, so it also pays the controller's dispatch.

Run:  python examples/multi_island_training.py
"""

from __future__ import annotations

from repro import PathwaysSystem
from repro.hw.cluster import ClusterSpec
from repro.models.data_parallel import DataParallelTrainer
from repro.models.transformer import DECODER_64B

CORES_PER_ISLAND = 512
HOSTS_PER_ISLAND = 64
BATCH_TOKENS_PER_ISLAND = 131_072
EFFICIENCY = 0.35


def main() -> None:
    spec = ClusterSpec(
        islands=((HOSTS_PER_ISLAND, CORES_PER_ISLAND // HOSTS_PER_ISLAND),) * 2,
        name="2x512",
    )
    system = PathwaysSystem.build(spec)
    print(f"cluster: 2 islands x {CORES_PER_ISLAND} TPUs "
          f"({HOSTS_PER_ISLAND} hosts each), DCN between islands")
    print(f"model: {DECODER_64B.name} ({DECODER_64B.params / 1e9:.1f}B params)\n")

    for n_chunks, label in ((1, "unchunked (no overlap)"), (8, "chunked (overlapped)")):
        trainer = DataParallelTrainer(
            system, DECODER_64B, CORES_PER_ISLAND, BATCH_TOKENS_PER_ISLAND,
            EFFICIENCY, n_chunks=n_chunks, nominal_params=64_000_000_000,
        )
        result = trainer.run(n_steps=2)
        single = trainer.single_island_equivalent_step_us()
        print(f"gradient exchange {label}:")
        print(f"  step time        : {result.step_time_s:.2f} s")
        print(f"  DCN per island   : {result.dcn_bytes_per_island / 1e9:.0f} GB "
              f"({2 * result.dcn_bytes_per_island / 1e9:.0f} GB total; "
              f"paper: 457 GB)")
        print(f"  exposed time     : {result.exposed_us / 1e6:.3f} s "
              f"(DCN transfer + step dispatch)")
        print(f"  efficiency vs single island of {2 * CORES_PER_ISLAND} cores: "
              f"{single / result.step_time_us:.1%}  (paper: ~97%)\n")


if __name__ == "__main__":
    main()
