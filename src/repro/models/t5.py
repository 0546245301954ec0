"""Table 1: the T5 text-to-text Transformer family (Raffel et al. 2019).

Architecture shapes follow the T5 paper; parameter labels follow the
Pathways paper's Table 1.  ``efficiency`` is the per-model fraction of
peak FLOP/s calibrated so that the *simulated* step (compute plus the
explicit 2-D-sharded collective model) reproduces the paper's measured
JAX throughput on TPUv3 (recorded per entry, audited in EXPERIMENTS.md).  What the
reproduction then *tests* is the paper's actual claim: JAX and Pathways
achieve identical throughput at every size, because realistic step times
mask all single-controller overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.transformer import TransformerConfig

__all__ = ["T5_CONFIGS", "T5Entry"]


@dataclass(frozen=True)
class T5Entry:
    """One Table 1 row."""

    config: TransformerConfig
    params_label: str            # the paper's headline size
    nominal_params: int          # the paper's parameter count (drives FLOPs)
    tpu_cores: int
    paper_tokens_per_s: float    # identical for JAX and Pathways in Table 1
    efficiency: float            # implied fraction of peak (calibration)
    batch_tokens: int            # tokens per training step

    @property
    def name(self) -> str:
        return self.config.name


def _t5(name: str, n_layers: int, d_model: int, d_ff: int, n_heads: int) -> TransformerConfig:
    return TransformerConfig(
        name=name,
        n_layers=n_layers,
        d_model=d_model,
        d_ff=d_ff,
        n_heads=n_heads,
        kind="encdec",
        seq_len=512,
    )


#: Table 1 rows.  ``efficiency`` = tokens/s x 6 x params / (cores x peak).
T5_CONFIGS: list[T5Entry] = [
    T5Entry(
        config=_t5("T5-Base", 12, 768, 3072, 12),
        params_label="270M",
        nominal_params=270_000_000,
        tpu_cores=32,
        paper_tokens_per_s=618_000.0,
        efficiency=0.677,
        batch_tokens=65_536,
    ),
    T5Entry(
        config=_t5("T5-Large", 24, 1024, 4096, 16),
        params_label="770M",
        nominal_params=770_000_000,
        tpu_cores=32,
        paper_tokens_per_s=90_400.0,
        efficiency=0.240,
        batch_tokens=65_536,
    ),
    T5Entry(
        config=_t5("T5-3B", 24, 1024, 16384, 32),
        params_label="3B",
        nominal_params=3_000_000_000,
        tpu_cores=512,
        paper_tokens_per_s=282_800.0,
        efficiency=0.179,
        batch_tokens=262_144,
    ),
    T5Entry(
        config=_t5("T5-11B", 24, 1024, 65536, 128),
        params_label="11B",
        nominal_params=11_000_000_000,
        tpu_cores=512,
        paper_tokens_per_s=84_800.0,
        efficiency=0.184,
        batch_tokens=262_144,
    ),
]
