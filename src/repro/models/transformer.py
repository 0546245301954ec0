"""Transformer model configurations and analytic cost models.

Parameter counts use the standard decomposition (attention 4·d², MLP
2·d·d_ff per layer, plus embeddings); training FLOPs use the 6·N·tokens
rule (2·N forward, 4·N backward).  The paper's 3B decoder config (62
layers, d_model 2048, d_ff 8192 → 3.1B parameters, §5.3) validates the
formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Literal

__all__ = [
    "DECODER_136B",
    "DECODER_3B",
    "DECODER_64B",
    "TransformerConfig",
]


@dataclass(frozen=True)
class TransformerConfig:
    """One Transformer architecture."""

    name: str
    n_layers: int               # decoder layers (per stack for enc-dec)
    d_model: int
    d_ff: int
    n_heads: int
    vocab_size: int = 32_000
    seq_len: int = 1024
    kind: Literal["decoder", "encdec"] = "decoder"

    # -- sizes --------------------------------------------------------------
    @property
    def params_per_layer(self) -> int:
        attn = 4 * self.d_model * self.d_model
        mlp = 2 * self.d_model * self.d_ff
        cross = attn if self.kind == "encdec" else 0  # decoder cross-attn
        return attn + mlp + cross // 2  # half the layers carry cross-attn

    @property
    def n_total_layers(self) -> int:
        return self.n_layers * (2 if self.kind == "encdec" else 1)

    @property
    def embedding_params(self) -> int:
        return self.vocab_size * self.d_model

    @cached_property
    def params(self) -> int:
        return self.n_total_layers * self.params_per_layer + self.embedding_params

    # -- inference (the serving subsystem's cost model) --------------------
    def infer_step_time_us(
        self,
        tokens: int,
        n_devices: int,
        flops_per_us: float,
        efficiency: float,
    ) -> float:
        """Time of one inference-mode transformer step over ``tokens``
        total batched tokens on ``n_devices`` model-parallel cores.

        Linear in the batched token count: continuous batching works
        because decoding requests coalesced into one gang amortize the
        per-step weight traffic — the same reason the dense-layer
        efficiency factor applies.
        """
        if n_devices < 1:
            raise ValueError(f"need >= 1 device, got {n_devices}")
        if tokens < 0:
            raise ValueError(f"negative token count {tokens}")
        return 2.0 * self.params * tokens / (n_devices * flops_per_us * efficiency)

    # -- partitioning helpers --------------------------------------------
    def stage_params(self, n_stages: int) -> int:
        """Parameters per balanced pipeline stage.

        The paper balances stages by moving one Transformer layer out of
        the first and last stages to offset the embedding and softmax
        layers; for the cost model, an even split of total parameters is
        the equivalent statement.
        """
        if n_stages < 1:
            raise ValueError(f"invalid stage count {n_stages}")
        if self.n_total_layers % n_stages not in (0,) and n_stages > self.n_total_layers:
            raise ValueError(
                f"{self.name}: cannot split {self.n_total_layers} layers into "
                f"{n_stages} stages"
            )
        return self.params // n_stages

    def validate(self) -> None:
        for field_name in ("n_layers", "d_model", "d_ff", "n_heads"):
            if getattr(self, field_name) < 1:
                raise ValueError(f"{self.name}: {field_name} must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"{self.name}: d_model not divisible by n_heads")


#: The paper's 3B decoder LM: "62 Transformer layers with a model
#: dimension of 2048 and a hidden dimension of 8192 ... 3 billion
#: parameters in total" (§5.3).
DECODER_3B = TransformerConfig(
    name="decoder-3B", n_layers=62, d_model=2048, d_ff=8192, n_heads=16
)

#: Scaled-up decoders for the two-island experiments (§5.3, Fig. 12).
#: Layer shapes chosen to land at the quoted parameter totals.
DECODER_64B = TransformerConfig(
    name="decoder-64B", n_layers=80, d_model=8192, d_ff=32768, n_heads=64
)
DECODER_136B = TransformerConfig(
    name="decoder-136B", n_layers=108, d_model=10240, d_ff=40960, n_heads=80
)
