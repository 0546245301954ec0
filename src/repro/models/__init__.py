"""Transformer workload models for the paper's end-to-end evaluation.

* :mod:`repro.models.transformer` — model configurations and analytic
  FLOPs/bytes cost models (decoder-only and encoder-decoder).
* :mod:`repro.models.t5` — the Table 1 T5 family.
* :mod:`repro.models.spmd` — SPMD (model-parallel) training steps with a
  2-D-sharded collective-communication model.
* :mod:`repro.models.pipeline` — GPipe-style pipeline schedules built as
  real multi-node Pathways programs (Table 2, Figure 10).
* :mod:`repro.models.data_parallel` — cross-island data parallelism, one
  program per step, with chunked, overlapped DCN gradients (Figure 12).
"""

from repro.models.transformer import (
    DECODER_3B,
    DECODER_64B,
    DECODER_136B,
    TransformerConfig,
)
from repro.models.t5 import T5_CONFIGS, T5Entry
from repro.models.spmd import SpmdTrainer
from repro.models.pipeline import PipelineBuilder, PipelineResult
from repro.models.data_parallel import DataParallelTrainer
from repro.models.moe import MoeLayerBuilder, MoeResult

__all__ = [
    "DECODER_136B",
    "DECODER_3B",
    "DECODER_64B",
    "DataParallelTrainer",
    "MoeLayerBuilder",
    "MoeResult",
    "PipelineBuilder",
    "PipelineResult",
    "SpmdTrainer",
    "T5_CONFIGS",
    "T5Entry",
    "TransformerConfig",
]
