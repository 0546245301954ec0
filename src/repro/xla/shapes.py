"""Tensor shapes and dtypes with static size accounting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = ["DType", "TensorSpec"]


class DType(Enum):
    """Supported element types (width in bytes)."""

    F32 = ("f32", 4)
    BF16 = ("bf16", 2)
    F16 = ("f16", 2)
    I32 = ("i32", 4)
    I8 = ("i8", 1)

    def __init__(self, label: str, width: int):
        self.label = label
        self.width = width

    def __repr__(self) -> str:
        return f"DType.{self.name}"


@dataclass(frozen=True)
class TensorSpec:
    """Statically known shape + dtype of one tensor.

    This is the contract a compiled function exposes *before* execution:
    the Pathways executor sizes buffers, and the parallel dispatcher
    plans transfers, from TensorSpecs alone.
    """

    shape: tuple[int, ...]
    dtype: DType = DType.F32

    def __post_init__(self) -> None:
        for dim in self.shape:
            if dim < 0:
                raise ValueError(f"negative dimension in shape {self.shape}")

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def num_elements(self) -> int:
        return math.prod(self.shape) if self.shape else 1

    @property
    def nbytes(self) -> int:
        return self.num_elements * self.dtype.width

    def with_leading_dim(self, dim: int) -> "TensorSpec":
        if not self.shape:
            raise ValueError("scalar has no leading dimension")
        return TensorSpec((dim,) + self.shape[1:], self.dtype)

    def matches(self, array: np.ndarray) -> bool:
        return tuple(array.shape) == self.shape

    @staticmethod
    def of(array: np.ndarray) -> "TensorSpec":
        """An f32 spec of ``array``'s shape."""
        return TensorSpec(tuple(array.shape))

    @staticmethod
    def scalar() -> "TensorSpec":
        return TensorSpec(())

    def __str__(self) -> str:
        dims = "x".join(str(d) for d in self.shape) or "scalar"
        return f"{self.dtype.label}[{dims}]"
