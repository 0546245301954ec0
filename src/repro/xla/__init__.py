"""XLA-like compiled-function layer.

The paper's programming model is built on "compiled functions"
(Appendix B): sub-computations whose input/output types and shapes,
loop bounds, and therefore *resource requirements* are known before any
input data exists.  This property is what makes parallel asynchronous
dispatch (paper §4.5) sound.

This package models compiled functions with two coupled facets:

* **semantics** — a real numpy function, so programs compute real values
  and numerical identity between runtimes can be asserted (paper §5.3:
  "verified that numerical results are identical");
* **cost** — an analytic execution-time model (explicit duration, or
  FLOPs / peak x efficiency), plus optional collective communication,
  evaluated against a :class:`~repro.config.SystemConfig`.
"""

from repro.xla.shapes import DType, TensorSpec
from repro.xla.sharding import Sharding
from repro.xla.computation import CollectiveSpec, CompiledFunction, scalar_allreduce_add
from repro.xla.compiler import Compiler, fuse

__all__ = [
    "CollectiveSpec",
    "CompiledFunction",
    "Compiler",
    "DType",
    "Sharding",
    "TensorSpec",
    "fuse",
    "scalar_allreduce_add",
]
