"""Compilation: caching and fusion of compiled functions.

Two pieces of XLA behaviour matter to the reproduction:

* **Compilation caching** — computations are compiled once in the
  background when registered with the resource manager (paper §4.2);
  re-running a program pays no compilation cost.  :class:`Compiler`
  models the cache (compile cost is charged on miss only).
* **Fusion** — the "Fused (-F)" micro-benchmark variant JIT-compiles a
  chain of computations into a single function (paper §5.1).  ``fuse``
  composes semantics and sums costs, producing one kernel launch where
  the chained variant produces many.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.xla.computation import CollectiveSpec, CompiledFunction

__all__ = ["Compiler", "fuse"]


def fuse(functions: Sequence[CompiledFunction], name: str = "") -> CompiledFunction:
    """Fuse a linear chain ``f1 -> f2 -> ... -> fn`` into one function.

    Requirements: single-output-to-single-input chaining, identical shard
    counts.  Durations add; collectives merge into one spec whose byte
    count is the sum (a fused TPU kernel performs its collectives
    internally, back to back — Appendix A.5).
    """
    fns = list(functions)
    if not fns:
        raise ValueError("cannot fuse an empty chain")
    n_shards = fns[0].n_shards
    for f in fns:
        if f.n_shards != n_shards:
            raise ValueError(
                f"cannot fuse across shard counts: {f.name} has {f.n_shards}, "
                f"expected {n_shards}"
            )
        if f.duration_us is None:
            raise ValueError(f"cannot fuse analytic-cost function {f.name}")
    for prev, nxt in zip(fns, fns[1:]):
        if len(prev.out_specs) != 1 or len(nxt.in_specs) != 1:
            raise ValueError("fuse supports single-output -> single-input chains")
        if prev.out_specs[0] != nxt.in_specs[0]:
            raise ValueError(
                f"shape mismatch fusing {prev.name} -> {nxt.name}: "
                f"{prev.out_specs[0]} vs {nxt.in_specs[0]}"
            )

    total_us = sum(f.duration_us for f in fns)
    colls = [f.collective for f in fns if f.collective is not None]
    collective = None
    if colls:
        # The fused kernel performs every constituent collective back to
        # back on-chip: preserve the instance count and per-instance size.
        count = sum(c.count for c in colls)
        nbytes = max(c.nbytes for c in colls)
        collective = CollectiveSpec("allreduce", nbytes, count=count)

    chain = [f.fn for f in fns]
    has_semantics = all(fn is not None for fn in chain)

    def fused_fn(*args: np.ndarray) -> tuple[np.ndarray, ...]:
        vals: tuple[np.ndarray, ...] = args
        for f in fns:
            vals = f.execute(*vals)
        return vals

    return CompiledFunction(
        name=name or f"fused[{fns[0].name}x{len(fns)}]",
        in_specs=fns[0].in_specs,
        out_specs=fns[-1].out_specs,
        fn=fused_fn if has_semantics else None,
        n_shards=n_shards,
        duration_us=total_us,
        collective=collective,
        in_shardings=fns[0].in_shardings,
        out_shardings=fns[-1].out_shardings,
    )


@dataclass
class Compiler:
    """A compilation cache keyed by function name.

    ``compile_time_us`` is charged once per distinct function.  The
    resource manager triggers compilation *in the background* at program
    registration (paper §4.2), so steady-state runs never see it; the
    cache statistics let tests assert that.
    """

    compile_time_us: float = 50_000.0  # 50 ms: XLA JIT is expensive
    _cache: dict[str, CompiledFunction] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def lookup(self, fn: CompiledFunction) -> tuple[CompiledFunction, float]:
        """Return (executable, compile-cost-to-charge)."""
        cached = self._cache.get(fn.name)
        if cached is not None:
            self.hits += 1
            return cached, 0.0
        self.misses += 1
        self._cache[fn.name] = fn
        return fn, self.compile_time_us

    def __len__(self) -> int:
        return len(self._cache)
