"""Fusion of compiled functions.

The "Fused (-F)" micro-benchmark variant JIT-compiles a chain of
computations into a single function (paper §5.1).  ``fuse`` composes
semantics and sums costs, producing one kernel launch where the chained
variant produces many.  Compilation itself is not modelled: servers
compile in the background when a computation is registered (paper
§4.2), off every critical path the reproduction measures.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.xla.computation import CollectiveSpec, CompiledFunction

__all__ = ["fuse"]


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
