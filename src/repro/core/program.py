"""Traced Pathways programs (paper §3, Figure 2).

By default every compiled function becomes a standalone single-node
program (one RPC per call).  The *program tracer* instead records a block
of Python calling many compiled functions into one multi-node sharded
dataflow graph, submitted with a single RPC.

Tracing works like JAX's: user functions receive :class:`TracedTensor`
placeholders; calls to wrapped compiled functions record compute nodes
and edges instead of executing.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.core.virtual_device import VirtualSlice
from repro.plaque.graph import ShardedGraph
from repro.xla.computation import CompiledFunction
from repro.xla.shapes import TensorSpec

__all__ = ["PathwaysProgram", "ProgramTracer", "TracedTensor", "current_tracer"]

_program_ids = itertools.count(1)

# Tracing context is thread-local so parallel test runners don't collide.
_tls = threading.local()


def current_tracer() -> Optional["ProgramTracer"]:
    return getattr(_tls, "tracer", None)


@dataclass(frozen=True)
class TracedTensor:
    """A placeholder flowing through user code during tracing."""

    node_id: int
    out_index: int
    spec: TensorSpec

    def __repr__(self) -> str:  # pragma: no cover
        return f"TracedTensor(node={self.node_id}.{self.out_index}, {self.spec})"


@dataclass
class PathwaysProgram:
    """A traced program: compact sharded graph + placements.

    ``arg_nodes[i]`` is the graph node receiving positional argument i;
    ``results`` lists the (node, out_index) pairs feeding the result
    node, in user-return order (tuples are flattened).
    """

    name: str
    graph: ShardedGraph
    placements: dict[int, VirtualSlice]
    arg_nodes: list[int]
    results: list[tuple[int, int]]
    result_treedef: Any = None  # nesting structure for repacking

    @classmethod
    def close(
        cls,
        graph: ShardedGraph,
        placements: dict[int, VirtualSlice],
        arg_nodes: list[int],
        results: list[tuple[int, int]],
        treedef: Any = None,
    ) -> "PathwaysProgram":
        """Add ``graph``'s result node, fed by each ``(node, out_index)``
        of ``results`` in order, validate the graph and wrap it."""
        result_node = graph.add_result()
        for node_id, out_index in results:
            graph.connect(node_id, result_node, src_output=out_index)
        graph.validate()
        return cls(
            name=graph.name,
            graph=graph,
            placements=placements,
            arg_nodes=arg_nodes,
            results=results,
            result_treedef=treedef,
        )

    @property
    def n_computations(self) -> int:
        return len(self.graph.compute_nodes())


class ProgramTracer:
    """Records compiled-function calls into a :class:`ShardedGraph`."""

    def __init__(self, name: str = ""):
        self.name = name or f"program{next(_program_ids)}"
        self.graph = ShardedGraph(name=self.name)
        self.placements: dict[int, VirtualSlice] = {}
        self.arg_nodes: list[int] = []

    # -- context management -------------------------------------------------
    def __enter__(self) -> "ProgramTracer":
        if current_tracer() is not None:
            raise RuntimeError("nested program tracing is not supported")
        _tls.tracer = self
        return self

    def __exit__(self, *exc) -> None:
        _tls.tracer = None

    # -- recording -----------------------------------------------------------
    def add_arg(self, spec: TensorSpec) -> TracedTensor:
        node_id = self.graph.add_arg()
        self.arg_nodes.append(node_id)
        return TracedTensor(node_id, 0, spec)

    def record_call(
        self,
        fn: CompiledFunction,
        placement: VirtualSlice,
        args: Sequence[TracedTensor],
    ) -> tuple[TracedTensor, ...]:
        if len(args) != len(fn.in_specs):
            raise TypeError(
                f"{fn.name}: traced call got {len(args)} args, "
                f"expects {len(fn.in_specs)}"
            )
        for i, (arg, spec) in enumerate(zip(args, fn.in_specs)):
            if not isinstance(arg, TracedTensor):
                raise TypeError(
                    f"{fn.name}: traced call arg {i} is {type(arg).__name__}; "
                    "only TracedTensors may flow through a traced program"
                )
            if arg.spec != spec:
                raise TypeError(
                    f"{fn.name}: arg {i} spec {arg.spec} != declared {spec}"
                )
        node_id = self.graph.add_compute(fn)
        self.placements[node_id] = placement
        for input_idx, arg in enumerate(args):
            self.graph.connect(
                arg.node_id, node_id, src_output=arg.out_index, dst_input=input_idx
            )
        return tuple(
            TracedTensor(node_id, i, spec) for i, spec in enumerate(fn.out_specs)
        )

    # -- finalization -----------------------------------------------------
    def finish(self, outputs: Any) -> PathwaysProgram:
        """Close the trace; ``outputs`` is whatever the user fn returned."""
        flat, treedef = _flatten(outputs)
        for out in flat:
            if not isinstance(out, TracedTensor):
                raise TypeError(
                    f"traced program returned non-traced value {type(out).__name__}"
                )
        return PathwaysProgram.close(
            self.graph,
            dict(self.placements),
            list(self.arg_nodes),
            [(out.node_id, out.out_index) for out in flat],
            treedef,
        )


# -- minimal pytree flatten/unflatten for results ---------------------------

def _flatten(obj: Any) -> tuple[list[Any], Any]:
    """Flatten nested tuples/lists; treedef reconstructs the nesting."""
    if isinstance(obj, (tuple, list)):
        flat: list[Any] = []
        defs = []
        for item in obj:
            sub_flat, sub_def = _flatten(item)
            flat.extend(sub_flat)
            defs.append((len(sub_flat), sub_def))
        return flat, (type(obj).__name__, defs)
    return [obj], None


def unflatten(treedef: Any, flat: list[Any]) -> Any:
    """Inverse of :func:`_flatten`."""
    if treedef is None:
        if len(flat) != 1:
            raise ValueError(f"leaf expects 1 value, got {len(flat)}")
        return flat[0]
    kind, defs = treedef
    out = []
    pos = 0
    for count, sub_def in defs:
        out.append(unflatten(sub_def, flat[pos : pos + count]))
        pos += count
    return tuple(out) if kind == "tuple" else out
