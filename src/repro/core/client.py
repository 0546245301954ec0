"""The Pathways client library (paper §3, §4.2).

A client wraps compiled functions for placement on virtual device
slices, traces Python blocks into multi-node programs, lowers them
through the IR, and submits executions.  Each client has its own serial
*controller thread* — the single-controller resource whose fan-out work
Figure 6 quantifies — while schedulers, executors, devices, and the
object store are shared system-wide (multi-tenancy).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.core.dispatch import DispatchMode, ProgramExecution
from repro.core.ir import LowLevelProgram, lower
from repro.core.program import (
    PathwaysProgram,
    ProgramTracer,
    TracedTensor,
    current_tracer,
)
from repro.core.virtual_device import VirtualSlice
from repro.sim import Resource
from repro.xla.computation import CompiledFunction
from repro.xla.shapes import TensorSpec

__all__ = ["PathwaysClient", "PwCallable", "TracedProgram"]


class PwCallable:
    """A compiled function bound to a virtual slice (like ``jax.pmap``).

    Inside a traced block, calls record graph nodes.  Outside, each call
    builds a standalone single-node program — one RPC per call, the
    paper's default (OpByOp) behaviour.
    """

    def __init__(self, client: "PathwaysClient", fn: CompiledFunction, devices: VirtualSlice):
        self.client = client
        self.fn = fn
        self.devices = devices
        self._solo_program = None

    @property
    def solo_program(self):
        """The cached standalone one-node program for this callable."""
        if self._solo_program is None:
            self._solo_program = self.client._single_node_program(self.fn, self.devices)
        return self._solo_program

    def __call__(self, *args: Any):
        tracer = current_tracer()
        if tracer is not None:
            traced = [self.client._as_traced(tracer, a) for a in args]
            out = tracer.record_call(self.fn, self.devices, traced)
            return out[0] if len(out) == 1 else out
        # Standalone execution: one program (and one RPC) per call.
        return self.client.run_and_wait(self.solo_program, args)


class TracedProgram:
    """A user function traced into a :class:`PathwaysProgram` (per arg shapes)."""

    def __init__(self, client: "PathwaysClient", user_fn: Callable):
        self.client = client
        self.user_fn = user_fn
        self.name = getattr(user_fn, "__name__", "program")
        self._cache: dict[tuple, PathwaysProgram] = {}

    def trace(self, *args: np.ndarray) -> PathwaysProgram:
        key = tuple(tuple(np.asarray(a).shape) for a in args)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        tracer = ProgramTracer(name=self.name)
        with tracer:
            traced_args = [
                tracer.add_arg(TensorSpec.of(np.asarray(a))) for a in args
            ]
            out = self.user_fn(*traced_args)
        program = tracer.finish(out)
        self._cache[key] = program
        return program

    def __call__(self, *args: np.ndarray):
        program = self.trace(*args)
        return self.client.run_and_wait(program, args)


class PathwaysClient:
    """One tenant of a :class:`~repro.core.system.PathwaysSystem`."""

    def __init__(self, system, name: str = "client"):
        self.system = system
        self.name = name
        #: The client's serial controller thread.
        self.controller = Resource(system.sim, name=f"controller[{name}]")
        self._lowered: dict[int, LowLevelProgram] = {}
        #: Typed rejection accounting: executions (counted once each)
        #: that lost a gang to the scheduler's deadline-eviction path
        #: (:class:`~repro.core.scheduler.DeadlineExceeded`).  Callers
        #: read this — and ``execution.deadline_exceeded`` — instead of
        #: string-matching failure causes.
        self.deadline_rejections = 0
        #: Retry-mode executions that gave up entirely
        #: (:class:`~repro.core.dispatch.ExecutionAbandoned`), whatever
        #: the cause; disjoint bookkeeping from deadline rejections.
        self.executions_abandoned = 0

    def stats(self):
        """Frozen per-client snapshot (unified ``repro.stats`` protocol)."""
        from repro.stats import ClientStats

        return ClientStats(
            name=self.name,
            deadline_rejections=self.deadline_rejections,
            executions_abandoned=self.executions_abandoned,
        )

    # -- wrapping & tracing --------------------------------------------------
    def wrap(self, fn: CompiledFunction, devices: VirtualSlice) -> PwCallable:
        """Bind a compiled function to a slice (cf. ``jax.pmap``)."""
        if fn.n_shards != devices.n_devices:
            raise ValueError(
                f"{fn.name}: function has {fn.n_shards} shards but slice has "
                f"{devices.n_devices} devices"
            )
        return PwCallable(self, fn, devices)

    def wrap_fn(
        self,
        py_fn: Callable,
        devices: VirtualSlice,
        duration_us: float,
        spec: TensorSpec,
        name: str = "",
    ) -> PwCallable:
        """Convenience: wrap a unary, shape-preserving numpy lambda as a
        compiled function."""
        fn = CompiledFunction(
            name=name or getattr(py_fn, "__name__", "fn"),
            in_specs=(spec,),
            out_specs=(spec,),
            fn=lambda x: (np.asarray(py_fn(x), dtype=np.asarray(x).dtype),),
            n_shards=devices.n_devices,
            duration_us=duration_us,
        )
        return self.wrap(fn, devices)

    def program(self, user_fn: Callable) -> TracedProgram:
        """Decorator: trace a Python block into one Pathways program."""
        return TracedProgram(self, user_fn)

    # -- submission ------------------------------------------------------------
    def lower(self, program: PathwaysProgram) -> LowLevelProgram:
        """Lower (or fetch the cached lowering of) a traced program.

        The cache key includes every placement slice's bind version, so
        a migrated slice (resource-manager rebind) transparently triggers
        re-lowering onto the new physical devices.
        """
        key = (
            id(program),
            tuple(sorted((nid, s.slice_id, s.version) for nid, s in program.placements.items())),
        )
        low = self._lowered.get(key)
        if low is None:
            low = lower(program, self.system.config)
            self._lowered[key] = low
        return low

    def submit(
        self,
        program: PathwaysProgram,
        args: Sequence[np.ndarray] = (),
        mode: Optional[DispatchMode] = None,
        compute_values: bool = True,
        retry_on_failure: bool = False,
        max_attempts: int = 8,
        checkpoint=None,
        deadline_us: Optional[float] = None,
    ) -> ProgramExecution:
        """Asynchronously submit one execution; returns immediately.

        With ``retry_on_failure`` the execution supervises its nodes and,
        on a device loss, waits for the system's RecoveryManager to remap
        its slices, then replays the nodes not covered by ``checkpoint``.
        Either way, drivers wait on ``execution.done``.  The controller
        pass starts here, PARALLEL or SEQUENTIAL, as a callback chain;
        no process is created unless the execution recovers from a
        loss.

        ``deadline_us`` (relative to submission) bounds time-to-grant:
        gangs still queued on their island scheduler when the deadline
        passes are evicted with
        :class:`~repro.core.scheduler.DeadlineExceeded`.
        """
        low = self.lower(program)
        execution = ProgramExecution(
            self.system,
            self,
            low,
            tuple(np.asarray(a) for a in args),
            mode=mode if mode is not None else self.system.default_mode,
            compute_values=compute_values,
            retry_on_failure=retry_on_failure,
            max_attempts=max_attempts,
            checkpoint=checkpoint,
            deadline_us=deadline_us,
        )
        execution.start()
        return execution

    def run_and_wait(self, program: PathwaysProgram, args: Sequence[np.ndarray]):
        """Submit, drive the simulator to completion, return values.

        This is the interactive path used from plain Python (examples,
        tests).  In-simulation drivers use :meth:`submit` instead.
        """
        execution = self.submit(program, args)
        self.system.sim.run_until_triggered(execution.done)
        return execution.results()

    # -- in-simulation driver loops (used by benchmarks) -------------------------
    def drive_op_by_op(
        self,
        program: PathwaysProgram,
        args: Sequence[np.ndarray],
        n_iters: int,
    ):
        """Generator process: submit one execution at a time, waiting for
        the enqueue + output handles before the next (OpByOp semantics).
        Each execution's results are released once it is done."""
        sim = self.system.sim
        cfg = self.system.config
        for _ in range(n_iters):
            execution = self.submit(program, args, compute_values=False)
            # Client <-> controller handle round trip.
            yield execution.handles_ready
            yield sim.timeout(2 * cfg.dcn_latency_us)
            yield execution.done
            execution.release_results()

    def drive_pipelined(
        self,
        program: PathwaysProgram,
        args: Sequence[np.ndarray],
        n_iters: int,
        max_in_flight: int = 8,
        mode: Optional[DispatchMode] = None,
    ):
        """Generator process: keep up to ``max_in_flight`` executions live
        (idiomatic asynchronous-dispatch usage), releasing each one's
        results once it is done."""
        in_flight: list[ProgramExecution] = []
        for _ in range(n_iters):
            execution = self.submit(program, args, mode=mode, compute_values=False)
            in_flight.append(execution)
            if len(in_flight) >= max_in_flight:
                oldest = in_flight.pop(0)
                yield oldest.done
                oldest.release_results()
        for execution in in_flight:
            yield execution.done
            execution.release_results()

    # -- internal helpers ------------------------------------------------------
    def _single_node_program(
        self, fn: CompiledFunction, devices: VirtualSlice
    ) -> PathwaysProgram:
        tracer = ProgramTracer(name=f"{fn.name}_solo")
        with tracer:
            args = [tracer.add_arg(spec) for spec in fn.in_specs]
            out = tracer.record_call(fn, devices, args)
        return tracer.finish(out[0] if len(out) == 1 else out)

    def _as_traced(self, tracer: ProgramTracer, value: Any) -> TracedTensor:
        if isinstance(value, TracedTensor):
            return value
        raise TypeError(
            f"client {self.name}: only traced tensors may flow through a "
            f"traced program, got {type(value).__name__}"
        )
