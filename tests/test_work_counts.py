"""Work-count pins: the smoke-size counts of the four e2e workloads."""

from __future__ import annotations

import importlib.util
import os

_WORK_COUNTS_PY = os.path.join(
    os.path.dirname(__file__), "..", "benchmarks", "work_counts.py"
)
_spec = importlib.util.spec_from_file_location("work_counts", _WORK_COUNTS_PY)
work_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(work_counts)


def test_pinned_counts_leave_out_wall_clock_and_calls_in():
    per_layer = {
        "sim.engine.events": 10,
        "sim.engine.events_per_unit": 2.5,
        "sim.engine.share": 0.3,
        "sim.timers.pushes": 4,
        "net.fabric.rate_recomputes": 3,
        "net.fabric.calls_in": 99,
        "net.fabric.share": 0.1,
        "core.scheduler.decisions": 2,
        "core.dispatch.programs_dispatched": 1,
        "serve.completed": 7,
        "trace_overhead": 1.5,
    }
    assert work_counts.pinned_counts(per_layer) == {
        "core.dispatch.programs_dispatched": 1,
        "core.scheduler.decisions": 2,
        "net.fabric.rate_recomputes": 3,
        "sim.engine.events": 10,
        "sim.timers.pushes": 4,
    }


def test_diff_names_size_workload_and_counter():
    pinned = {"dispatch": {"sim.engine.events": 100, "sim.timers.pushes": 40}}
    assert work_counts.diff_counts("smoke", pinned, pinned) == []
    got = {"dispatch": {"sim.engine.events": 99, "sim.timers.pushes": 40}}
    (msg,) = work_counts.diff_counts("smoke", pinned, got)
    assert msg == "smoke dispatch sim.engine.events: pinned 100, got 99"
    (missing,) = work_counts.diff_counts("smoke", {}, got)
    assert "dispatch" in missing and "no pinned work counts" in missing
    (unmeasured,) = work_counts.diff_counts("smoke", pinned, {})
    assert unmeasured == "smoke dispatch: pinned, but no traced record was measured"


def test_smoke_work_counts_hold():
    """Seed 0, smoke size, all four workloads (one traced e2e run, ~4 s)."""
    assert work_counts.main(["--size", "smoke"]) == 0
