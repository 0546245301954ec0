"""Device timelines over a tracer's kernel spans: analysis and rendering."""

from __future__ import annotations

import pytest

from repro.core.system import PathwaysSystem
from repro.hw.cluster import ClusterSpec
from repro.hw.device import Kernel
from repro.telemetry import Tracer
from repro.telemetry.timeline import (
    interleave_granularity_us,
    kernel_devices,
    kernel_span_range,
    program_share,
    render_timeline,
    utilization_by_device,
)


def kernel(tr: Tracer, device: int, start: float, end: float, program: str = ""):
    """Emit one kernel span exactly as a device does."""
    tr.complete(
        program or "kernel", "kernel", start, end,
        track=f"device{device}", args={"device": device, "program": program},
    )


def make_trace():
    tr = Tracer()
    # Device 0: A [0,10], B [10,20], A [20,30]
    kernel(tr, 0, 0.0, 10.0, program="A")
    kernel(tr, 0, 10.0, 20.0, program="B")
    kernel(tr, 0, 20.0, 30.0, program="A")
    # Device 1: A [0,15], idle [15,30]
    kernel(tr, 1, 0.0, 15.0, program="A")
    # Spans of other categories are not kernels.
    tr.complete("req", "serve.request", 0.0, 100.0)
    return tr


class TestRecorder:
    def test_span(self):
        assert kernel_span_range(make_trace()) == (0.0, 30.0)

    def test_filters(self):
        tr = make_trace()
        assert kernel_devices(tr) == [0, 1]
        assert len(tr.by_cat("kernel")) == 4

    def test_disabled_recorder_drops_events(self):
        tr = Tracer(enabled=False)
        kernel(tr, 0, 0.0, 1.0)
        assert tr.spans == [] and kernel_devices(tr) == []

    def test_clear(self):
        tr = make_trace()
        tr.clear()
        assert kernel_span_range(tr) == (0.0, 0.0)

    def test_event_duration(self):
        tr = Tracer()
        kernel(tr, 0, 2.0, 5.0)
        assert tr.spans[0].duration_us == 3.0

    def test_devices_emit_kernel_spans(self):
        """A device completing a kernel lands it in ``sim.tracer``."""
        system = PathwaysSystem.build(
            ClusterSpec(islands=((1, 2),)), tracer=Tracer()
        )
        sim = system.sim
        dev = system.cluster.devices[1]
        done = dev.enqueue(Kernel(sim, 40.0, tag="matmul", program="step"))
        sim.run_until_triggered(done)
        (span,) = sim.tracer.by_cat("kernel")
        assert span.name == "matmul" and span.track == "device1"
        assert span.args == {"device": 1, "program": "step"}
        assert span.duration_us == 40.0
        assert program_share(sim.tracer) == {"step": 1.0}


class TestAnalysis:
    def test_utilization(self):
        util = utilization_by_device(make_trace())
        assert util[0] == pytest.approx(1.0)
        assert util[1] == pytest.approx(0.5)

    def test_utilization_with_window(self):
        util = utilization_by_device(make_trace(), window=(0.0, 15.0))
        assert util[0] == pytest.approx(1.0)
        assert util[1] == pytest.approx(1.0)

    def test_program_share(self):
        shares = program_share(make_trace())
        assert shares["A"] == pytest.approx(35 / 45)
        assert shares["B"] == pytest.approx(10 / 45)

    def test_program_share_empty(self):
        assert program_share(Tracer()) == {}

    def test_interleave_granularity(self):
        # Device 0 runs: A(10), B(10), A(10) -> mean run 10.
        g = interleave_granularity_us(make_trace(), device=0)
        assert g == pytest.approx(10.0)

    def test_granularity_merges_adjacent_same_program(self):
        tr = Tracer()
        kernel(tr, 0, 0.0, 5.0, program="A")
        kernel(tr, 0, 5.0, 10.0, program="A")
        kernel(tr, 0, 10.0, 20.0, program="B")
        assert interleave_granularity_us(tr, device=0) == pytest.approx(10.0)


class TestRender:
    def test_rows_and_legend(self):
        out = render_timeline(make_trace(), width=30)
        lines = out.splitlines()
        assert any(line.startswith("core    0") for line in lines)
        assert any(line.startswith("core    1") for line in lines)
        assert "legend:" in lines[-1]
        assert "A=A" in lines[-1]

    def test_idle_shown_as_dots(self):
        out = render_timeline(make_trace(), width=30)
        row1 = [l for l in out.splitlines() if l.startswith("core    1")][0]
        assert "." in row1

    def test_empty_trace(self):
        assert render_timeline(Tracer()) == "(empty trace)"

    def test_device_filter(self):
        out = render_timeline(make_trace(), width=10, devices=[1])
        assert "core    0" not in out
