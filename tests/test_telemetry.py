"""repro.telemetry: spans, metrics, flight recorder, critical paths.

The golden-determinism half of the contract (tracing on/off produces
byte-identical schedules) is pinned in ``tests/test_sim_determinism.py``
(``TestGoldenTracing``); this file covers the telemetry machinery
itself — span capture, Chrome-trace export, the
metrics registry, post-mortem flight dumps, and the exact-sum
critical-path decomposition plus its CLI.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.hw.cluster import ClusterSpec
from repro.core.system import PathwaysSystem
from repro.resilience import (
    ElasticController,
    FaultInjector,
    FaultSchedule,
    RecoveryManager,
)
from repro.sim import Resource, Simulator, UnbalancedGrantError
from repro.stats import ElasticStats, FaultInjectorStats
from repro.telemetry import (
    STAGES,
    FlightRecorder,
    Histogram,
    MetricsRegistry,
    Tracer,
    critical_paths,
    percentile,
    render_report,
    summarize,
)
from repro.telemetry.__main__ import main as telemetry_cli
from repro.workloads.serving import run_serving

#: Small-but-real traced serving run (shared by the critpath tests).
TRACED_SERVE_KWARGS = dict(
    arrival="poisson",
    rate_rps=300.0,
    duration_us=60_000.0,
    islands=1,
    hosts_per_island=2,
    devices_per_host=4,
    n_replicas=2,
    max_batch=4,
    max_wait_us=1_500.0,
)


@pytest.fixture(scope="module")
def traced_serve():
    tracer = Tracer()
    result = run_serving(tracer=tracer, **TRACED_SERVE_KWARGS)
    return tracer, result


class TestHistogram:
    def test_nearest_rank_semantics(self):
        vals = [10.0, 20.0, 30.0, 40.0]
        assert percentile(vals, 0.0) == 10.0
        assert percentile(vals, 25.0) == 10.0
        assert percentile(vals, 50.0) == 20.0
        assert percentile(vals, 99.0) == 40.0
        assert percentile([], 50.0) == 0.0

    def test_histogram_agrees_with_function(self):
        h = Histogram()
        vals = [float(v) for v in (5, 1, 9, 3, 7, 2, 8)]
        for v in vals:
            h.observe(v)
        for q in (0.0, 25.0, 50.0, 90.0, 99.0, 100.0):
            assert h.percentile(q) == percentile(vals, q)
        assert h.count == 7
        assert h.mean == pytest.approx(sum(vals) / 7)
        assert h.min == 1.0 and h.max == 9.0

    def test_quantile_cache_invalidated_by_observe(self):
        h = Histogram()
        h.observe(5.0)
        assert h.percentile(50.0) == 5.0
        h.observe(1.0)
        assert h.percentile(50.0) == 1.0


class TestTracerEnabled:
    def test_export_of_empty_tracer(self):
        assert Tracer().to_chrome_trace()["traceEvents"] == []

    def test_begin_end_and_context_manager(self, sim):
        tr = Tracer()
        tr.bind(sim)
        span = tr.begin("work", "test", track="t0")
        assert span.end_us is None
        sim.timeout(5.0)
        sim.run()
        tr.end(span)
        assert span.duration_us == 5.0
        with tr.span("inner", "test") as s:
            assert s.end_us is None
        assert s.end_us == sim.now
        assert [x.name for x in tr.spans] == ["work", "inner"]

    def test_instants_and_category_view(self):
        tr = Tracer()
        outer = tr.complete("outer", "test", 0.0, 10.0)
        mark = tr.instant("tick", "test", ts_us=3.0)
        assert mark.is_instant and not outer.is_instant
        assert tr.by_cat("test") == tr.spans

    def test_open_span_closes_at_export(self, sim):
        tr = Tracer()
        tr.bind(sim)
        tr.begin("leaky", "test")
        doc = tr.to_chrome_trace()
        (ev,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert ev["args"]["open"] is True
        assert ev["dur"] >= 0.0

    def test_chrome_trace_track_metadata(self):
        tr = Tracer()
        tr.complete("a", "c", 0.0, 1.0, track="alpha")
        tr.complete("b", "c", 0.0, 1.0, track="beta")
        doc = tr.to_chrome_trace()
        names = {
            e["args"]["name"]: e["tid"]
            for e in doc["traceEvents"]
            if e["ph"] == "M"
        }
        assert set(names) == {"alpha", "beta"}
        rows = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["tid"] for e in rows} == set(names.values())

    def test_write_chrome_trace_round_trips(self, tmp_path):
        tr = Tracer()
        tr.complete("a", "c", 0.0, 1.0)
        path = tr.write_chrome_trace(str(tmp_path / "trace.json"))
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == tr.to_chrome_trace()


class TestMetricsRegistry:
    def test_counters_and_histograms(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc()  # get-or-create returns the same object
        reg.counter("c").inc()
        for v in (1.0, 2.0, 3.0):
            reg.histogram("h").observe(v)
        reg.sample(10.0)
        reg.counter("c").inc()
        reg.sample(20.0)
        assert reg.series("c") == [(10.0, 3.0), (20.0, 4.0)]
        assert reg.series("h.count")[-1] == (20.0, 3.0)
        assert reg.series("h.p99")[-1] == (20.0, 3.0)
        assert reg.names() == ["c", "h.count", "h.mean", "h.p99"]


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        fl = FlightRecorder(capacity=4)
        for i in range(10):
            fl.note(float(i), "cat", f"e{i}")
        assert len(fl.entries) == 4
        assert fl.entries[0][0] == 6.0  # oldest surviving entry

    def test_tracer_shadows_into_ring(self):
        fl = FlightRecorder(capacity=8)
        tr = Tracer(flight=fl)
        tr.complete("a", "c", 0.0, 3.0, track="t")
        tr.instant("b", "c", ts_us=5.0)
        assert [(t, label) for t, _, label, _, _ in fl.entries] == [
            (3.0, "a"),
            (5.0, "b"),
        ]

    def test_manual_dump_renders_newest_last(self):
        fl = FlightRecorder(capacity=4)
        fl.note(1.0, "cat", "first")
        fl.note(2.0, "cat", "second", track="trk", args={"k": 1})
        buf = io.StringIO()
        text = fl.dump(reason="unit test", stream=buf)
        assert buf.getvalue() == text
        assert "flight recorder dump (unit test)" in text
        assert text.index("first") < text.index("second")
        assert "[trk]" in text and "{'k': 1}" in text
        assert fl.dumps == 1

    def test_dump_on_sanitizer_error_at_drain(self, capsys):
        """The engine dumps the ring before re-raising the typed error."""
        fl = FlightRecorder(capacity=16)
        tr = Tracer(flight=fl)
        sim = Simulator(sanitize=True, tracer=tr)
        tr.instant("about-to-leak", "test")
        nic = Resource(sim, name="nic", leak_check=True)
        nic.acquire(lambda: None)
        with pytest.raises(UnbalancedGrantError, match="nic"):
            sim.run()
        err = capsys.readouterr().err
        assert "flight recorder dump (SanitizerError at drain)" in err
        assert "about-to-leak" in err
        assert fl.dumps == 1

    def test_message_losses_land_in_the_ring(self, capsys):
        """The transport's own ``net.lost`` instants reach the ring like
        any other emission; a loss is no reason to dump."""
        from repro.hw.cluster import make_cluster
        from repro.config import DEFAULT_CONFIG

        fl = FlightRecorder(capacity=16)
        sim = Simulator(tracer=Tracer(flight=fl))
        cluster = make_cluster(
            sim,
            ClusterSpec(islands=((2, 2), (2, 2)), name="fl"),
            config=DEFAULT_CONFIG.with_overrides(
                net_contention=True, spine_paths=2
            ),
        )
        transport = cluster.transport
        src = cluster.islands[0].hosts[0]
        dst = cluster.islands[1].hosts[0]
        transport.send(src, dst, 8 << 20)
        transport.send(src, dst, 8 << 20)

        def drill():
            # Kill the endpoint NIC mid-flight: both messages take the
            # typed "link-down" loss (the endpoint rule — no reroute).
            yield sim.timeout(50.0)
            transport.fail_link(f"nic_rx[h{dst.host_id}]")

        sim.process(drill())
        sim.run()
        assert "flight recorder dump" not in capsys.readouterr().err
        assert fl.dumps == 0
        losses = [e for e in fl.entries if e[1] == "net.lost"]
        assert [e[4]["category"] for e in losses] == ["link-down", "link-down"]


class TestUnifiedStats:
    """Satellite: ElasticController and FaultInjector join the frozen
    ``stats()`` protocol everything else on the system already speaks."""

    def test_elastic_controller_stats(self):
        system = PathwaysSystem.build(
            ClusterSpec(islands=((2, 4),), name="es")
        )
        elastic = ElasticController(system)
        snap = elastic.stats()
        assert isinstance(snap, ElasticStats)
        assert snap.drains_started == 0 and snap.draining_now == 0
        assert snap.workloads == 0
        assert "drains_started=0" in repr(snap)

    def test_fault_injector_stats_track_delivery(self):
        system = PathwaysSystem.build(
            ClusterSpec(islands=((2, 4),), name="fi")
        )
        recovery = RecoveryManager(system, detection_us=500.0)
        schedule = FaultSchedule().device_failure(
            1_000.0, system.cluster.devices[0].device_id, repair_us=2_000.0
        ).device_failure(
            50_000.0, system.cluster.devices[1].device_id, repair_us=2_000.0
        )
        injector = FaultInjector(recovery, schedule)
        before = injector.stats()
        assert isinstance(before, FaultInjectorStats)
        assert (before.scheduled, before.injected, before.remaining) == (2, 0, 2)
        system.sim.run(until=10_000.0)
        mid = injector.stats()
        assert (mid.injected, mid.remaining) == (1, 1)
        assert mid.injected_by_kind == {"device_failure": 1}
        injector.stop()


class TestCriticalPath:
    def test_stage_sums_are_exact(self, traced_serve):
        """The acceptance property: stages sum to end-to-end latency to
        the last float bit, for every completed request."""
        tracer, result = traced_serve
        paths = critical_paths(tracer.to_chrome_trace())
        assert len(paths) == result.completed > 0
        for p in paths:
            assert sum(p.stages[s] for s in STAGES) == pytest.approx(
                p.total_us, abs=1e-9
            )
            assert all(p.stages[s] >= 0.0 for s in STAGES)
            assert p.dominant in STAGES

    def test_prep_joined_from_batch_exec_label(self, traced_serve):
        tracer, _ = traced_serve
        paths = critical_paths(tracer.to_chrome_trace())
        assert any(p.batch_label for p in paths)
        assert any(p.stages["prep"] > 0.0 for p in paths)

    def test_summary_shares_sum_to_one(self, traced_serve):
        tracer, _ = traced_serve
        agg = summarize(critical_paths(tracer.to_chrome_trace()))
        assert agg["requests"] > 0
        assert sum(agg["stage_share"].values()) == pytest.approx(1.0)
        assert sum(agg["stage_mean_us"].values()) == pytest.approx(
            agg["mean_total_us"]
        )

    def test_summarize_empty(self):
        assert summarize([])["requests"] == 0

    def test_render_report_truncates(self, traced_serve):
        tracer, _ = traced_serve
        paths = critical_paths(tracer.to_chrome_trace())
        text = render_report(paths, limit=3)
        assert "dominant" in text
        assert f"({len(paths) - 3} more requests)" in text
        assert "of total latency" in text

    def test_cli_text_and_json(self, traced_serve, tmp_path, capsys):
        tracer, _ = traced_serve
        trace_path = tracer.write_chrome_trace(str(tmp_path / "t.json"))
        assert telemetry_cli(["critpath", trace_path, "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "requests, mean end-to-end" in out
        assert telemetry_cli(["critpath", trace_path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["requests"] == len(doc["requests"])
        for row in doc["requests"]:
            assert set(row["stages"]) == set(STAGES)

    def test_cli_empty_trace_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"traceEvents": []}))
        assert telemetry_cli(["critpath", str(path)]) == 1
        assert "no completed request spans" in capsys.readouterr().out
