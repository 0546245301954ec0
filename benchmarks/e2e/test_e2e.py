"""Self-test of the end-to-end benchmark at ``--size smoke``.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.  It is
not part of the tier-1 suite.
"""

from __future__ import annotations

import json
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from compare import error_verdict, verdict
from run import MIN_REPS
from speed import REFERENCE_S, Speedometer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
RUN = BENCH_DIR / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = ["--size", "smoke", "--seconds", "0"]


def run(*args: str, cwd: Path = ROOT) -> tuple:
    """Run ``cwd``'s copy of run.py; (exit code, last-line JSON or None)."""
    proc = subprocess.run(
        [sys.executable, str(cwd / RUN.relative_to(ROOT)), *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def copy_benchmark(dest: Path) -> Path:
    """A checkout at ``dest`` that holds only BENCHMARK.json and this
    benchmark; returns the copy's benchmark directory."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    bench = dest / BENCH_DIR.relative_to(ROOT)
    shutil.copytree(BENCH_DIR, bench, ignore=shutil.ignore_patterns("__pycache__"))
    return bench


@pytest.fixture(scope="module")
def traced_records(tmp_path_factory) -> dict:
    """One traced smoke run of every workload, keyed by workload."""
    out = tmp_path_factory.mktemp("records")
    code, result = run(*SMOKE, "--trace", "1", "--out", str(out))
    assert code == 0 and result["correct"], result
    records = [json.loads(p.read_text()) for p in out.glob("*.json")]
    return {r["workload"]: r for r in records}


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_metric_names_match_the_spec(trace, kind):
    code, result = run(*SMOKE, "--workload", "serve", "--trace", trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name in expected:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name


def test_repetitions_agree_and_pass(traced_records):
    for workload, record in traced_records.items():
        samples = record["samples"]
        assert [s["kind"] for s in samples].count("measured") == MIN_REPS, workload
        assert all(s["fingerprint"] == samples[0]["fingerprint"] for s in samples)
        assert not any(s["problems"] for s in samples), workload
        assert record["error_rate"] == 0


def test_layer_self_time_sums_to_traced_drain(traced_records):
    for workload, record in traced_records.items():
        layers = record["layers"]
        attributed = sum(layers["self_s"].values())
        assert attributed == pytest.approx(layers["traced_drain_s"], rel=0.02), workload
        assert record["per_layer"]["trace_overhead"] > 0


def test_speedometer_keeps_its_chunks_out_of_the_clock():
    meter = Speedometer(1.5)
    meter.start()
    t0, c0 = time.perf_counter(), meter.clock()
    while time.perf_counter() - t0 < 0.3:
        pass
    scale = meter.stop()
    wall, clock = time.perf_counter() - t0, meter.clock() - c0
    assert len(meter.samples) >= 10
    assert wall - clock == pytest.approx(sum(meter.samples), abs=1e-4)
    assert scale == (REFERENCE_S / statistics.median(meter.samples)) ** 1.5


def test_perturbed_pin_fails_every_unit(tmp_path):
    pinned = copy_benchmark(tmp_path) / "pinned.json"
    pins = json.loads(pinned.read_text())
    pins["smoke"]["serve"]["arrived"] += 1
    pinned.write_text(json.dumps(pins))
    code, result = run(*SMOKE, "--workload", "serve", "--repo", str(ROOT), cwd=tmp_path)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_no_program_means_no_result(tmp_path):
    copy_benchmark(tmp_path)
    code, result = run("--workload", "serve", cwd=tmp_path)
    assert code != 0 and result is None


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    better = [v * 1.2 for v in base]
    assert verdict(base, better, "higher", 0.1)["verdict"] == "improved"
    assert verdict(base, better, "lower", 0.1)["verdict"] == "regressed"
    slightly_worse = [v * 0.97 for v in base]
    assert verdict(base, slightly_worse, "higher", 0.1)["verdict"] == "within bound"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert verdict(noisy, [v * 0.8 for v in noisy], "higher", 0.1)["verdict"] == "unresolved"
    assert verdict(noisy, [v + 100 for v in noisy], "higher", 0.1)["verdict"] == "improved"
    clean = [(0, 100)] * 10
    assert error_verdict(clean, clean)["verdict"] == "within bound"
    assert error_verdict(clean, clean[:9] + [(1, 100)])["verdict"] == "regressed"
