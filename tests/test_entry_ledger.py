"""The per-kind entry ledger (``benchmarks/entry_ledger.py``)."""

from __future__ import annotations

import importlib.util
import os

from repro.sim import Simulator

_BENCH = os.path.join(os.path.dirname(__file__), "..", "benchmarks")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, os.path.join(_BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


entry_ledger = _load("entry_ledger")
work_counts = _load("work_counts")


def test_process_entries_count_under_the_generator():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)

    def run():
        sim.process(worker())
        sim.run()

    counts = entry_ledger.count_entries(run)
    name = worker.__qualname__
    assert counts == {
        f"_Bootstrap <- {name}": 1,
        f"Timeout <- {name}": 1,
        "Process <- -": 1,
    }


def test_ledger_total_equals_the_pinned_smoke_events():
    """Every loop entry is counted: seed 0, smoke size, all four e2e
    workloads (~3 s)."""
    pins = work_counts.load_pins()["smoke"]
    assert sorted(pins) == ["churn", "dispatch", "fabric", "serve"]
    for workload, pinned in sorted(pins.items()):
        counts = entry_ledger.workload_entries(workload, "smoke")
        assert sum(counts.values()) == pinned["sim.engine.events"], workload
