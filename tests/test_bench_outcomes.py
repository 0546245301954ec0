"""Outcome pins for the benches: recording, comparison, pin file."""

from __future__ import annotations

import importlib.util
import json
import os

from repro.bench.harness import Table

_RUN_PY = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "run.py")
_spec = importlib.util.spec_from_file_location("bench_run", _RUN_PY)
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def _table():
    t = Table("Fig X", columns=["n", "p99 (ms)", "build (ms)"], wall_clock=["build (ms)"])
    t.add_row(4, 1.5, 0.123)
    t.add_row(8, 2.0, 0.456)
    return t


def test_outcome_drops_wall_clock_columns():
    assert _table().outcome() == {
        "title": "Fig X", "columns": ["n", "p99 (ms)"], "rows": [[4, 1.5], [8, 2.0]]
    }


def test_show_records_bench_and_test(tmp_path, monkeypatch):
    path = tmp_path / "rec.jsonl"
    monkeypatch.setenv("REPRO_BENCH_OUTCOMES", str(path))
    monkeypatch.setenv(
        "PYTEST_CURRENT_TEST", "benchmarks/bench_serving.py::test_slo[4] (call)"
    )
    _table().show()
    _table().show()
    got = run.read_recording(str(path))
    assert list(got) == ["serving"]
    assert [t["test"] for t in got["serving"]] == ["test_slo[4]"] * 2
    assert got["serving"][0]["rows"] == [[4, 1.5], [8, 2.0]]


def test_show_records_nothing_without_the_variable(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_OUTCOMES", raising=False)
    monkeypatch.chdir(tmp_path)
    _table().show()
    assert list(tmp_path.iterdir()) == []


def test_diff_names_bench_table_row_and_column():
    pinned = {"serving": [{"test": "t", "title": "Fig X",
                           "columns": ["n", "p99 (ms)"], "rows": [[4, 1.5], [8, 2.0]]}]}
    same = json.loads(json.dumps(pinned))
    assert run.diff_outcomes(pinned, same, ["serving"]) == []

    drifted = json.loads(json.dumps(pinned))
    drifted["serving"][0]["rows"][1][1] = 2.000001
    (msg,) = run.diff_outcomes(pinned, drifted, ["serving"])
    assert "serving" in msg and "'Fig X'" in msg
    assert "row 1 (8)" in msg and "'p99 (ms)'" in msg
    assert "pinned 2.0, got 2.000001" in msg


def test_diff_is_type_strict_and_nan_equal():
    def pins(v):
        return {"b": [{"test": "t", "title": "T", "columns": ["x"], "rows": [[v]]}]}

    assert run.diff_outcomes(pins(1), pins(1.0), ["b"])
    assert run.diff_outcomes(pins(float("nan")), pins(float("nan")), ["b"]) == []


def test_diff_reports_missing_and_extra_tables():
    t = {"test": "t", "title": "T", "columns": ["x"], "rows": [[1]]}
    assert "no pinned outcomes" in run.diff_outcomes({}, {"b": [t]}, ["b"])[0]
    assert "1 tables shown, 2 pinned" in run.diff_outcomes(
        {"b": [t, t]}, {"b": [t]}, ["b"]
    )[0]


def test_pin_file_covers_every_bench_in_canonical_form():
    with open(run.OUTCOMES_FILE, encoding="utf-8") as f:
        text = f.read()
    assert run.dump_outcomes(json.loads(text)) == text


def test_every_discovered_bench_has_pinned_tables():
    """A new bench without pins fails here, not only in the bench run."""
    pins = run.load_pins()
    assert sorted(pins) == sorted(run.discover())
    for bench, tables in pins.items():
        assert tables, f"{bench}: no pinned table (run --update-outcomes)"
        assert all(t["rows"] for t in tables), f"{bench}: a pinned table has no rows"
