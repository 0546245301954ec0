"""The golden-schedule diff: its comparison on synthetic schedules, and
its e2e schedule dump."""

from __future__ import annotations

import importlib.util
import json
import os

_GOLDEN_DIFF_PY = os.path.join(
    os.path.dirname(__file__), "..", "benchmarks", "golden_diff.py"
)
_spec = importlib.util.spec_from_file_location("golden_diff", _GOLDEN_DIFF_PY)
golden_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_diff)

PARENT = [
    (0.0, "start:client"),
    (0.0, "event"),
    (5.0, "timeout(5.0)"),
    (45.0, "timeout(40.0)"),
    (45.0, "msg#N h0->h1"),
    (45.0, "event"),
    (50.0, "timeout(5.0)"),
]


def test_removed_entries_are_listed_in_parent_order():
    child = [e for e in PARENT if e[1] not in ("event", "msg#N h0->h1")]
    bad, removed = golden_diff.subsequence_diff(PARENT, child)
    assert bad is None
    assert removed == [(0.0, "event"), (45.0, "msg#N h0->h1"), (45.0, "event")]


def test_identical_schedules_remove_nothing():
    assert golden_diff.subsequence_diff(PARENT, list(PARENT)) == (None, [])


def test_a_moved_time_is_not_a_subsequence():
    child = list(PARENT)
    child[3] = (44.0, "timeout(40.0)")
    bad, _ = golden_diff.subsequence_diff(PARENT, child)
    assert bad == 3


def test_a_reordered_pair_is_not_a_subsequence():
    child = [PARENT[0], PARENT[1], PARENT[3], PARENT[2]]
    bad, _ = golden_diff.subsequence_diff(PARENT, child)
    assert bad == 3


def test_an_added_entry_is_not_a_subsequence():
    child = PARENT + [(60.0, "event")]
    bad, removed = golden_diff.subsequence_diff(PARENT, child)
    assert bad == len(PARENT) and removed == []


def test_report_names_removed_entries(capsys):
    child = [e for e in PARENT if e[1] != "event"]
    assert golden_diff.report("toy", PARENT, child)
    out = capsys.readouterr().out
    assert "toy: 7 -> 5 entries" in out
    assert "removed     2  event" in out


def test_e2e_dump_logs_every_loop_entry():
    """The e2e dump logs each simulator the workload builds: smoke
    dispatch's schedule has one entry per pinned loop entry."""
    pins = os.path.join(os.path.dirname(_GOLDEN_DIFF_PY), "work_counts.json")
    with open(pins) as f:
        events = json.load(f)["smoke"]["dispatch"]["sim.engine.events"]
    schedules = golden_diff.dump_e2e_schedules(golden_diff.REPO_DIR, "smoke", ["dispatch"])
    times = [t for t, _ in schedules["dispatch"]]
    assert len(times) == events
    assert times == sorted(times)
