#!/usr/bin/env python3
"""One entrypoint for the whole bench suite.

Discovers every ``benchmarks/bench_*.py`` and runs the selection in one
pytest process at the paper's scale, with every paper-calibrated
assertion on::

    python benchmarks/run.py --list
    python benchmarks/run.py --bench serving
    python benchmarks/run.py                   # every bench, as CI runs it
    python benchmarks/run.py --update-outcomes

``--bench`` matches by substring and may repeat.  These benches
reproduce the paper's figures; how fast the simulator itself runs is
measured by ``benchmarks/e2e/run.py``.

Every run also checks *outcome pins*: every table a bench shows is
recorded (title, columns, rows; wall-clock columns left out) and
compared for exact equality with ``bench_outcomes.json``.  Simulated
time is deterministic, so any difference is a change in what was
simulated; the report names the bench, table, row and column.
``--update-outcomes`` rewrites the pins of the selected benches.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUTCOMES_FILE = os.path.join(BENCH_DIR, "bench_outcomes.json")


def discover() -> dict[str, str]:
    """Map bench name (``serving``) -> file path, sorted by name."""
    out = {}
    for entry in sorted(os.listdir(BENCH_DIR)):
        if entry.startswith("bench_") and entry.endswith(".py"):
            out[entry[len("bench_"):-len(".py")]] = os.path.join(BENCH_DIR, entry)
    return out


def select(benches: dict[str, str], patterns: list[str]) -> dict[str, str]:
    if not patterns:
        return dict(benches)
    chosen = {}
    for pat in patterns:
        hits = {name: path for name, path in benches.items() if pat in name}
        if not hits:
            raise SystemExit(
                f"no bench matches {pat!r}; try --list "
                f"(available: {', '.join(benches)})"
            )
        chosen.update(hits)
    return chosen


def read_recording(path: str) -> dict[str, list[dict]]:
    """Group the JSON lines ``Table.show`` appended by bench, in show order."""
    out: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            record = json.loads(line)
            out.setdefault(record.pop("bench"), []).append(record)
    return out


def _cell(value) -> str:
    # Exact, type-strict equality: 1 != 1.0, and NaN equals NaN.
    return json.dumps(value)


def diff_outcomes(
    pinned: dict[str, list[dict]], got: dict[str, list[dict]], benches
) -> list[str]:
    """Every difference between pinned and recorded tables of ``benches``."""
    out = []
    for bench in benches:
        if bench not in pinned:
            out.append(f"{bench}: no pinned outcomes (run --update-outcomes)")
            continue
        want, have = pinned[bench], got.get(bench, [])
        if len(want) != len(have):
            out.append(f"{bench}: {len(have)} tables shown, {len(want)} pinned")
        for w, h in zip(want, have):
            where = f"{bench}: {w['test']} table {w['title']!r}"
            if (w["test"], w["title"], w["columns"]) != (
                h["test"], h["title"], h["columns"]
            ):
                out.append(
                    f"{where}: shown as {h['test']} {h['title']!r} "
                    f"with columns {h['columns']}"
                )
                continue
            if len(w["rows"]) != len(h["rows"]):
                out.append(f"{where}: {len(h['rows'])} rows, {len(w['rows'])} pinned")
            for i, (wr, hr) in enumerate(zip(w["rows"], h["rows"])):
                for col, a, b in zip(w["columns"], wr, hr):
                    if _cell(a) != _cell(b):
                        out.append(
                            f"{where} row {i} ({_cell(wr[0])}) column {col!r}: "
                            f"pinned {_cell(a)}, got {_cell(b)}"
                        )
    return out


def dump_outcomes(pins: dict[str, list[dict]]) -> str:
    """The pin file: one JSON object, one table row per line."""
    benches = []
    for bench in sorted(pins):
        tables = []
        for t in pins[bench]:
            rows = ",\n      ".join(json.dumps(r) for r in t["rows"])
            tables.append(
                f'    {{"test": {json.dumps(t["test"])}, '
                f'"title": {json.dumps(t["title"])},\n'
                f'     "columns": {json.dumps(t["columns"])},\n'
                f'     "rows": [\n      {rows}]}}'
            )
        benches.append(f"  {json.dumps(bench)}: [\n" + ",\n".join(tables) + "]")
    return "{\n" + ",\n".join(benches) + "\n}\n"


def load_pins() -> dict[str, list[dict]]:
    if not os.path.exists(OUTCOMES_FILE):
        return {}
    with open(OUTCOMES_FILE, encoding="utf-8") as f:
        return json.load(f)


def check_outcomes(got: dict[str, list[dict]], benches) -> int:
    problems = diff_outcomes(load_pins(), got, benches)
    for line in problems:
        print(f"OUTCOME DRIFT {line}", file=sys.stderr)
    if problems:
        print(
            f"{len(problems)} outcome difference(s) against "
            f"{os.path.relpath(OUTCOMES_FILE, REPO_ROOT)}",
            file=sys.stderr,
        )
        return 1
    print(f"outcome pins hold for {len(benches)} bench(es)")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--bench", action="append", default=[], metavar="NAME",
        help="run benches whose name contains NAME (repeatable; default all)",
    )
    parser.add_argument("--list", action="store_true", help="list benches and exit")
    parser.add_argument(
        "--update-outcomes", action="store_true",
        help="rewrite the selected benches' outcome pins",
    )
    parser.add_argument(
        "pytest_args", nargs="*",
        help="extra arguments forwarded to pytest (e.g. -q -s)",
    )
    args = parser.parse_args(argv)

    benches = discover()
    if args.list:
        for name in benches:
            print(name)
        return 0
    chosen = select(benches, args.bench)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p
    )
    with tempfile.NamedTemporaryFile(prefix="bench_outcomes_", suffix=".jsonl") as rec:
        # Table.show appends every shown table here (repro.bench.harness).
        env["REPRO_BENCH_OUTCOMES"] = rec.name
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", *chosen.values(), "-q", *args.pytest_args],
            env=env, cwd=REPO_ROOT,
        )
        got = read_recording(rec.name)

    failed = proc.returncode != 0
    status = 0
    if not args.update_outcomes:
        status = check_outcomes(got, chosen)
    elif failed:
        print("outcome pins not updated: a bench failed", file=sys.stderr)
    else:
        pins = load_pins()
        pins.update({name: got.get(name, []) for name in chosen})
        with open(OUTCOMES_FILE, "w", encoding="utf-8") as f:
            f.write(dump_outcomes(pins))
        print(f"updated outcome pins for {len(chosen)} bench(es)")
    if failed:
        print(f"FAILED: pytest exited {proc.returncode}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
