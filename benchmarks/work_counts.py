#!/usr/bin/env python3
"""Work-count pins: how much work the simulator did on the e2e workloads.

Outcome pins (``run.py``, ``e2e/pinned.json``) fix *what* was simulated.
These pins fix *how much work* it took: loop entries, timer pushes and
the fabric, scheduler and dispatch counters of each e2e workload at
seed 0.  Usage (from the repository root)::

    python3 benchmarks/work_counts.py --size smoke
    python3 benchmarks/work_counts.py --size full
    python3 benchmarks/work_counts.py --size smoke --update

The counts come from the records of ``benchmarks/e2e/run.py --trace 1
--seconds 0 --out DIR``.  Every count is a machine-independent integer
or ratio, so the check is exact; a mismatch names the size, the
workload and the counter.
Wall clock and the per-layer ``calls_in`` (cProfile call counts of
builtins can differ between Python versions) are not pinned.  A change
that moves a count updates the pins with ``--update`` and says why.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
E2E_RUN = os.path.join(BENCH_DIR, "e2e", "run.py")
PINS_FILE = os.path.join(BENCH_DIR, "work_counts.json")
SEED = 0

#: Counters pinned by name, and by prefix (the ``.share`` and
#: ``.calls_in`` profile columns under those prefixes are left out).
PINNED = ("sim.engine.events", "sim.timers.pushes")
PINNED_PREFIXES = ("net.fabric.", "core.scheduler.", "core.dispatch.")


def pinned_counts(per_layer: dict) -> dict:
    """The pinned subset of one record's ``per_layer`` metrics."""
    return {
        name: value
        for name, value in sorted(per_layer.items())
        if name in PINNED
        or (
            name.startswith(PINNED_PREFIXES)
            and not name.endswith((".share", ".calls_in"))
        )
    }


def read_records(directory: str) -> dict[str, dict]:
    """Workload -> pinned counts of every seed-0 traced record in ``directory``."""
    out = {}
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(".json"):
            continue
        with open(os.path.join(directory, entry), encoding="utf-8") as f:
            record = json.load(f)
        if record.get("trace") != 1 or record.get("seed") != SEED:
            continue
        out[record["workload"]] = pinned_counts(record["per_layer"])
    return out


def run_e2e(size: str, out_dir: str) -> int:
    """Write traced seed-0 records of every workload for ``size`` into
    ``out_dir``."""
    cmd = [
        sys.executable, E2E_RUN, "--trace", "1", "--seconds", "0",
        "--seed", str(SEED), "--size", size, "--out", out_dir,
    ]
    return subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode


def diff_counts(size: str, pinned: dict, got: dict) -> list[str]:
    """Every difference between pinned and measured counts, named by
    size, workload and counter."""
    out = []
    for workload in sorted(set(pinned) | set(got)):
        want = pinned.get(workload)
        have = got.get(workload)
        if want is None:
            out.append(f"{size} {workload}: no pinned work counts (run --update)")
            continue
        if have is None:
            out.append(f"{size} {workload}: pinned, but no traced record was measured")
            continue
        for name in sorted(set(want) | set(have)):
            if name not in have:
                out.append(f"{size} {workload} {name}: pinned {want[name]}, not measured")
            elif name not in want:
                out.append(f"{size} {workload} {name}: measured {have[name]}, not pinned")
            elif json.dumps(want[name]) != json.dumps(have[name]):
                out.append(
                    f"{size} {workload} {name}: pinned {want[name]}, got {have[name]}"
                )
    return out


def load_pins() -> dict:
    if not os.path.exists(PINS_FILE):
        return {}
    with open(PINS_FILE, encoding="utf-8") as f:
        return json.load(f)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--size", choices=("smoke", "full"), default="smoke")
    parser.add_argument(
        "--update", action="store_true", help="rewrite the pins from this run",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="work_counts_") as tmp:
        status = run_e2e(args.size, tmp)
        if status != 0:
            print(f"benchmarks/e2e/run.py exited with {status}", file=sys.stderr)
            return 1
        got = read_records(tmp)
    if not got:
        print("no traced seed-0 records to check", file=sys.stderr)
        return 1

    pins = load_pins()
    if args.update:
        pins[args.size] = got
        with open(PINS_FILE, "w", encoding="utf-8") as f:
            f.write(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        print(f"updated {args.size} work counts for {', '.join(sorted(got))}")
        return 0
    problems = diff_counts(args.size, pins.get(args.size, {}), got)
    for line in problems:
        print(f"WORK COUNT DRIFT {line}", file=sys.stderr)
    if problems:
        print(
            f"{len(problems)} work-count difference(s) against "
            f"{os.path.relpath(PINS_FILE, os.path.dirname(BENCH_DIR))}",
            file=sys.stderr,
        )
        return 1
    print(f"{args.size} work counts hold for {', '.join(sorted(got))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
