#!/usr/bin/env python3
"""One entrypoint for the whole bench suite.

Discovers every ``benchmarks/bench_*.py`` and runs the selection through
pytest with smoke mode threaded through a single place, instead of each
invocation hand-assembling ``REPRO_BENCH_SMOKE`` / ``PYTHONPATH``
plumbing::

    python benchmarks/run.py --list
    python benchmarks/run.py --bench serving --smoke
    python benchmarks/run.py --smoke          # the full CI smoke sweep

``--bench`` matches by substring and may repeat.  These benches
reproduce the paper's figures; how fast the simulator itself runs is
measured by ``benchmarks/e2e/run.py``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")


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


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--bench", action="append", default=[], metavar="NAME",
        help="run benches whose name contains NAME (repeatable; default all)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="smoke mode: shrunken sweeps, paper-scale asserts skipped",
    )
    parser.add_argument("--list", action="store_true", help="list benches and exit")
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
    if args.smoke:
        env["REPRO_BENCH_SMOKE"] = "1"

    failed = []
    for name, path in chosen.items():
        print(f"=== bench {name} ===", flush=True)
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", path, "-q", *args.pytest_args],
            env=env, cwd=REPO_ROOT,
        )
        if proc.returncode != 0:
            failed.append(name)

    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
