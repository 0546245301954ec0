#!/usr/bin/env python3
"""Golden-schedule diff: did a change only remove loop entries?

Runs the five golden scenarios of ``tests/test_sim_determinism.py``
(churn, contended_fabric, ecmp_reroute, serving, sequential) in this
checkout and in ``PARENT_DIR``, each with its own ``src/`` and test
module, and checks that every schedule of this checkout is a
*subsequence* of the parent's at identical times: the kept loop entries
run in the same order at the same simulated instants, and the change
only removed entries.  A golden the parent's test module does not
define yet runs this checkout's scenario on the parent's ``src/``.
Usage (from the repository root)::

    python3 benchmarks/golden_diff.py PARENT_DIR

``PARENT_DIR`` is a checkout of the parent commit (``git archive`` or
``git clone`` it).  For each golden the tool prints the entry counts
and the removed entries by name (``#N``-normalised, most frequent
first).  Exit status 1 if any schedule is not a subsequence, naming the
first entry of this checkout the parent does not have at that point.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from collections import Counter
from typing import Optional

REPO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDENS = ("churn", "contended_fabric", "ecmp_reroute", "serving", "sequential")

#: Run in a child process per checkout: prints ``{golden: [[t, name], ...]}``
#: for the named goldens the test module in ``argv[1]`` defines.
_DUMP = """
import json, sys
sys.path.insert(0, sys.argv[1])
import test_sim_determinism as g
out = {}
for name in sys.argv[2:]:
    if name in g._GOLDEN_RUNS:
        schedule, _ = g._GOLDEN_RUNS[name]()
        out[name] = [[t, entry] for t, _, entry in schedule]
json.dump(out, sys.stdout)
"""

Entry = tuple[float, str]


def subsequence_diff(
    parent: list[Entry], child: list[Entry]
) -> tuple[Optional[int], list[Entry]]:
    """Match ``child`` into ``parent`` in order, entry for entry.

    Returns ``(None, removed)`` when ``child`` is a subsequence of
    ``parent`` (``removed`` is the parent's unmatched entries, in
    order), else ``(i, removed_so_far)`` with ``i`` the index of the
    first child entry that has no match.  Greedy earliest matching
    decides subsequence membership exactly.
    """
    removed: list[Entry] = []
    p = 0
    for i, entry in enumerate(child):
        while p < len(parent) and parent[p] != entry:
            removed.append(parent[p])
            p += 1
        if p == len(parent):
            return i, removed
        p += 1
    removed.extend(parent[p:])
    return None, removed


def dump_schedules(
    checkout: str, names=GOLDENS, tests: Optional[str] = None
) -> dict[str, list[Entry]]:
    """The golden schedules of one checkout, as ``(time, name)`` lists:
    the scenarios of the test module in ``tests`` (default: the
    checkout's own) run on the checkout's ``src/``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    tests = tests or os.path.join(checkout, "tests")
    proc = subprocess.run(
        [sys.executable, "-c", _DUMP, tests, *names],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"golden runs failed in {checkout}:\n{proc.stderr}")
    return {
        name: [(t, entry) for t, entry in rows]
        for name, rows in json.loads(proc.stdout).items()
    }


def report(name: str, parent: list[Entry], child: list[Entry]) -> bool:
    """Print one golden's verdict; True when it is a subsequence."""
    bad, removed = subsequence_diff(parent, child)
    print(f"{name}: {len(parent)} -> {len(child)} entries")
    if bad is not None:
        t, entry = child[bad]
        print(f"  NOT A SUBSEQUENCE: entry {bad} ({entry!r} at t={t!r}) "
              "has no match in the parent's remaining schedule")
        return False
    for entry, n in Counter(e for _, e in removed).most_common():
        print(f"  removed {n:>5}  {entry}")
    return True


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent_dir", help="checkout of the parent commit")
    parser.add_argument(
        "--child", default=REPO_DIR, help="checkout of the change (default: this one)",
    )
    args = parser.parse_args(argv)
    parent_dir, child_dir = map(os.path.abspath, (args.parent_dir, args.child))
    parent = dump_schedules(parent_dir)
    child = dump_schedules(child_dir)
    new = [name for name in GOLDENS if name not in parent]
    if new:
        print(f"new goldens, run on the parent's src/: {', '.join(new)}")
        parent.update(
            dump_schedules(parent_dir, new, tests=os.path.join(child_dir, "tests"))
        )
    ok = [report(name, parent[name], child[name]) for name in GOLDENS]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
