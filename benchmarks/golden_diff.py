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
With ``--e2e`` it also diffs the seed-0 schedules of the four
end-to-end workloads (serve, dispatch, fabric, churn) of
``benchmarks/e2e/workloads.py``, imported read-only from each checkout
with every simulator logging its loop entries, at ``--size smoke``
(the default, ~2 s per side) or ``--size full`` (~10 s per side): the
goldens never stall an island scheduler, the full-size workloads do.
Usage (from the repository root)::

    python3 benchmarks/golden_diff.py PARENT_DIR [--e2e [--size full]]

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
E2E_WORKLOADS = ("serve", "dispatch", "fabric", "churn")

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

#: Run in a child process per checkout: prints ``{workload: [[t, name],
#: ...]}``, the seed-0 schedule at size ``argv[2]`` of each e2e workload
#: named, from the ``workloads`` module in ``argv[1]``.  Every simulator
#: the run builds logs its loop entries; execution ids are normalised
#: as in the goldens.
_DUMP_E2E = """
import json, re, sys
from repro.sim import engine
sims = []
init = engine.Simulator.__init__
def logged(self, *args, **kwargs):
    init(self, *args, **kwargs)
    if self.schedule_log is None:
        self.schedule_log = []
    sims.append(self)
engine.Simulator.__init__ = logged
sys.path.insert(0, sys.argv[1])
import workloads
out = {}
for name in sys.argv[3:]:
    sims.clear()
    workloads.WORKLOADS[name](workloads.DEFAULT_SEED, sys.argv[2])
    out[name] = [
        [t, re.sub(r"#\\d+", "#N", entry)] for sim in sims for t, entry in sim.schedule_log
    ]
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


def _dump(checkout: str, script: str, args: list[str]) -> dict[str, list[Entry]]:
    """Run a dump ``script`` on the checkout's ``src/``; its schedules."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"schedule runs failed in {checkout}:\n{proc.stderr}")
    return {
        name: [(t, entry) for t, entry in rows]
        for name, rows in json.loads(proc.stdout).items()
    }


def dump_schedules(
    checkout: str, names=GOLDENS, tests: Optional[str] = None
) -> dict[str, list[Entry]]:
    """The golden schedules of one checkout, as ``(time, name)`` lists:
    the scenarios of the test module in ``tests`` (default: the
    checkout's own) run on the checkout's ``src/``."""
    return _dump(checkout, _DUMP, [tests or os.path.join(checkout, "tests"), *names])


def dump_e2e_schedules(
    checkout: str, size: str, names=E2E_WORKLOADS
) -> dict[str, list[Entry]]:
    """The seed-0 schedules of the checkout's e2e workloads at ``size``."""
    bench = os.path.join(checkout, "benchmarks", "e2e")
    return _dump(checkout, _DUMP_E2E, [bench, size, *names])


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
    parser.add_argument(
        "--e2e", action="store_true", help="also diff the four e2e workloads at seed 0",
    )
    parser.add_argument("--size", choices=("smoke", "full"), default="smoke",
                        help="e2e workload size (default: smoke)")
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
    if args.e2e:
        parent = dump_e2e_schedules(parent_dir, args.size)
        child = dump_e2e_schedules(child_dir, args.size)
        ok += [
            report(f"e2e {name} ({args.size})", parent[name], child[name])
            for name in E2E_WORKLOADS
        ]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
