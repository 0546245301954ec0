"""Compare two checkouts on the end-to-end benchmark, in alternating pairs.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR [--pairs 10]
                                      [--out DIR]

``PARENT_DIR`` and ``CHANGE_DIR`` are checkouts of the two commits.
Both sides run *this* copy of ``run.py`` (``--repo`` points it at each
checkout's ``src/``) for ``run_seconds`` of ``BENCHMARK.json``, so the
benchmark code and settings are identical.  For each workload, pair
``i`` runs both sides on seed ``i + 1``, alternating which side goes
first.  For each workload and end-to-end metric of
``BENCHMARK.json`` (plus ``error_rate``) the report gives each side's
median and quartiles, the share of pairs the change won and a verdict:

* ``improved`` -- the change won at least 9 of 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's
  interquartile range;
* ``unresolved`` -- the run-to-run spread (interquartile range over
  median, the wider side) exceeds the metric's bound, and not every
  change run reads better than every parent run;
* ``regressed`` -- the change's median is worse than the parent's by
  more than the bound;
* ``within bound`` -- otherwise.

``error_rate`` has an absolute bound of zero: any rise in failed units
over attempted units, summed over all runs, is a regression.  The exit
code is 1 when any pairing regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
RUN = BENCH_DIR / "run.py"
SIDES = ("parent", "change")


def quartiles(values: list) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list, change: list, better: str, bound: float) -> dict:
    """Judge one workload x metric from paired samples (``parent[i]`` and
    ``change[i]`` ran as pair ``i``); ``bound`` is a share of the
    parent's median."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    won = wins / len(parent)
    spread = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    worse = sign * (p_med - c_med) / abs(p_med)
    every_change_better = (
        min(change) > max(parent) if sign > 0 else max(change) < min(parent)
    )
    if won >= 0.9 and sign * (c_med - p_med) > p_q3 - p_q1:
        outcome = "improved"
    elif spread > bound and not every_change_better:
        outcome = "unresolved"
    elif worse > bound:
        outcome = "regressed"
    else:
        outcome = "within bound"
    return {
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "won": won,
        "spread": spread,
        "verdict": outcome,
    }


def error_verdict(parent: list, change: list) -> dict:
    """``error_rate`` from ``(failed, attempted)`` per run: any rise of
    the summed rate is a regression."""
    def rate(runs):
        return sum(f for f, _ in runs) / max(1, sum(a for _, a in runs))

    p, c = rate(parent), rate(change)
    outcome = "regressed" if c > p else "improved" if c < p else "within bound"
    wins = sum(rate([cr]) < rate([pr]) for pr, cr in zip(parent, change))
    return {"parent": (p, p, p), "change": (c, c, c), "won": wins / len(parent),
            "spread": 0.0, "verdict": outcome}


def _run(repo: Path, workload: str, seed: int, args: argparse.Namespace,
         side: str) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--repo", str(repo)]
    if args.out is not None:
        cmd += ["--out", str(args.out / side)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{side} {workload} seed {seed}: no result "
                           f"(exit code {proc.returncode})")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--out", type=Path, help="keep every run's JSON record here")
    args = p.parse_args(argv)
    if args.pairs < 10:
        p.error("--pairs must be at least 10")
    spec = json.loads((BENCH_DIR.parents[1] / "BENCHMARK.json").read_text())
    repos = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    regressed = False
    for workload in WORKLOADS:
        runs: dict = {side: [] for side in SIDES}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[side].append(_run(repos[side], workload, i + 1, args, side))
        rows = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in SIDES}
            rows.append((name, verdict(values["parent"], values["change"],
                                       metric["better"], metric["bound"])))
        failures = {s: [(r["failed"], r["attempted"]) for r in runs[s]] for s in SIDES}
        rows.append(("error_rate", error_verdict(failures["parent"], failures["change"])))
        print(f"{workload} ({args.pairs} pairs)")
        for name, v in rows:
            print(f"  {name:<12} parent {v['parent'][1]:.6g} [{v['parent'][0]:.6g}, "
                  f"{v['parent'][2]:.6g}]  change {v['change'][1]:.6g} "
                  f"[{v['change'][0]:.6g}, {v['change'][2]:.6g}]  "
                  f"won {v['won']:.0%}  spread {v['spread']:.3f}  {v['verdict']}")
            regressed |= v["verdict"] == "regressed"
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
