#!/usr/bin/env python3
"""Per-kind entry ledger: which loop entries an e2e workload costs.

Runs one workload of ``benchmarks/e2e/`` at seed 0 and counts every
entry the simulator's loop processes, by *kind*: the entry's class and
the owner of its first callback.  Usage (from the repository root)::

    python3 benchmarks/entry_ledger.py --workload serve --size full
    python3 benchmarks/entry_ledger.py --workload churn --size smoke --top 40

A kind prints as ``Class <- owner``.  The owner is the callback's
qualified name (``Class.method`` for a bound method); a ``Process``
resume and a process bootstrap are counted under the generator's name,
a timer shot under its handle's action, a gang's rendezvous release
as ``CollectiveRendezvous <- release``, and ``-`` marks an entry with
no callbacks.  The ledger wraps the loop's four entry types from
outside while it runs, so it costs nothing when not in use; its total
equals the workload's ``sim.engine.events``.
"""

from __future__ import annotations

import argparse
import collections
import functools
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SEED = 0


def owner(fn) -> str:
    """A callback's name in the ledger."""
    from repro.sim.engine import Process

    if isinstance(fn, functools.partial):
        return owner(fn.func)
    target = getattr(fn, "__self__", None)
    if isinstance(target, Process):
        return target.generator.__qualname__
    if target is not None:
        return f"{type(target).__name__}.{fn.__name__}"
    return getattr(fn, "__qualname__", type(fn).__name__)


def entry_kind(entry) -> str:
    """``Class <- owner`` of one loop entry, read before it runs."""
    from repro.hw.device import CollectiveRendezvous
    from repro.sim.engine import _Bootstrap, _TimerShot

    cls = type(entry).__name__
    if isinstance(entry, CollectiveRendezvous):
        return f"{cls} <- release"
    if isinstance(entry, _Bootstrap):
        return f"{cls} <- {entry.process.generator.__qualname__}"
    if isinstance(entry, _TimerShot):
        return f"{cls} <- {'-' if entry._dead else owner(entry.handle.action)}"
    callbacks = entry.callbacks
    return f"{cls} <- {owner(callbacks[0]) if callbacks else '-'}"


def count_entries(run, on_entry=None) -> collections.Counter:
    """Call ``run()`` and count every loop entry it processes by kind.

    ``on_entry(kind)``, when given, also sees each entry in loop order.
    """
    from repro.hw import device
    from repro.sim import engine

    counts: collections.Counter = collections.Counter()
    classes = (engine.Event, engine._TimerShot, engine._Bootstrap, device.CollectiveRendezvous)
    originals = {cls: cls.__dict__["_process_callbacks"] for cls in classes}

    def wrap(original):
        def counted(entry):
            if not getattr(entry, "_silent", False):  # not a loop entry
                kind = entry_kind(entry)
                counts[kind] += 1
                if on_entry is not None:
                    on_entry(kind)
            original(entry)

        return counted

    for cls, original in originals.items():
        cls._process_callbacks = wrap(original)
    try:
        run()
    finally:
        for cls, original in originals.items():
            cls._process_callbacks = original
    return counts


def workload_entries(workload: str, size: str, on_entry=None) -> collections.Counter:
    """The ledger of one seed-0 e2e workload."""
    sys.path.insert(0, os.path.join(BENCH_DIR, "e2e"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.pop(0)
    return count_entries(lambda: WORKLOADS[workload](SEED, size), on_entry)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve", "dispatch", "fabric", "churn"))
    parser.add_argument("--size", default="full", choices=("smoke", "full"))
    parser.add_argument("--top", type=int, default=25,
                        help="kinds to print, most frequent first")
    args = parser.parse_args(argv)
    counts = workload_entries(args.workload, args.size)
    total = sum(counts.values())
    print(f"{args.workload} ({args.size}, seed {SEED}): {total} entries, "
          f"{len(counts)} kinds")
    for kind, n in counts.most_common(args.top):
        print(f"{n:>9}  {n / total:6.1%}  {kind}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.exit(main())
