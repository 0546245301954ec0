"""Track the machine's speed while a repetition runs.

The simulator is single-threaded pure Python.  On a shared host its
speed swings by up to 1.8x, in steps that last from seconds to minutes,
as neighbours load the physical core and its caches.  Timing more work
per run does not average that out, because the steps last longer than a
run.  So every ``PERIOD_S`` of wall time an interval timer interrupts
the workload and times one fixed chunk of benchmark-owned Python: an
integer loop, then a pointer chase through a few MiB of list.  The
chunk's median time over a repetition says how fast the machine ran
during it, and the repetition's times are multiplied by
``(REFERENCE_S / median) ** exponent``.  The exponent says how much
more than the chunk a workload slows: each workload has its own, in
``workloads.EXPONENTS``.  The chunks' own time is kept out of every
timing through ``Speedometer.clock``.

The chunk runs no program code, so a change to the program cannot move
it.  It allocates no object that the garbage collector tracks, so it
starts no collection of the program's objects.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

__all__ = ["PERIOD_S", "REFERENCE_S", "Speedometer"]

#: How often the chunk runs, in seconds of wall time.
PERIOD_S = 0.01
#: The chunk's median time on an otherwise idle 2-vCPU Intel Xeon VM
#: (2.0 GHz), the machine the benchmark was calibrated on.
REFERENCE_S = 240e-6


def _cycle(n: int) -> list:
    """One random cycle through ``n`` slots: ``cycle[i]`` follows ``i``."""
    order = list(range(n))
    random.Random(0).shuffle(order)
    cycle = [0] * n
    for a, b in zip(order, order[1:] + order[:1]):
        cycle[a] = b
    return cycle


_NEXT = _cycle(100_000)


def _chunk(start: int) -> int:
    x = 0
    for i in range(1_500):
        x ^= i * 7
    slot = start
    for _ in range(400):
        slot = _NEXT[slot]
    return slot


class Speedometer:
    """Samples the chunk time on ``SIGALRM`` between ``start`` and ``stop``."""

    def __init__(self, exponent: float) -> None:
        self.exponent = exponent
        self.spent = 0.0
        self.samples: list = []
        self._slot = 0

    def clock(self) -> float:
        """Wall time in seconds, minus the time spent in chunks."""
        return time.perf_counter() - self.spent

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._slot = _chunk(self._slot)
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def start(self) -> None:
        self.samples = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> float:
        """Stop sampling; return the scale ``(REFERENCE_S / median chunk
        time) ** exponent``, or 1.0 if the repetition was too short for
        any sample."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            return 1.0
        return (REFERENCE_S / statistics.median(self.samples)) ** self.exponent
