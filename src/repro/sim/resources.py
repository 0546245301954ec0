"""Shared-resource primitives built on the event kernel.

:class:`Resource` is a counted semaphore with FIFO granting — used for
host CPUs and NICs and a client's controller thread.  It grants
strictly in arrival order, which keeps the simulation deterministic and
models the paper's FIFO hardware queues faithfully.  (PLAQUE channel
shards are plain deques in :mod:`repro.plaque.channels`: nothing waits
on them.)
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque

from repro.sim.engine import Simulator
from repro.sim.sanitize import UnbalancedGrantError

__all__ = ["Resource"]


class Resource:
    """A counted resource granting up to ``capacity`` concurrent holders.

    ``acquire(on_grant)`` calls ``on_grant()`` once a slot is held; the
    holder must later call ``release()`` exactly once::

        def hold(sim, cpu, work_us):
            def on_grant():
                sim.timeout(work_us).add_callback(lambda ev: cpu.release())
            cpu.acquire(on_grant)
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: int = 1,
        name: str = "",
        leak_check: bool = False,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "resource"
        #: Leak-checked resources (host CPUs, NIC slots) must be fully
        #: released at natural drain end; the sim-sanitizer raises
        #: UnbalancedGrantError for any slot still held.  Resources that
        #: legitimately stay held across a run end (long-lived pools)
        #: leave this False — only stranded *waiters* are flagged then.
        self.leak_check = leak_check
        self._in_use = 0
        #: Queued acquire() callbacks, in arrival order.
        self._waiters: Deque[Callable[[], None]] = deque()
        if sim.sanitize and sim.sanitizer is not None:
            sim.sanitizer.watch(self)

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_len(self) -> int:
        return len(self._waiters)

    def acquire(self, on_grant: Callable[[], None]) -> None:
        """Call ``on_grant()`` once a slot is held, then :meth:`release` it.

        A contended waiter is granted inside the holder's
        :meth:`release`: no event, no loop entry.
        """
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            on_grant()
        else:
            self._waiters.append(on_grant)

    def fail_waiters(self) -> int:
        """Drop every queued (not-yet-granted) acquisition, at once.

        Models a serial resource going away (e.g. a crashed host CPU):
        queued waiters would otherwise be granted a slot on dead
        hardware.  No callback runs and no event is made: the waiters'
        owner settles them itself (a host crash aborts its preps, the
        transport its queued sends).  Returns how many were dropped.
        """
        n = len(self._waiters)
        self._waiters.clear()
        return n

    def release(self) -> None:
        if self._in_use <= 0:
            raise UnbalancedGrantError(
                f"release of idle resource {self.name!r}"
            )
        if self._waiters:
            # Hand the slot directly to the next waiter: in_use unchanged.
            self._waiters.popleft()()
        else:
            self._in_use -= 1

    def _sanitizer_problems(self) -> list[tuple[str, str]]:
        """Drain-end invariants for the sim-sanitizer sweep."""
        problems: list[tuple[str, str]] = []
        pending = len(self._waiters)
        if pending:
            problems.append(
                (
                    "waiters",
                    f"resource {self.name!r} drained with {pending} "
                    "waiter(s) never granted or failed (lost wakeup)",
                )
            )
        if self.leak_check and self._in_use > 0:
            problems.append(
                (
                    "grants",
                    f"resource {self.name!r} drained with {self._in_use} "
                    "slot(s) still held (acquire without release)",
                )
            )
        return problems
