"""The runtime sim-sanitizer: typed invariant checks for the engine.

The static rules in :mod:`repro.analysis` catch what is visible in the
source; this module catches the dynamic instances — a slot acquired on
a path the linter could not follow, an event chain that dropped its
continuation, link capacity stranded by an abort race.  Enable with
``Simulator(sanitize=True)`` or ``REPRO_SIM_SANITIZE=1`` (the tier-1 CI
job exports it, so every test runs instrumented).

Design constraints:

* **schedule-neutral** — the sanitizer never creates events, timers, or
  processes, so golden schedules are byte-identical with it on or off;
* **pay-as-you-go** — instrumented objects register themselves with the
  simulator's :class:`SimSanitizer` on first use behind a single
  ``sim.sanitize`` flag test; with sanitize off the hot paths are
  untouched;
* **loud and typed** — every detection raises a :class:`SanitizerError`
  subclass naming the leaked object, instead of letting the leak
  silently skew downstream scheduling.

What is checked:

* double-succeed/fail on events (:class:`DoubleTriggerError` — always
  on; it typed an existing engine check);
* ``.triggered`` reads on pre-valued, not-yet-fired ``Timeout`` objects
  (:class:`PendingTimeoutReadError` — the PR-5 batcher footgun);
* at natural drain end (:meth:`Simulator.run` completing with empty
  queues): resource waiters that were never granted *or* failed
  (:class:`UnsettledWaitersError`), held slots on leak-checked
  resources such as host NICs and CPUs (:class:`UnbalancedGrantError`),
  and fabric links still carrying or queueing traffic
  (:class:`LeakedCapacityError`, the per-link residual behind
  ``fabric.idle``), HBM allocations still queued or reservations out of
  ``[0, capacity]``, transports whose messages sent differ from those
  delivered plus those lost, and object stores whose allocations minus
  frees differ from their live objects or whose live objects' HBM
  shards differ from a device's reservation (:class:`ConservationError`);
* every device fault or repair a fault injector applies lazily finds its
  device still cold (:class:`WarmDeviceError`);
* at drain end, every lockstep lane of devices or hosts agrees with its
  members: an idle lane holds no kernel and no wait, a busy one waits on
  something, its CPU is busy exactly while preps are in flight, and each
  member points at the lane and keeps no drain or CPU state of its own
  (:class:`LaneStateError`).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

__all__ = [
    "ConservationError",
    "DoubleTriggerError",
    "LaneStateError",
    "LeakedCapacityError",
    "PendingTimeoutReadError",
    "SanitizerError",
    "SimSanitizer",
    "UnbalancedGrantError",
    "UnsettledWaitersError",
    "WarmDeviceError",
    "sanitize_from_env",
]


class SanitizerError(RuntimeError):
    """Base class for every sim-sanitizer detection.

    Subclasses :class:`RuntimeError` so code (and tests) written against
    the engine's historical untyped raises keeps working; catching
    ``SanitizerError`` is the precise spelling.
    """


class DoubleTriggerError(SanitizerError):
    """An event was succeeded/failed more than once."""


class PendingTimeoutReadError(SanitizerError):
    """``.triggered`` was read on a Timeout that has not fired yet.

    Timeouts are pre-valued at construction, so their ``triggered``
    property is ``True`` the moment they exist — reading it to ask "has
    the delay elapsed?" is always a bug.  Compare ``sim.now`` against
    the arming time instead.
    """


class UnsettledWaitersError(SanitizerError):
    """Waiters were still queued when the simulation fully drained —
    someone was granted nothing and failed with nothing (a lost
    wakeup)."""


class UnbalancedGrantError(SanitizerError):
    """A leak-checked resource's grants don't balance: a slot is still
    held at drain end (acquire without release), or a release arrived
    with no outstanding grant."""


class LeakedCapacityError(SanitizerError):
    """Fabric link capacity is still occupied at drain end — an abort
    path failed to release a flow's share (the ``fabric.idle``
    invariant, per link)."""


class ConservationError(SanitizerError):
    """Counts that must balance at drain end do not: a transport's
    messages sent differ from those delivered plus those lost."""


class WarmDeviceError(SanitizerError):
    """A fault injector applied a device transition lazily, without a
    loop entry, to a device that held live state (a kernel, an HBM
    waiter, a bound slice, a scheduler request): the device should have
    been warmed before it was touched."""


class LaneStateError(SanitizerError):
    """A lockstep lane of devices or hosts (:class:`repro.hw.device.Lane`,
    :class:`repro.hw.host.HostLane`) disagrees with its members or with
    its own idle flag: a member holds state the lane should, or the lane
    lost the continuation of the kernel it holds."""


_TRUTHY = frozenset({"1", "true", "yes", "on"})


def sanitize_from_env() -> bool:
    """Resolve ``REPRO_SIM_SANITIZE`` (unset/falsy means off)."""
    return os.environ.get("REPRO_SIM_SANITIZE", "").strip().lower() in _TRUTHY


class SimSanitizer:
    """Registry of instrumented objects + the drain-end sweep.

    Objects self-register via :meth:`watch` on first instrumented use
    and expose ``_sanitizer_problems() -> list[tuple[str, str]]`` where
    the first element is a category key (``"waiters"``, ``"capacity"``,
    ``"grants"``, ``"conservation"``).  The registry is an
    insertion-ordered dict keyed by object identity, so sweep order —
    and therefore which error fires first — is deterministic for a
    deterministic program.
    """

    #: category key -> error class, in report-priority order.
    _CATEGORIES = (
        ("waiters", UnsettledWaitersError),
        ("capacity", LeakedCapacityError),
        ("grants", UnbalancedGrantError),
        ("conservation", ConservationError),
        ("lanes", LaneStateError),
    )

    def __init__(self) -> None:
        self._watched: dict[int, object] = {}
        #: Total drain-end sweeps performed (observability/tests).
        self.sweeps = 0

    def watch(self, obj: object) -> None:
        """Register one instrumented object (idempotent)."""
        self._watched.setdefault(id(obj), obj)

    def problems(self) -> dict[str, list[str]]:
        """Collect every current problem, grouped by category."""
        grouped: dict[str, list[str]] = {}
        for obj in self._watched.values():
            for category, message in obj._sanitizer_problems():
                grouped.setdefault(category, []).append(message)
        return grouped

    def check_drained(self, sim: "Simulator") -> None:
        """The drain-end sweep; raises the highest-priority detection."""
        self.sweeps += 1
        grouped = self.problems()
        for category, error_cls in self._CATEGORIES:
            messages = grouped.get(category)
            if messages:
                raise error_cls(
                    f"sim-sanitizer at t={sim.now:.3f}us: "
                    + "; ".join(messages)
                )
