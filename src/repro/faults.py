"""The hardware-loss exception base, shared across layers.

Lives outside :mod:`repro.hw` so that leaf subsystems (the network
transport, the hardware model, resilience) can all raise
:class:`FaultError` subclasses without import cycles.  This is the one
import path for both names.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["FaultError", "unwrap_fault"]


class FaultError(RuntimeError):
    """Base of hardware-loss exceptions (device failure, host crash,
    in-flight message loss).

    Fault exceptions frequently arrive *wrapped* — a failed transfer
    process delivers ``ProcessFailed(DeviceFailure)``, a process a host
    crash escaped from ``ProcessFailed(HostFailure)`` — so code deciding
    "is this a survivable peer loss?" must use :func:`unwrap_fault`
    rather than a bare ``isinstance``.
    """


def unwrap_fault(exc: Optional[BaseException]) -> Optional["FaultError"]:
    """The :class:`FaultError` inside ``exc``'s cause chain, if any.

    Walks both explicit ``.cause`` attributes (``ProcessFailed``) and
    implicit ``__cause__`` chaining.
    """
    seen: set[int] = set()
    while exc is not None and id(exc) not in seen:
        seen.add(id(exc))
        if isinstance(exc, FaultError):
            return exc
        nested = getattr(exc, "cause", None)
        if not isinstance(nested, BaseException):
            nested = exc.__cause__
        exc = nested
    return None
