"""Client-visible futures over remote objects.

The Pathways client never holds data; it holds opaque handles to objects
that live in host or accelerator memory (paper §4.6).  A
:class:`PathwaysFuture` pairs the completion event with the handle, and
exposes the logical value once the producing computation has run.
"""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

import numpy as np

from repro.sim import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.object_store import ObjectHandle

__all__ = ["PathwaysFuture"]


class PathwaysFuture:
    """A promise for a (logical) buffer produced by a computation."""

    def __init__(self, sim: Simulator, handle: "ObjectHandle"):
        self.sim = sim
        self.handle = handle
        self._ready: Event = sim.event()

    @property
    def name(self) -> str:
        return f"future:{self.handle.object_id}"

    @property
    def ready(self) -> Event:
        return self._ready

    @property
    def is_ready(self) -> bool:
        return self._ready.triggered

    def resolve(self, value: Optional[np.ndarray]) -> None:
        """Mark the buffer as produced (called by the executor layer)."""
        self.handle.value = value
        self._ready.succeed(value)

    def fail(self, exc: BaseException) -> None:
        self._ready.fail(exc)

    def value(self) -> Any:
        """The logical value; only valid once ready."""
        if not self._ready.triggered:
            raise RuntimeError(f"{self.name}: value requested before ready")
        return self._ready.value
