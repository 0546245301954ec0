"""Client-visible futures over remote objects.

The Pathways client never holds data; it holds opaque handles to objects
that live in host or accelerator memory (paper §4.6).  A
:class:`PathwaysFuture` pairs the handle with the logical value, set once
the producing computation has run (the first run's, across replays).
"""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.object_store import ObjectHandle

__all__ = ["PathwaysFuture"]


class PathwaysFuture:
    """A promise for a (logical) buffer produced by a computation."""

    __slots__ = ("handle", "is_ready", "_value")

    def __init__(self, handle: "ObjectHandle"):
        self.handle = handle
        self.is_ready = False
        self._value: Optional[np.ndarray] = None

    @property
    def name(self) -> str:
        return f"future:{self.handle.object_id}"

    def resolve(self, value: Optional[np.ndarray]) -> None:
        """Mark the buffer as produced (called by the executor layer)."""
        self._value = value
        self.is_ready = True

    def value(self) -> Any:
        """The logical value; only valid once ready."""
        if not self.is_ready:
            raise RuntimeError(f"{self.name}: value requested before ready")
        return self._value
