"""The fault flight recorder: a bounded ring of recent observations.

Attached to a :class:`~repro.telemetry.spans.Tracer` (``Tracer(flight=
FlightRecorder())``), it shadows every span/instant the tracer emits
into a ``deque(maxlen=capacity)`` — O(capacity) memory no matter how
long the run — and dumps the ring automatically on a
:class:`~repro.sim.sanitize.SanitizerError` at drain time (the
engine's natural-drain leak sweep; ``Simulator.run`` dumps before
re-raising), which covers drain-leaks too — they *are* typed sanitizer
errors.  Message losses need no hook of their own: the transport emits
a ``net.lost`` instant per loss, which the ring records like any other.

Dumping is a plain text render of the last ``capacity`` entries, newest
last — exactly the context a scheduler-ordering bug report needs.
"""

from __future__ import annotations

import sys
from collections import deque
from typing import Optional

__all__ = ["FlightRecorder"]


class FlightRecorder:
    """Bounded ring of recent span closes/instants; see module docs."""

    def __init__(self, capacity: int = 256):
        self.capacity = capacity
        self.entries: deque = deque(maxlen=capacity)
        self.dumps = 0

    # -- feed (called by the tracer on every emission) ---------------------
    def note(
        self,
        t_us: float,
        cat: str,
        label: str,
        track: str = "",
        args: Optional[dict] = None,
    ) -> None:
        self.entries.append((t_us, cat, label, track, args))

    # -- rendering ---------------------------------------------------------
    def render(self) -> str:
        lines = [
            f"flight recorder: last {len(self.entries)} of up to "
            f"{self.capacity} entries (newest last)"
        ]
        for t_us, cat, label, track, args in self.entries:
            detail = f" {args}" if args else ""
            where = f" [{track}]" if track else ""
            lines.append(f"  {t_us:14.3f}us {cat:<14s} {label}{where}{detail}")
        return "\n".join(lines)

    def dump(self, reason: str = "", stream=None) -> str:
        """Render the ring to ``stream`` (default stderr); returns it."""
        self.dumps += 1
        text = self.render()
        header = f"=== flight recorder dump ({reason or 'manual'}) ==="
        out = f"{header}\n{text}\n"
        print(out, file=stream if stream is not None else sys.stderr, end="")
        return out
