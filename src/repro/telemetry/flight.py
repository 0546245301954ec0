"""The fault flight recorder: a bounded ring of recent observations.

Attached to a :class:`~repro.telemetry.spans.Tracer` (``Tracer(flight=
FlightRecorder())``), it shadows every span/instant the tracer emits
into a ``deque(maxlen=capacity)`` — O(capacity) memory no matter how
long the run — and dumps the ring automatically at the moments a
post-mortem is worth having:

* a :class:`~repro.sim.sanitize.SanitizerError` at drain time (the
  engine's natural-drain leak sweep; ``Simulator.run`` dumps before
  re-raising), which covers drain-leaks too — they *are* typed
  sanitizer errors;
* the first typed in-flight message loss, when watching a transport via
  :meth:`watch_transport` (``MessageLost`` categories: host-crash,
  link-down, park-deadline, ...).

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
        self._loss_dumped = False

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

    # -- transport hook ----------------------------------------------------
    def watch_transport(self, transport) -> None:
        """Dump once on the first typed message loss (then keep
        recording; repeated losses in a crash drill would otherwise spam
        the console with near-identical rings)."""
        transport.add_loss_listener(self._on_loss)

    def _on_loss(self, message, cause) -> None:
        self.note(
            getattr(message, "sent_at_us", 0.0),
            "net.lost",
            getattr(cause, "category", "other"),
            track="net",
        )
        if not self._loss_dumped:
            self._loss_dumped = True
            self.dump(reason=f"message loss ({getattr(cause, 'category', 'other')})")

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
