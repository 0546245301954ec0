"""Causal span tracing over the simulated stack.

A :class:`Tracer` is attached to the :class:`~repro.sim.Simulator`
(``Simulator(tracer=...)`` or via ``PathwaysSystem.build(tracer=...)``)
and collects :class:`Span` records from instrumentation sites across
the serve frontend, scheduler, dispatch, devices, ``repro.net``, and
resilience layers.  It is the simulator's one trace stream.  Two
properties are load-bearing:

* **schedule-neutral** — capture is a passive append that reads
  ``sim.now``; the tracer never creates events, timers, or processes,
  so golden schedules are byte-identical with tracing on or off (pinned
  in ``tests/test_sim_determinism.py``);
* **pay-as-you-go** — every instrumentation site gates its span-label
  f-strings behind ``tracer is not None`` (enforced statically by lint
  rule RPR007), so a simulator without a tracer pays one ``is None``
  check per site.

Spans export as Chrome-trace/Perfetto JSON (:meth:`Tracer.to_chrome_trace`)
— load the file in ``ui.perfetto.dev`` or ``chrome://tracing`` — and the
same span stream feeds the critical-path analyzer
(:mod:`repro.telemetry.critpath`) and, through its ``kernel`` spans, the
device timelines of :mod:`repro.telemetry.timeline`.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = ["Span", "Tracer"]


class Span:
    """One traced interval (or instant) on a named track."""

    __slots__ = (
        "name",
        "cat",
        "start_us",
        "end_us",
        "track",
        "args",
        "span_id",
        "trace_id",
    )

    def __init__(
        self,
        name: str,
        cat: str,
        start_us: float,
        end_us: Optional[float],
        track: str,
        args: Optional[dict],
        span_id: int,
        trace_id: Optional[str],
    ):
        self.name = name
        self.cat = cat
        self.start_us = start_us
        self.end_us = end_us
        self.track = track
        self.args = args
        self.span_id = span_id
        self.trace_id = trace_id

    @property
    def duration_us(self) -> float:
        return (self.end_us - self.start_us) if self.end_us is not None else 0.0

    @property
    def is_instant(self) -> bool:
        return self.end_us is not None and self.end_us == self.start_us

    def __repr__(self) -> str:
        end = f"{self.end_us:.1f}" if self.end_us is not None else "open"
        return f"Span({self.cat}:{self.name} {self.start_us:.1f}..{end})"


class Tracer:
    """Causal span collector; see the module docstring for the contract.

    ``flight`` optionally attaches a
    :class:`~repro.telemetry.flight.FlightRecorder` that shadows every
    emission into a bounded post-mortem ring.
    """

    def __init__(self, flight=None):
        self.flight = flight
        self.sim = None
        self.spans: list[Span] = []
        self._next_id = 1

    # -- attachment --------------------------------------------------------
    def bind(self, sim) -> None:
        """Called by ``Simulator.__init__``; gives emit sites ``sim.now``."""
        self.sim = sim

    @property
    def now(self) -> float:
        return self.sim.now if self.sim is not None else 0.0

    # -- emission ----------------------------------------------------------
    def _append(
        self,
        name: str,
        cat: str,
        start_us: float,
        end_us: Optional[float],
        track: str,
        args: Optional[dict],
        trace_id: Optional[str],
    ) -> Span:
        span = Span(
            name, cat, start_us, end_us, track, args, self._next_id, trace_id
        )
        self._next_id += 1
        self.spans.append(span)
        fl = self.flight
        if fl is not None:
            fl.note(
                end_us if end_us is not None else start_us,
                cat, name, track=track, args=args,
            )
        return span

    def complete(
        self,
        name: str,
        cat: str,
        start_us: float,
        end_us: float,
        track: str = "",
        args: Optional[dict] = None,
        trace_id: Optional[str] = None,
    ) -> Span:
        """One closed interval, recorded after the fact (the dominant
        idiom: sites read timestamps already stamped on the object —
        request/gang/message — and emit passively at settle time)."""
        return self._append(name, cat, start_us, end_us, track, args, trace_id)

    def instant(
        self,
        name: str,
        cat: str,
        ts_us: Optional[float] = None,
        track: str = "",
        args: Optional[dict] = None,
        trace_id: Optional[str] = None,
    ) -> Span:
        """A zero-duration marker (reroute, park, loss, fault delivery)."""
        t = ts_us if ts_us is not None else self.now
        return self._append(name, cat, t, t, track, args, trace_id)

    def begin(
        self,
        name: str,
        cat: str,
        track: str = "",
        args: Optional[dict] = None,
        trace_id: Optional[str] = None,
    ) -> Span:
        """Open a span at ``sim.now``; close with :meth:`end`.

        Every ``begin`` needs an ``end`` on all paths (``try/finally``
        or the :meth:`span` context manager) — lint rule RPR007 enforces
        it, because an exception between the two leaves the span open
        and silently truncates the exported trace.
        """
        return self._append(name, cat, self.now, None, track, args, trace_id)

    def end(self, span: Span) -> None:
        """Close a span from :meth:`begin` at ``sim.now``."""
        span.end_us = self.now

    @contextmanager
    def span(self, name: str, cat: str) -> Iterator[Span]:
        """``with tracer.span(...)``: begin/end with a guaranteed close."""
        opened = self.begin(name, cat)
        try:
            yield opened
        finally:
            self.end(opened)

    # -- views -------------------------------------------------------------
    def by_cat(self, cat: str) -> list[Span]:
        return [s for s in self.spans if s.cat == cat]

    def clear(self) -> None:
        self.spans.clear()

    # -- Chrome-trace / Perfetto export -----------------------------------
    def to_chrome_trace(self) -> dict:
        """The span stream in Chrome trace event format (the JSON shape
        Perfetto and ``chrome://tracing`` load): complete events
        (``ph="X"``) for closed spans, thread-scoped instants
        (``ph="i"``), and ``ph="M"`` thread-name metadata rows mapping
        each track to its tid.  ``ts``/``dur`` are already microseconds
        — the native unit of both the sim and the format."""
        tids: dict[str, int] = {}
        events: list[dict] = []
        for span in self.spans:
            track = span.track or "main"
            tid = tids.get(track)
            if tid is None:
                tid = len(tids)
                tids[track] = tid
            args = dict(span.args) if span.args else {}
            if span.trace_id is not None:
                args["trace_id"] = span.trace_id
            args["span_id"] = span.span_id
            if span.is_instant:
                events.append(
                    {
                        "name": span.name,
                        "cat": span.cat,
                        "ph": "i",
                        "ts": span.start_us,
                        "pid": 0,
                        "tid": tid,
                        "s": "t",
                        "args": args,
                    }
                )
            else:
                end = span.end_us
                if end is None:  # still open at export: close at `now`
                    end = max(self.now, span.start_us)
                    args["open"] = True
                events.append(
                    {
                        "name": span.name,
                        "cat": span.cat,
                        "ph": "X",
                        "ts": span.start_us,
                        "dur": end - span.start_us,
                        "pid": 0,
                        "tid": tid,
                        "args": args,
                    }
                )
        meta = [
            {
                "name": "thread_name",
                "ph": "M",
                "ts": 0,
                "pid": 0,
                "tid": tid,
                "args": {"name": track},
            }
            for track, tid in tids.items()
        ]
        return {"traceEvents": meta + events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome_trace(), fh)
        return path
