"""The metrics time-series registry.

Counters and histograms live in a :class:`MetricsRegistry`; each
:meth:`~MetricsRegistry.sample` call appends one ``(sim_time_us,
value)`` point per metric.  The registry creates no sim events: it is
fed from the span stream or by hand, never from a timer of its own.
"""

from __future__ import annotations

from repro.telemetry.histogram import Histogram

__all__ = ["Counter", "MetricsRegistry"]


class Counter:
    """Monotonic counter; sampled cumulatively."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self) -> None:
        self.value += 1.0


class MetricsRegistry:
    """Named metrics plus their sampled time-series.

    ``counter``/``histogram`` are get-or-create; :meth:`sample` appends
    one ``(t, value)`` point per counter — histograms contribute
    ``.count``/``.mean``/``.p99`` series so the export stays flat for
    CSV consumers.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._series: dict[str, list[tuple[float, float]]] = {}

    # -- registration ------------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram()
        return h

    # -- sampling ----------------------------------------------------------
    def _push(self, name: str, t_us: float, value: float) -> None:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = []
        series.append((t_us, float(value)))

    def sample(self, t_us: float) -> None:
        for name, c in self._counters.items():
            self._push(name, t_us, c.value)
        for name, h in self._histograms.items():
            self._push(f"{name}.count", t_us, h.count)
            self._push(f"{name}.mean", t_us, h.mean)
            self._push(f"{name}.p99", t_us, h.percentile(99.0))

    # -- reads -------------------------------------------------------------
    def series(self, name: str) -> list[tuple[float, float]]:
        return list(self._series.get(name, ()))

    def names(self) -> list[str]:
        return sorted(self._series)

