"""The metrics time-series registry and its sim-time sampler.

Counters, gauges, probes (sampled callables), and histograms live in a
:class:`MetricsRegistry`; a :class:`MetricsSampler` drives periodic
sampling off one engine :class:`~repro.sim.TimerHandle`, re-armed from
its own action, producing per-metric ``(sim_time_us, value)`` series.

Unlike span tracing (purely passive), the sampler *does* create sim
events — one recurring timer — so it is a separate opt-in and is never
attached in golden-determinism comparisons.  :func:`standard_probes`
registers the stock fleet signals (queue depth, uplink utilization,
replica width, HBM residency) by scraping the same unified ``stats()``
protocol everything else reads.
"""

from __future__ import annotations

from typing import Callable

from repro.telemetry.histogram import Histogram

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "MetricsSampler",
    "standard_probes",
]


class Counter:
    """Monotonic counter; sampled cumulatively."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self) -> None:
        self.value += 1.0


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = v


class MetricsRegistry:
    """Named metrics plus their sampled time-series.

    ``counter``/``gauge``/``histogram``/``probe`` are get-or-create;
    :meth:`sample` (driven by a :class:`MetricsSampler`, or called by
    hand) appends one ``(t, value)`` point per scalar metric —
    histograms contribute ``.count``/``.mean``/``.p99`` series so the
    export stays flat for CSV consumers.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._probes: dict[str, Callable[[], float]] = {}
        self._series: dict[str, list[tuple[float, float]]] = {}
        self.samples_taken = 0

    # -- registration ------------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram()
        return h

    def probe(self, name: str, fn: Callable[[], float]) -> None:
        """A callable sampled at each tick (the scrape idiom: close over
        a live object and read it — e.g. ``lambda: len(replica.queue)``)."""
        self._probes[name] = fn

    # -- sampling ----------------------------------------------------------
    def _push(self, name: str, t_us: float, value: float) -> None:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = []
        series.append((t_us, float(value)))

    def sample(self, t_us: float) -> None:
        for name, c in self._counters.items():
            self._push(name, t_us, c.value)
        for name, g in self._gauges.items():
            self._push(name, t_us, g.value)
        for name, fn in self._probes.items():
            self._push(name, t_us, fn())
        for name, h in self._histograms.items():
            self._push(f"{name}.count", t_us, h.count)
            self._push(f"{name}.mean", t_us, h.mean)
            self._push(f"{name}.p99", t_us, h.percentile(99.0))
        self.samples_taken += 1

    # -- reads -------------------------------------------------------------
    def series(self, name: str) -> list[tuple[float, float]]:
        return list(self._series.get(name, ()))

    def names(self) -> list[str]:
        return sorted(self._series)


class MetricsSampler:
    """Periodic sampling of a registry on one engine timer.

    Each firing re-arms the timer one period ahead and then samples, so
    a probe may call :meth:`stop` from inside a sample.  ``stop()``
    discards the queued occurrence at once: a stopped sampler never
    holds ``sim.run()`` past the last real event.
    """

    def __init__(self, sim, registry: MetricsRegistry, period_us: float):
        if period_us <= 0:
            raise ValueError(f"sampler period must be positive, got {period_us}")
        self.sim = sim
        self.registry = registry
        self.period_us = period_us
        self._timer = sim.timer_handle(self._tick, name="metrics.sample")
        self._timer.schedule(sim.now + period_us)

    def _tick(self, timer) -> None:
        timer.schedule(self.sim.now + self.period_us)
        self.registry.sample(self.sim.now)

    def stop(self) -> None:
        self._timer.cancel()


def standard_probes(registry: MetricsRegistry, system) -> MetricsRegistry:
    """Register the stock fleet signals against a live system:

    * ``serve.queue_depth`` — requests admitted but not yet settled,
      summed over frontends;
    * ``net.uplink_utilization`` — max busy fraction over uplink links
      (the congestion-aware-binding signal);
    * ``hw.hbm_resident_bytes`` — HBM bytes held across all devices.
    """

    def queue_depth() -> float:
        return float(sum(f.outstanding for f in system.frontends))

    def uplink_utilization() -> float:
        util = system.transport.stats().link_utilization
        uplinks = [v for k, v in util.items() if "uplink" in k]
        return max(uplinks) if uplinks else 0.0

    def hbm_resident() -> float:
        return float(sum(d.hbm.used for d in system.cluster.devices))

    registry.probe("serve.queue_depth", queue_depth)
    registry.probe("net.uplink_utilization", uplink_utilization)
    registry.probe("hw.hbm_resident_bytes", hbm_resident)
    return registry
