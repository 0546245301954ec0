"""Device timelines over a tracer's ``kernel`` spans.

Every device emits one ``kernel`` span per executed kernel (track
``device<N>``, args ``device`` and ``program``).  These functions turn
that slice of the span stream into the numbers and pictures the paper's
trace figures show:

* per-device utilization (Figure 11: "using multiple clients increases
  the device utilization to ~100%");
* per-program device-time shares (Figure 9: proportional-share ratios
  1:1:1:1 and 1:2:4:8);
* the granularity at which concurrent programs interleave (Figure 11:
  "interleaved at a millisecond scale or less");
* an ASCII per-core timeline, the textual analogue of Figures 9-12.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Optional, Sequence

from repro.telemetry.spans import Tracer

__all__ = [
    "interleave_granularity_us",
    "kernel_devices",
    "kernel_span_range",
    "program_share",
    "render_timeline",
    "utilization_by_device",
]

_SYMBOLS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"


def _kernels(tracer: Tracer) -> list[tuple[int, float, float, str]]:
    """``(device, start, end, program)`` per kernel span, in emit order."""
    return [
        (s.args["device"], s.start_us, s.end_us, s.args["program"])
        for s in tracer.spans
        if s.cat == "kernel"
    ]


def kernel_devices(tracer: Tracer) -> list[int]:
    """Ids of the devices that ran at least one kernel, ascending."""
    return sorted({k[0] for k in _kernels(tracer)})


def kernel_span_range(tracer: Tracer) -> tuple[float, float]:
    """(earliest kernel start, latest kernel end); ``(0, 0)`` if none."""
    kernels = _kernels(tracer)
    if not kernels:
        return (0.0, 0.0)
    return (min(k[1] for k in kernels), max(k[2] for k in kernels))


def utilization_by_device(
    tracer: Tracer, window: Optional[tuple[float, float]] = None
) -> dict[int, float]:
    """Busy fraction per device over ``window`` (default: kernel range)."""
    lo, hi = window if window is not None else kernel_span_range(tracer)
    devices = kernel_devices(tracer)
    if hi <= lo:
        return {dev: 0.0 for dev in devices}
    busy: dict[int, float] = defaultdict(float)
    for dev, start, end, _ in _kernels(tracer):
        overlap = min(end, hi) - max(start, lo)
        if overlap > 0:
            busy[dev] += overlap
    return {dev: busy[dev] / (hi - lo) for dev in devices}


def program_share(
    tracer: Tracer, window: Optional[tuple[float, float]] = None
) -> dict[str, float]:
    """Fraction of total device-time consumed by each program.

    This is the quantity the proportional-share scheduler controls: for
    target weights 1:2:4:8, the returned shares should be ~1/15, 2/15,
    4/15, 8/15.
    """
    lo, hi = window if window is not None else kernel_span_range(tracer)
    time_by_program: dict[str, float] = defaultdict(float)
    total = 0.0
    for _, start, end, program in _kernels(tracer):
        overlap = min(end, hi) - max(start, lo)
        if overlap > 0 and program:
            time_by_program[program] += overlap
            total += overlap
    if total == 0:
        return {}
    return {prog: t / total for prog, t in sorted(time_by_program.items())}


def interleave_granularity_us(tracer: Tracer, device: Optional[int] = None) -> float:
    """Mean length of a same-program run before the device switches program.

    Small values mean fine-grained time-multiplexing (the paper reports
    millisecond scale or less for 4-16 concurrent clients).
    """
    by_device: dict[int, list] = defaultdict(list)
    for k in _kernels(tracer):
        by_device[k[0]].append(k)
    devices = [device] if device is not None else sorted(by_device)
    run_lengths: list[float] = []
    for dev in devices:
        kernels = sorted(by_device.get(dev, ()), key=lambda k: k[1])
        if not kernels:
            continue
        _, run_start, run_end, run_prog = kernels[0]
        for _, start, end, program in kernels[1:]:
            if program == run_prog:
                run_end = end
            else:
                run_lengths.append(run_end - run_start)
                run_start, run_prog, run_end = start, program, end
        run_lengths.append(run_end - run_start)
    if not run_lengths:
        return 0.0
    return math.fsum(run_lengths) / len(run_lengths)


def render_timeline(
    tracer: Tracer,
    width: int = 100,
    devices: Optional[Sequence[int]] = None,
    window: Optional[tuple[float, float]] = None,
    legend: bool = True,
) -> str:
    """Render the kernel spans as an ASCII chart, one row per device.

    Time is bucketed into ``width`` columns; a bucket shows the symbol of
    the program that used the most device time in it, ``.`` if idle.
    Programs get symbols in first-seen order (``A``, ``B``, ...).
    """
    lo, hi = window if window is not None else kernel_span_range(tracer)
    if hi <= lo:
        return "(empty trace)"
    devs = list(devices) if devices is not None else kernel_devices(tracer)
    bucket_us = (hi - lo) / width

    symbol_of: dict[str, str] = {}

    def sym(program: str) -> str:
        if program not in symbol_of:
            symbol_of[program] = _SYMBOLS[len(symbol_of) % len(_SYMBOLS)]
        return symbol_of[program]

    # busy[device][bucket][program] -> accumulated time
    busy: dict[int, list[dict[str, float]]] = {
        dev: [defaultdict(float) for _ in range(width)] for dev in devs
    }
    for dev, start, end, program in _kernels(tracer):
        if dev not in busy:
            continue
        first = max(0, int((start - lo) / bucket_us))
        last = min(width - 1, int((end - lo) / bucket_us))
        for b in range(first, last + 1):
            b_lo = lo + b * bucket_us
            b_hi = b_lo + bucket_us
            overlap = min(end, b_hi) - max(start, b_lo)
            if overlap > 0:
                busy[dev][b][program or "?"] += overlap

    lines = [f"t = [{lo:.0f}us .. {hi:.0f}us], {bucket_us:.1f}us/col"]
    for dev in devs:
        row = []
        for bucket in busy[dev]:
            if not bucket:
                row.append(".")
            else:
                winner = max(bucket.items(), key=lambda kv: kv[1])[0]
                row.append(sym(winner))
        lines.append(f"core {dev:4d} |{''.join(row)}|")
    if legend and symbol_of:
        pairs = ", ".join(f"{s}={p}" for p, s in symbol_of.items())
        lines.append(f"legend: {pairs}, .=idle")
    return "\n".join(lines)
