"""Formatting helpers so every bench prints the paper's rows/series,
plus the CI smoke mode.

Setting ``REPRO_BENCH_SMOKE=1`` in the environment puts the whole bench
suite into *smoke mode*: sweep ranges shrink (via
:func:`geometric_range`'s ``smoke_stop`` / :func:`smoke_trim`), and the
calibrated full-scale assertions are skipped (via :func:`full_asserts`)
because the paper's numeric claims only hold at full scale.  Every bench
still executes its complete code path end to end, so figure
reproductions can never silently rot — the smoke sweep is what CI runs
on every push.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

__all__ = [
    "Series",
    "Table",
    "full_asserts",
    "geometric_range",
    "smoke_mode",
    "smoke_trim",
]


def smoke_mode() -> bool:
    """True when the suite runs in CI smoke mode (REPRO_BENCH_SMOKE=1)."""
    return os.environ.get("REPRO_BENCH_SMOKE", "") == "1"


def full_asserts() -> bool:
    """True when the paper-calibrated assertions should be checked.

    Smoke mode shrinks sweeps below the scales where the paper's claims
    hold, so those assertions are gated on this.
    """
    return not smoke_mode()


def smoke_trim(values: Sequence, keep: int = 3) -> list:
    """In smoke mode, keep only the first ``keep`` entries of a sweep."""
    values = list(values)
    if smoke_mode():
        return values[:keep]
    return values


def geometric_range(
    start: int, stop: int, factor: int = 2, smoke_stop: Optional[int] = None
) -> list[int]:
    """[start, start*factor, ...] up to and including stop.

    In smoke mode the range ends at ``smoke_stop`` instead (default:
    ``start * factor``, i.e. two points), shrinking CI sweeps while
    keeping the sweep structure intact.
    """
    if start < 1 or factor < 2:
        raise ValueError("start >= 1 and factor >= 2 required")
    if smoke_mode():
        stop = min(stop, smoke_stop if smoke_stop is not None else start * factor)
    out = []
    v = start
    while v <= stop:
        out.append(v)
        v *= factor
    return out


@dataclass
class Table:
    """A paper-style table printed to stdout by a bench."""

    title: str
    columns: Sequence[str]
    rows: list[Sequence[Any]] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells for {len(self.columns)} columns"
            )
        self.rows.append(values)

    def render(self) -> str:
        def fmt(v: Any) -> str:
            if isinstance(v, bool):
                return str(v)
            if isinstance(v, float):
                if abs(v) >= 1000:
                    return f"{v:,.1f}"
                return f"{v:.3g}"
            if isinstance(v, int) and abs(v) >= 10_000:
                return f"{v:,d}"
            return str(v)

        cells = [[fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(str(col)), *(len(r[i]) for r in cells)) if cells else len(str(col))
            for i, col in enumerate(self.columns)
        ]
        lines = [f"== {self.title} =="]
        header = " | ".join(str(c).ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-+-".join("-" * w for w in widths))
        for row in cells:
            lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def show(self) -> None:
        print("\n" + self.render())


@dataclass
class Series:
    """One figure line: (x, y) pairs with a label."""

    label: str
    points: list[tuple[float, float]] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.points.append((x, y))

    def y_at(self, x: float) -> float:
        for px, py in self.points:
            if px == x:
                return py
        raise KeyError(f"{self.label}: no point at x={x}")

    def render(self) -> str:
        pts = "  ".join(f"({x:g}, {y:,.0f})" for x, y in self.points)
        return f"{self.label}: {pts}"
