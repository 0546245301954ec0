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

Setting ``REPRO_BENCH_OUTCOMES`` to a file path makes every
:meth:`Table.show` append the table's simulated cells to that file as
one JSON line.  ``benchmarks/run.py --smoke`` sets it and compares the
recording with the pinned ``benchmarks/bench_outcomes_smoke.json``.
"""

from __future__ import annotations

import json
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


#: Names the JSON-lines file :meth:`Table.show` records outcomes into.
OUTCOMES_ENV = "REPRO_BENCH_OUTCOMES"


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
    #: Columns measured in wall-clock time: shown, but left out of the
    #: recorded outcome, which must repeat exactly run to run.
    wall_clock: Sequence[str] = ()

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

    def outcome(self) -> dict[str, Any]:
        """Title, columns and rows without the wall-clock columns."""
        keep = [i for i, c in enumerate(self.columns) if c not in self.wall_clock]
        return {
            "title": self.title,
            "columns": [str(self.columns[i]) for i in keep],
            "rows": [[row[i] for i in keep] for row in self.rows],
        }

    def show(self) -> None:
        print("\n" + self.render())
        path = os.environ.get(OUTCOMES_ENV)
        if path:
            # "benchmarks/bench_x.py::test_y[p] (call)" -> ("x", "test_y[p]")
            node = os.environ.get("PYTEST_CURRENT_TEST", "?::?").rsplit(" (", 1)[0]
            file, _, test = node.partition("::")
            bench = os.path.basename(file).removeprefix("bench_").removesuffix(".py")
            record = {"bench": bench, "test": test, **self.outcome()}
            with open(path, "a", encoding="utf-8") as f:
                f.write(json.dumps(record) + "\n")


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
