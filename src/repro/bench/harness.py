"""Formatting helpers so every bench prints the paper's rows/series.

Setting ``REPRO_BENCH_OUTCOMES`` to a file path makes every
:meth:`Table.show` append the table's simulated cells to that file as
one JSON line.  ``benchmarks/run.py`` sets it and compares the
recording with the pinned ``benchmarks/bench_outcomes.json``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Sequence

__all__ = ["Series", "Table", "geometric_range"]


#: Names the JSON-lines file :meth:`Table.show` records outcomes into.
OUTCOMES_ENV = "REPRO_BENCH_OUTCOMES"


def geometric_range(start: int, stop: int) -> list[int]:
    """[start, start*2, start*4, ...] up to and including stop."""
    if start < 1:
        raise ValueError("start >= 1 required")
    out = []
    v = start
    while v <= stop:
        out.append(v)
        v *= 2
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
