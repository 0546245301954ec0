"""Shared benchmark-harness utilities: table/series formatting and
smoke mode."""

from repro.bench.harness import (
    Series,
    Table,
    full_asserts,
    geometric_range,
    smoke_mode,
    smoke_trim,
)

__all__ = [
    "Series",
    "Table",
    "full_asserts",
    "geometric_range",
    "smoke_mode",
    "smoke_trim",
]
