"""Shared benchmark-harness utilities: table/series formatting."""

from repro.bench.harness import Series, Table, geometric_range

__all__ = ["Series", "Table", "geometric_range"]
