"""One parse of each Python file per test session, for the static guards.

The RPR lint rules (``tests/test_analysis.py``), the reachability guard
and the dependency guard read the same files.  They find them with
:func:`python_files` and get each tree from :func:`parse`, which parses a
file once and hands every later caller the same tree.  Trees are shared,
so a scan never modifies one: per-node data goes in the scan's own dict.
Files are taken to be unchanged while the session runs.
"""

from __future__ import annotations

import ast
from functools import cache
from pathlib import Path
from typing import Iterable


@cache
def parse(path: Path) -> ast.Module:
    """The tree of ``path``, parsed on the first call."""
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def python_files(paths: Iterable[Path]) -> list[Path]:
    """The ``.py`` files ``paths`` name: each directory's, sorted, and
    each ``.py`` file itself.  A path that is neither adds nothing."""
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files
