"""Dependency guard: no import of a module nothing declares.

A clean ``pip install -e .[dev]`` must be enough to import and test the
package, so every top-level module an import statement names must be one
of:

* in ``src/``: the standard library (``sys.stdlib_module_names``),
  ``repro`` itself, or a ``[project].dependencies`` entry;
* in ``tests/``, ``benchmarks/`` and ``examples/``: any of those, a
  ``dev`` extra entry, or a sibling module of the same tree (a ``.py``
  file anywhere under it, e.g. ``oracles`` or ``workloads``).

Relative imports are the package's own.  ``pyproject.toml`` is read
without ``tomllib``, which Python 3.10 lacks.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT_TREES = ("tests", "benchmarks", "examples")


def _import_name(requirement: str) -> str:
    """The module a requirement installs: its distribution name,
    lower-cased, with ``-`` and ``.`` as ``_``."""
    dist = re.match(r"[A-Za-z0-9._-]+", requirement).group(0)
    return dist.lower().replace("-", "_").replace(".", "_")


def declared_arrays(pyproject: str) -> dict[str, set[str]]:
    """``"table.key"`` -> the import names of each string array in
    ``pyproject``.  A line reader, not a TOML parser: it handles the
    ``key = [`` ... ``]`` arrays, one or several strings a line, that
    ``pyproject.toml`` writes."""
    arrays: dict[str, set[str]] = {}
    table = ""
    key: str | None = None
    for raw in pyproject.splitlines():
        line = raw.split("#", 1)[0].strip()
        if key is None:
            header = re.fullmatch(r"\[([^\]]+)\]", line)
            if header:
                table = header.group(1)
                continue
            start = re.fullmatch(r"([\w-]+)\s*=\s*\[(.*)", line)
            if not start:
                continue
            key = f"{table}.{start.group(1)}"
            arrays[key] = set()
            line = start.group(2)
        arrays[key].update(_import_name(s) for s in re.findall(r'"([^"]+)"', line))
        if "]" in line:
            key = None
    return arrays


def _imports(path: Path) -> set[str]:
    """Top-level modules ``path`` imports by absolute name."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def undeclared(root: Path) -> list[str]:
    """``"path: module"`` for each undeclared import under ``root``."""
    arrays = declared_arrays((root / "pyproject.toml").read_text())
    runtime = (
        set(sys.stdlib_module_names) | {"repro"} | arrays["project.dependencies"]
    )
    dev = arrays["project.optional-dependencies.dev"]
    problems = []
    for tree in ("src", *SCRIPT_TREES):
        files = sorted((root / tree).rglob("*.py"))
        allowed = runtime
        if tree != "src":
            allowed = runtime | dev | {f.stem for f in files}
        for path in files:
            for module in sorted(_imports(path) - allowed):
                problems.append(f"{path.relative_to(root)}: {module}")
    return problems


def test_every_import_is_declared():
    assert undeclared(ROOT) == []


def test_pyproject_arrays():
    arrays = declared_arrays((ROOT / "pyproject.toml").read_text())
    assert arrays["project.dependencies"] == {"numpy"}
    assert {"pytest", "hypothesis"} <= arrays["project.optional-dependencies.dev"]


def test_guard_flags_undeclared_and_dev_only_imports(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        "[project]\n"
        'dependencies = ["numpy>=1.24"]\n'
        "\n"
        "[project.optional-dependencies]\n"
        "dev = [\n"
        '    "pytest>=8",  # the test runner\n'
        '    "pytest-benchmark>=4",\n'
        "]\n"
    )
    for tree in ("src/repro", *SCRIPT_TREES):
        (tmp_path / tree).mkdir(parents=True)
    (tmp_path / "src/repro/graph.py").write_text(
        "import heapq\nimport numpy as np\nimport networkx as nx\nfrom repro import sim\n"
    )
    (tmp_path / "src/repro/check.py").write_text("import pytest\nfrom . import graph\n")
    (tmp_path / "tests/oracles.py").write_text("import pytest_benchmark\n")
    (tmp_path / "tests/test_x.py").write_text("def f():\n    import oracles, pytest\n")
    (tmp_path / "examples/demo.py").write_text("import matplotlib.pyplot\n")
    assert undeclared(tmp_path) == [
        "src/repro/check.py: pytest",
        "src/repro/graph.py: networkx",
        "examples/demo.py: matplotlib",
    ]
