"""The rule-visitor lint framework.

One parse per file; every rule is an :class:`ast.NodeVisitor` run over
the same tree with a shared :class:`FileContext` (parent pointers,
``# repro: noqa[RPRxxx]`` suppressions, sim-code classification).
Rules report :class:`Violation` records; the checker filters suppressed
lines and the CLI renders text or JSON.

Suppression syntax, modeled on ruff's but namespaced so the two tools
never fight over a comment::

    cpu.acquire(state.on_grant)  # repro: noqa[RPR005] ownership moves to _PrepState
    for p in procs:              # repro: noqa  (suppresses every rule on the line)

Rules that only make sense for simulator code (hot-path event naming,
schedule-feeding iteration order) set ``sim_only = True`` and are
skipped outside a ``repro`` package directory unless the caller forces
``assume_sim=True`` (the fixture tests do).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

__all__ = [
    "Checker",
    "FileContext",
    "Rule",
    "Violation",
    "check_paths",
    "check_source",
]

#: ``# repro: noqa`` or ``# repro: noqa[RPR001]`` / ``[RPR001,RPR005]``.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[\s*(?P<codes>RPR\d{3}(?:\s*,\s*RPR\d{3})*)\s*\])?",
    re.IGNORECASE,
)

#: Directories never walked: caches, VCS litter, and the deliberate-bug
#: fixture corpus (its files *must* violate the rules; the tests point
#: the checker at them explicitly via ``check_source``).
EXCLUDED_DIRS = frozenset(
    {"__pycache__", ".git", ".ruff_cache", "analysis_fixtures"}
)


@dataclass(frozen=True)
class Violation:
    """One rule hit at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }


class FileContext:
    """Everything rules share about one file: source, tree, parents,
    suppressions, and whether the file counts as simulator code."""

    def __init__(self, path: str, source: str, assume_sim: bool = False):
        self.path = path
        self.source = source
        self.tree = ast.parse(source, filename=path)
        self.lines = source.splitlines()
        #: line number -> frozenset of suppressed codes (empty = all).
        self.noqa: dict[int, frozenset[str]] = {}
        for lineno, text in enumerate(self.lines, start=1):
            m = _NOQA_RE.search(text)
            if m is None:
                continue
            codes = m.group("codes")
            if codes is None:
                self.noqa[lineno] = frozenset()
            else:
                self.noqa[lineno] = frozenset(
                    c.strip().upper() for c in codes.split(",")
                )
        self.is_sim = assume_sim or _is_sim_path(path)
        #: child -> parent node map for ancestor queries (gating checks,
        #: finally-block membership).
        self.parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent

    def suppressed(self, line: int, code: str) -> bool:
        codes = self.noqa.get(line)
        if codes is None:
            return False
        return not codes or code in codes

    def ancestors(self, node: ast.AST) -> Iterable[ast.AST]:
        cur = self.parents.get(node)
        while cur is not None:
            yield cur
            cur = self.parents.get(cur)

    def in_finally(self, node: ast.AST) -> bool:
        """True when ``node`` sits inside some ``try``'s ``finally``."""
        cur = node
        for parent in self.ancestors(node):
            if isinstance(parent, ast.Try) and any(
                _contains(stmt, cur) for stmt in parent.finalbody
            ):
                return True
            cur = parent
        return False


def _contains(root: ast.AST, target: ast.AST) -> bool:
    if root is target:
        return True
    return any(node is target for node in ast.walk(root))


def _is_sim_path(path: str) -> bool:
    """Simulator code = anything inside a ``repro`` package directory."""
    return "repro" in Path(path).parts


class Rule(ast.NodeVisitor):
    """Base class for one lint rule.

    Subclasses set ``code``/``name``/``summary``, optionally
    ``sim_only``, and call :meth:`report` from their visit methods.
    """

    code: str = "RPR000"
    name: str = "unnamed"
    summary: str = ""
    #: Only applies to simulator source (see :class:`FileContext`).
    sim_only: bool = False

    def __init__(self, ctx: FileContext):
        self.ctx = ctx
        self.violations: list[Violation] = []

    def report(self, node: ast.AST, message: Optional[str] = None) -> None:
        self.violations.append(
            Violation(
                path=self.ctx.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0) + 1,
                code=self.code,
                message=message or self.summary,
            )
        )

    def run(self) -> list[Violation]:
        self.visit(self.ctx.tree)
        return self.violations


class Checker:
    """Runs a rule set over files/trees and collects violations."""

    def __init__(self):
        from repro.analysis.rules import ALL_RULES

        self.rules = list(ALL_RULES)

    # -- single-source entry points -------------------------------------
    def check_source(
        self, source: str, path: str = "<string>", assume_sim: bool = False
    ) -> list[Violation]:
        try:
            ctx = FileContext(path, source, assume_sim=assume_sim)
        except SyntaxError as exc:
            return [
                Violation(
                    path=path,
                    line=exc.lineno or 0,
                    col=(exc.offset or 0),
                    code="RPR000",
                    message=f"syntax error: {exc.msg}",
                )
            ]
        out: list[Violation] = []
        for rule_cls in self.rules:
            if rule_cls.sim_only and not ctx.is_sim:
                continue
            for v in rule_cls(ctx).run():
                if not ctx.suppressed(v.line, v.code):
                    out.append(v)
        out.sort(key=lambda v: (v.line, v.col, v.code))
        return out

    def check_file(self, path: str, assume_sim: bool = False) -> list[Violation]:
        source = Path(path).read_text(encoding="utf-8")
        return self.check_source(source, path=str(path), assume_sim=assume_sim)

    # -- tree walking ----------------------------------------------------
    def check_paths(
        self, paths: Iterable[str], assume_sim: bool = False
    ) -> list[Violation]:
        out: list[Violation] = []
        for path in paths:
            p = Path(path)
            if p.is_dir():
                for f in sorted(p.rglob("*.py")):
                    if EXCLUDED_DIRS.intersection(f.parts):
                        continue
                    out.extend(self.check_file(str(f), assume_sim=assume_sim))
            elif p.suffix == ".py":
                out.extend(self.check_file(str(p), assume_sim=assume_sim))
        return out


@dataclass
class _ModuleDefaults:
    """Mutable default holder (keeps the module-level helpers tiny)."""

    checker: Optional[Checker] = field(default=None)


_defaults = _ModuleDefaults()


def _default_checker() -> Checker:
    if _defaults.checker is None:
        _defaults.checker = Checker()
    return _defaults.checker


def check_source(
    source: str, path: str = "<string>", assume_sim: bool = False
) -> list[Violation]:
    """Lint one source string with the full default rule set."""
    return _default_checker().check_source(source, path=path, assume_sim=assume_sim)


def check_paths(paths: Iterable[str], assume_sim: bool = False) -> list[Violation]:
    """Lint files/directories with the full default rule set."""
    return _default_checker().check_paths(paths, assume_sim=assume_sim)
