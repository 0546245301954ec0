"""The simulator-specific lint rules, RPR001-RPR007, and their runner.

Every rule is derived from a bug that actually shipped in this repo and
was found by hand:

* **RPR001** — eager f-string/``.format`` event names (the PR-3 lazy-name
  overhaul exists because name building dominated hot-path profiles);
* **RPR002** — nondeterministic ordering feeding the schedule (the PR-4
  in-flight registry iterated a hash set by object address);
* **RPR003** — wall-clock or unseeded randomness inside sim code (a
  simulated schedule must be a pure function of config + seed);
* **RPR004** — reading ``.triggered`` on pre-valued ``Timeout`` objects
  (they are constructed already-valued, so it is always ``True`` — the
  PR-5 batcher-window footgun);
* **RPR005** — resource acquire/grant without a release on all paths
  (the NIC-slot and CPU-slot leaks fixed in PRs 3-4);
* **RPR006** — ``stats()`` methods that don't return a frozen ``Stats``
  dataclass (the PR-6 unified snapshot protocol);
* **RPR007** — tracer spans opened without a guaranteed close, or span
  labels built eagerly outside a ``tracer is not None`` gate (the
  ``repro.telemetry`` pay-as-you-go contract).

Every rule is an :class:`ast.NodeVisitor` run over one file's tree with
a shared :class:`FileContext` (parent pointers, ``# repro: noqa[RPRxxx]``
suppressions, sim-code classification).  :func:`lint` runs them over
files and directories, each tree parsed once per session by
:func:`sources.parse`; ``tests/test_analysis.py`` runs it over the repo
as a guard and over the fixture corpus through :func:`lint_source`.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional

from sources import parse, python_files

#: ``# repro: noqa`` or ``# repro: noqa[RPR001]`` / ``[RPR001,RPR005]``.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[\s*(?P<codes>RPR\d{3}(?:\s*,\s*RPR\d{3})*)\s*\])?",
    re.IGNORECASE,
)

#: Directories never walked: caches, VCS litter, and the deliberate-bug
#: fixture corpus (its files *must* violate the rules; the tests point
#: the rules at them explicitly via ``lint_source``).
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


class FileContext:
    """Everything rules share about one file: source, tree, parents,
    suppressions, and whether the file counts as simulator code."""

    def __init__(
        self, path: str, source: str, tree: ast.Module, assume_sim: bool = False
    ):
        self.path = path
        self.source = source
        self.tree = tree
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


# --------------------------------------------------------------------------
# shared helpers
# --------------------------------------------------------------------------

def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None


def _final_name(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _walk_scope(root: ast.AST):
    """Walk ``root``'s body without descending into nested functions or
    classes — the per-function rules reason about one scope at a time."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            stack.extend(ast.iter_child_nodes(node))


# --------------------------------------------------------------------------
# RPR001 — eager event names
# --------------------------------------------------------------------------

#: Event-creating callees and the positional index of their ``name``
#: parameter (None = keyword-only in practice).
_EVENT_METHOD_NAME_POS = {
    "event": 0,
    "process": 1,
    "completed": 1,
    "timer_handle": 1,
}
_EVENT_CLASS_NAME_POS = {
    "Event": 1,
    "Process": 2,
    "TimerHandle": 2,
    "Kernel": None,
    "CollectiveRendezvous": None,
}


def _eager_format(
    expr: ast.AST, gate: Optional[Callable[[ast.AST], bool]] = None
) -> Optional[ast.AST]:
    """The first *eagerly evaluated* f-string/.format inside ``expr``.

    Lambdas are lazy (the engine's ``LazyName`` protocol resolves them
    on first read) and are skipped, as is a conditional expression
    whose test satisfies ``gate``.
    """
    if isinstance(expr, ast.Lambda):
        return None
    if gate is not None and isinstance(expr, ast.IfExp) and gate(expr.test):
        return None
    if isinstance(expr, ast.JoinedStr) and any(
        isinstance(v, ast.FormattedValue) for v in expr.values
    ):
        return expr
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr == "format"
    ):
        return expr
    for child in ast.iter_child_nodes(expr):
        found = _eager_format(child, gate)
        if found is not None:
            return found
    return None


class EagerEventNameRule(Rule):
    """RPR001: eager f-string/.format event names.

    Event names exist for debuggers and error messages; the hot path
    never reads them.  Building one eagerly pays string formatting on
    every event — millions per sweep.  Pass a constant name or a lazy
    ``name=lambda: f"..."``.
    """

    code = "RPR001"
    name = "eager-event-name"
    summary = "eager f-string/.format event name; pass a lazy lambda"
    sim_only = True

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        pos: Optional[int] = None
        matched = False
        if isinstance(func, ast.Attribute) and func.attr in _EVENT_METHOD_NAME_POS:
            pos = _EVENT_METHOD_NAME_POS[func.attr]
            matched = True
        else:
            fname = _final_name(func)
            if fname in _EVENT_CLASS_NAME_POS:
                pos = _EVENT_CLASS_NAME_POS[fname]
                matched = True
        if matched:
            candidates: list[ast.AST] = []
            for kw in node.keywords:
                if kw.arg == "name":
                    candidates.append(kw.value)
            if pos is not None and len(node.args) > pos:
                candidates.append(node.args[pos])
            for cand in candidates:
                eager = _eager_format(cand)
                if eager is not None:
                    self.report(eager)
                    break
        self.generic_visit(node)


# --------------------------------------------------------------------------
# RPR002 — nondeterministic ordering feeding the schedule
# --------------------------------------------------------------------------

#: Consumers whose result does not depend on input order.
_ORDER_INSENSITIVE = frozenset(
    {"sorted", "min", "max", "sum", "len", "set", "frozenset", "any", "all"}
)
_ITER_WRAPPERS = frozenset({"list", "tuple", "iter", "enumerate", "reversed"})
_SET_ANNOTATIONS = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
)


def _is_set_constructor(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


class SetIterationRule(Rule):
    """RPR002: iteration order of a hash set reaching the schedule.

    ``set``/``frozenset`` iterate by hash-table layout — object sets by
    address, which differs between runs.  Any such order that reaches
    event scheduling breaks golden determinism (the PR-4 in-flight
    registry bug).  Iterate an insertion-ordered ``dict`` (or ``sorted``
    the set) instead.  ``id()`` in a sort key is the same bug with extra
    steps.
    """

    code = "RPR002"
    name = "set-iteration-order"
    summary = "iterating a hash set: order is nondeterministic"
    sim_only = True

    def run(self):
        self._set_bindings: set[tuple[str, str]] = set()
        self._collect_bindings()
        return super().run()

    # -- binding collection (whole file, flow-insensitive) ----------------
    def _collect_bindings(self) -> None:
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, ast.AnnAssign) and self._is_set_annotation(
                node.annotation
            ):
                self._bind(node.target)
            elif isinstance(node, ast.Assign) and _is_set_constructor(node.value):
                for target in node.targets:
                    self._bind(target)

    def _is_set_annotation(self, ann: ast.AST) -> bool:
        base = ann.value if isinstance(ann, ast.Subscript) else ann
        name = _final_name(base)
        return name in _SET_ANNOTATIONS

    def _bind(self, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self._set_bindings.add(("name", target.id))
        elif isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ):
            self._set_bindings.add(("attr", target.attr))

    def _is_set_expr(self, node: ast.AST) -> bool:
        while (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _ITER_WRAPPERS
            and node.args
        ):
            node = node.args[0]
        if _is_set_constructor(node):
            return True
        if isinstance(node, ast.Name):
            return ("name", node.id) in self._set_bindings
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return ("attr", node.attr) in self._set_bindings
        return False

    def _order_insensitive_context(self, node: ast.AST) -> bool:
        for anc in self.ctx.ancestors(node):
            if isinstance(anc, ast.Call):
                if _final_name(anc.func) in _ORDER_INSENSITIVE:
                    return True
            elif isinstance(anc, ast.stmt):
                break
        return False

    # -- order-sensitive iteration sites ----------------------------------
    def visit_For(self, node: ast.For) -> None:
        if self._is_set_expr(node.iter):
            self.report(
                node.iter,
                "for-loop over a hash set: iteration order is "
                "nondeterministic; use an insertion-ordered dict or sorted()",
            )
        self.generic_visit(node)

    def _check_comp(self, node) -> None:
        for gen in node.generators:
            if self._is_set_expr(gen.iter) and not self._order_insensitive_context(
                node
            ):
                self.report(
                    gen.iter,
                    "comprehension over a hash set: result order is "
                    "nondeterministic; use an insertion-ordered dict or sorted()",
                )
        self.generic_visit(node)

    visit_ListComp = _check_comp
    visit_DictComp = _check_comp
    visit_GeneratorExp = _check_comp

    def visit_Call(self, node: ast.Call) -> None:
        fname = _final_name(node.func)
        is_sort = fname in ("sorted", "min", "max") or (
            isinstance(node.func, ast.Attribute) and node.func.attr == "sort"
        )
        if is_sort:
            for kw in node.keywords:
                if kw.arg != "key":
                    continue
                if isinstance(kw.value, ast.Name) and kw.value.id == "id":
                    self.report(
                        kw.value,
                        "id() as a sort key: object addresses differ "
                        "between runs",
                    )
                elif isinstance(kw.value, ast.Lambda):
                    for sub in ast.walk(kw.value.body):
                        if (
                            isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Name)
                            and sub.func.id == "id"
                        ):
                            self.report(
                                sub,
                                "id() inside a sort key: object addresses "
                                "differ between runs",
                            )
                            break
        self.generic_visit(node)


# --------------------------------------------------------------------------
# RPR003 — wall clock / unseeded randomness in sim code
# --------------------------------------------------------------------------

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)
#: Seeded constructors are the *sanctioned* way to get randomness.
_SEEDED_RANDOM_CTORS = frozenset({"default_rng", "SeedSequence"})


class WallClockRule(Rule):
    """RPR003: wall-clock time or module-level randomness in sim code.

    A simulated schedule must be a pure function of config + seed.
    ``time.time()``/``datetime.now()`` leak host state into the run, and
    module-level ``random.*`` / ``np.random.*`` draw from unseeded (or
    globally shared) generators.  Pass an explicit
    ``np.random.default_rng(seed)`` instead.
    """

    code = "RPR003"
    name = "wall-clock-in-sim"
    summary = "wall-clock or unseeded randomness in simulator code"
    sim_only = True

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is not None:
            parts = dotted.split(".")
            if dotted in _WALL_CLOCK_CALLS:
                self.report(
                    node, f"wall-clock call {dotted}() in simulator code"
                )
            elif parts[0] == "random" and len(parts) >= 2:
                self.report(
                    node,
                    f"module-level {dotted}() draws from the shared global "
                    "generator; use np.random.default_rng(seed)",
                )
            elif (
                len(parts) >= 3
                and parts[0] in ("np", "numpy")
                and parts[1] == "random"
                and parts[2] not in _SEEDED_RANDOM_CTORS
            ):
                self.report(
                    node,
                    f"module-level {dotted}() is unseeded; use "
                    "np.random.default_rng(seed)",
                )
        self.generic_visit(node)


# --------------------------------------------------------------------------
# RPR004 — .triggered on pre-valued Timeouts
# --------------------------------------------------------------------------

def _is_timeout_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Attribute) and node.func.attr in (
        "timeout",
        "shared_timeout",
    ):
        return True
    return _final_name(node.func) == "Timeout"


class TimeoutTriggeredRule(Rule):
    """RPR004: reading ``.triggered`` on a pre-valued ``Timeout``.

    ``Timeout`` events carry their value from construction, so
    ``.triggered`` is ``True`` the moment they exist — *before* the
    delay elapses.  Testing it is always a bug (compare ``sim.now``
    against the arming time instead).  The runtime sanitizer catches
    dynamic instances of the same mistake.
    """

    code = "RPR004"
    name = "timeout-triggered-read"
    summary = (
        ".triggered on a Timeout is True from construction; compare "
        "sim.now against the arming time instead"
    )

    def run(self):
        self._scopes: list[set[str]] = []
        return super().run()

    def _visit_function(self, node) -> None:
        names: set[str] = set()
        for sub in _walk_scope(node):
            if isinstance(sub, ast.Assign) and _is_timeout_call(sub.value):
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(sub, ast.AnnAssign) and isinstance(
                sub.target, ast.Name
            ):
                ann_name = _final_name(
                    sub.annotation.value
                    if isinstance(sub.annotation, ast.Subscript)
                    else sub.annotation
                )
                if ann_name == "Timeout":
                    names.add(sub.target.id)
        self._scopes.append(names)
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "triggered":
            value = node.value
            if _is_timeout_call(value):
                self.report(node)
            elif isinstance(value, ast.Name) and any(
                value.id in scope for scope in self._scopes
            ):
                self.report(node)
        self.generic_visit(node)


# --------------------------------------------------------------------------
# RPR005 — acquire without a guaranteed release
# --------------------------------------------------------------------------

_ACQUIRE_METHODS = frozenset({"acquire"})


class AcquireReleaseRule(Rule):
    """RPR005: resource acquired without a release on all paths.

    An acquired slot must be released even when the holder fails — via
    ``try/finally`` around the hold, or by handing ownership to a state
    object with an ``abort`` handler (the ``_PrepState``/``_SendState``
    pattern).  A release on the happy path only leaks the slot on every
    exception, which skews all downstream scheduling (the PR-3 CPU-slot
    and PR-4 NIC-slot leaks).
    """

    code = "RPR005"
    name = "acquire-without-release"
    summary = (
        "resource acquired without release on all paths; use try/finally "
        "or an abort-handler state object"
    )
    sim_only = True

    def _visit_function(self, node) -> None:
        cls = self._enclosing_class(node)
        if cls is None or not self._defines_abort(cls):
            self._check_function(node)
        self.generic_visit(node)

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _enclosing_class(self, node) -> Optional[ast.ClassDef]:
        for anc in self.ctx.ancestors(node):
            if isinstance(anc, ast.ClassDef):
                return anc
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return None
        return None

    @staticmethod
    def _defines_abort(cls: ast.ClassDef) -> bool:
        return any(
            isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and item.name == "abort"
            for item in cls.body
        )

    def _check_function(self, node) -> None:
        acquires: list[tuple[ast.Call, Optional[str]]] = []
        releases: list[tuple[ast.Call, Optional[str]]] = []
        for sub in _walk_scope(node):
            if not isinstance(sub, ast.Call) or not isinstance(
                sub.func, ast.Attribute
            ):
                continue
            receiver = _dotted(sub.func.value)
            if sub.func.attr in _ACQUIRE_METHODS:
                acquires.append((sub, receiver))
            elif sub.func.attr == "release":
                releases.append((sub, receiver))
        for call, receiver in acquires:
            matching = [
                r
                for r, recv in releases
                if receiver is None or recv is None or recv == receiver
            ]
            if not matching:
                self.report(
                    call,
                    "acquired slot is never released in this function; "
                    "hand ownership to an abort-capable state object or "
                    "release in try/finally",
                )
            elif not all(self.ctx.in_finally(r) for r in matching):
                self.report(
                    call,
                    "release is not on all paths (an exception between "
                    "acquire and release leaks the slot); move the "
                    "release into a finally block",
                )


# --------------------------------------------------------------------------
# RPR006 — stats() must return a frozen Stats dataclass
# --------------------------------------------------------------------------

class StatsProtocolRule(Rule):
    """RPR006: ``stats()`` must return a frozen ``Stats`` snapshot.

    The unified observability protocol (``repro.stats``) guarantees
    every ``stats()`` is an immutable point-in-time snapshot — benches
    and tests compare them across runs.  Returning a live dict or raw
    attributes reintroduces the mutable-snapshot drift PR 6 removed.
    """

    code = "RPR006"
    name = "stats-protocol"
    summary = "stats() must return a frozen *Stats dataclass"

    def _visit_function(self, node) -> None:
        if node.name == "stats":
            self._check_stats(node)
        self.generic_visit(node)

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _check_stats(self, node) -> None:
        stats_locals: set[str] = set()
        returns: list[ast.Return] = []
        for sub in _walk_scope(node):
            if isinstance(sub, ast.Assign) and self._is_stats_call(sub.value):
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        stats_locals.add(target.id)
            elif isinstance(sub, ast.Return):
                returns.append(sub)
        if not returns:
            self.report(node, "stats() returns nothing; return a *Stats snapshot")
            return
        for ret in returns:
            value = ret.value
            if value is None:
                self.report(
                    ret, "stats() returns None; return a *Stats snapshot"
                )
            elif self._is_stats_call(value):
                continue
            elif isinstance(value, ast.Name) and value.id in stats_locals:
                continue
            else:
                self.report(
                    ret,
                    "stats() must return a frozen *Stats dataclass, not "
                    f"{type(value).__name__}",
                )

    @staticmethod
    def _is_stats_call(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        fname = _final_name(node.func)
        return fname is not None and fname.endswith("Stats")


# --------------------------------------------------------------------------
# RPR007 — span hygiene (tracing must be leak-free and pay-as-you-go)
# --------------------------------------------------------------------------

#: Tracer methods that take a human-readable label as their first
#: argument (the pay-as-you-go check applies to all of them).
_SPAN_EMIT_METHODS = frozenset({"begin", "complete", "instant", "span"})


def _trace_receiver(receiver: Optional[str]) -> bool:
    """True for receivers that look like a Tracer handle: ``tr``,
    ``tracer``, ``self.tracer``, ``sim.tracer``, ..."""
    if receiver is None:
        return False
    last = receiver.split(".")[-1]
    return last == "tr" or "trace" in last


def _test_gates_tracer(test: ast.AST) -> bool:
    """True when an ``if`` test checks a tracer handle ``is not None``."""
    return any(
        isinstance(node, ast.Compare)
        and isinstance(node.ops[0], ast.IsNot)
        and isinstance(node.comparators[0], ast.Constant)
        and node.comparators[0].value is None
        and _trace_receiver(_dotted(node.left))
        for node in ast.walk(test)
    )


class SpanHygieneRule(Rule):
    """RPR007: tracer spans must close on all paths and cost nothing
    when tracing is off.

    Two checks, both derived from the ``repro.telemetry`` contract:

    * ``tr.begin(...)`` with no matching ``tr.end(...)`` in the same
      function — or with the ``end`` outside a ``finally`` block —
      leaves the span open whenever an exception (or early return)
      interrupts the holder.  Close in ``try/finally`` or use the
      ``with tr.span(...)`` context manager, which guarantees it.
    * f-string span labels evaluated outside an ``if tr is not None``
      gate pay string formatting on every call even with no tracer
      attached — exactly the eager-name tax RPR001 exists for, on the
      telemetry API.
    """

    code = "RPR007"
    name = "span-hygiene"
    summary = (
        "tracer span opened without a guaranteed close, or eager span "
        "label not gated behind `tracer is not None`"
    )
    sim_only = True

    def _visit_function(self, node) -> None:
        self._check_begin_end(node)
        self.generic_visit(node)

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _check_begin_end(self, node) -> None:
        begins: list[ast.Call] = []
        ends: list[ast.Call] = []
        for sub in _walk_scope(node):
            if not isinstance(sub, ast.Call) or not isinstance(
                sub.func, ast.Attribute
            ):
                continue
            if not _trace_receiver(_dotted(sub.func.value)):
                continue
            if sub.func.attr == "begin":
                begins.append(sub)
            elif sub.func.attr == "end":
                ends.append(sub)
        for call in begins:
            if not ends:
                self.report(
                    call,
                    "span opened with begin() is never closed in this "
                    "function; close in try/finally or use the "
                    "`with tr.span(...)` context manager",
                )
            elif not all(self.ctx.in_finally(e) for e in ends):
                self.report(
                    call,
                    "span close is not on all paths (an exception between "
                    "begin() and end() leaves the span open); move the "
                    "end() into a finally block",
                )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _SPAN_EMIT_METHODS
            and _trace_receiver(_dotted(func.value))
        ):
            candidates = list(node.args) + [
                kw.value for kw in node.keywords
            ]
            for cand in candidates:
                eager = _eager_format(cand, _test_gates_tracer)
                if eager is not None and not self._tracer_gated(node):
                    self.report(
                        eager,
                        "eager f-string span label; gate the emission "
                        "behind `tracer is not None`",
                    )
                    break
        self.generic_visit(node)

    def _tracer_gated(self, call: ast.Call) -> bool:
        """The whole call sits under an ``if <tracer> is not None``
        branch."""
        for anc in self.ctx.ancestors(call):
            if isinstance(anc, (ast.If, ast.IfExp)) and _test_gates_tracer(
                anc.test
            ):
                return True
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break
        return False


ALL_RULES = [
    EagerEventNameRule,
    SetIterationRule,
    WallClockRule,
    TimeoutTriggeredRule,
    AcquireReleaseRule,
    StatsProtocolRule,
    SpanHygieneRule,
]


def _lint(
    path: str, source: str, parse_tree: Callable[[], ast.Module], assume_sim: bool
) -> list[Violation]:
    """Every unsuppressed rule hit in one file, in source order; a file
    that does not parse is one ``RPR000``."""
    try:
        ctx = FileContext(path, source, parse_tree(), assume_sim)
    except SyntaxError as exc:
        return [
            Violation(path, exc.lineno or 0, exc.offset or 0, "RPR000",
                      f"syntax error: {exc.msg}")
        ]
    out = [
        v
        for rule_cls in ALL_RULES
        if ctx.is_sim or not rule_cls.sim_only
        for v in rule_cls(ctx).run()
        if not ctx.suppressed(v.line, v.code)
    ]
    out.sort(key=lambda v: (v.line, v.col, v.code))
    return out


def lint_source(
    source: str, path: str = "<string>", assume_sim: bool = False
) -> list[Violation]:
    """Lint one source string with every rule."""
    return _lint(path, source, lambda: ast.parse(source, filename=path), assume_sim)


def lint(paths: Iterable[Path]) -> list[str]:
    """``path:line:col: RPRxxx message`` for every violation in the
    files and directories ``paths``, skipping ``EXCLUDED_DIRS``."""
    return [
        f"{v.path}:{v.line}:{v.col}: {v.code} {v.message}"
        for f in python_files(paths)
        if not EXCLUDED_DIRS.intersection(f.parts)
        for v in _lint(str(f), f.read_text(encoding="utf-8"), lambda: parse(f), False)
    ]
