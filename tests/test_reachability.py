"""Reachability guard: no public ``src/`` surface, parameter or field
that nothing runs.

Three checks, each against what ``src/``, ``benchmarks/`` and
``examples/`` do (the tests do not count: a surface only its own tests
use is code nothing runs):

* **Definitions.** Every public function, method and class defined
  under ``src/`` must be referenced somewhere other than its own
  definition.  A reference is a name read, an attribute read, or a
  string constant spelling the identifier (what ``getattr`` uses).
  Entries of an ``__all__`` list and import statements are not
  references, and neither is a reference made inside a def of the same
  name: a method that only delegates (``def f(self): return
  self.x.f()``) keeps neither itself nor its delegate alive.
* **Parameters.** Every defaulted parameter of a public function, a
  public method, or a public class's ``__init__`` must be passed a value
  other than its default by some call to a callee of that name
  (``f(...)``, ``x.f(...)``, or the class name for ``__init__``).  A
  keyword counts, and so does a positional argument at the parameter's
  index (a method's ``self`` or ``cls`` is not counted).  A parameter
  that every call passes only at its default's literal (``64 << 20``
  for a default of ``64 << 20``) has one value in use and is flagged.
  The scan reads a ``**`` splat it can spell: a dict display with
  string keys, ``dict(k=v, ...)``, a name bound once (in the enclosing
  def or the module) to one of those, a call to a module function whose
  only ``return`` is one, or a subscript into a table of them (a
  constant key picks its row, any other key takes every row).  A call
  with ``*args`` or a ``**`` splat it cannot read (forwarding the
  caller's own ``**kwargs``) counts as passing every parameter; those
  splats are listed in ``SPLAT_ALLOWLIST`` with the reason each stays.
  Private classes are out of scope.
* **Fields.** Every attribute a ``src/`` class assigns on ``self`` must
  be read somewhere: an attribute load, or a string constant passed to
  ``getattr``, ``hasattr``, ``setattr``, ``delattr`` or ``attrgetter``.
  Any other string (a dict key, a trace track, a ``__slots__`` entry)
  is not a read, and neither is ``x.a += 1``, so a counter that is only
  ever bumped is flagged even when a string elsewhere spells its name.

All three match by name, not by type: a dead method, parameter or field
that shares its name with a live one goes unreported.  A name reached
only through a built string is reported, which is why ``visit_*``
methods are exempt.

Whatever the scan flags but the project keeps goes in an allowlist with
the reason it stays.  Each allowlist is checked too: an entry that no
longer names a definition, parameter, field or unreadable splat, or
that is now reached or readable, fails, so it cannot go stale.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Optional

ROOT = Path(__file__).resolve().parents[1]
USERS = ("src", "benchmarks", "examples")

_ORACLE = "closed-form reference that tests compare the simulation against"
_OBSERVED = "state the tests read to check a run against its oracle or model"

#: ``path:qualname`` (path relative to ``src/repro``) -> why it stays.
ALLOWLIST: dict[str, str] = {
    "baselines/multi_controller.py:MultiControllerJax.expected_throughput": _ORACLE,
    "baselines/ray_like.py:RayLikeRuntime.expected_throughput": _ORACLE,
    "baselines/tf1.py:TfOneRuntime.expected_throughput": _ORACLE,
    "models/spmd.py:SpmdTrainer.expected_step_us": _ORACLE,
    "hw/cluster.py:config_a": "the paper's configuration A (512 hosts x 4 TPUs)",
    "hw/host.py:Host.prep_request": (
        "the per-host prep path tests/oracles.py patches dispatch through"
    ),
    "core/object_store.py:ShardedObjectStore.add_ref": (
        "the other half of release(): the paper's section 4.6 reference counting"
    ),
    "core/scheduler.py:IslandScheduler.paused": _OBSERVED,
    "hw/device.py:Device.kernels_run": _OBSERVED,
    "hw/device.py:Device.kernels_aborted": _OBSERVED,
}

_FAULT_API = (
    "fault-path API that the transport tests and the fault-fuzz, healthy-set "
    "and send_reliable oracle comparisons drive"
)
_ENGINE = "the engine's SimPy-style event API, which its unit tests drive"
_E2E = (
    "benchmarks/e2e/workloads.py passes it at its default, and the "
    "benchmark freezes that file"
)
_GOLDEN = "the golden schedules in tests/test_sim_determinism.py set it"
_FUZZ = "the churn golden schedule or fault fuzz (tests/test_fault_fuzz.py) sets it"

#: ``path:qualname(param)`` -> why it stays though nothing passes it.
PARAM_ALLOWLIST: dict[str, str] = {
    "workloads/multitenant.py:run_jax_multitenant(n_hosts)": (
        "the Figure 8 shape tests compare it with run_pathways_multitenant "
        "at the same host count"
    ),
    "net/transport.py:Transport.send_reliable(timeout_us)": _FAULT_API,
    "resilience/faults.py:FaultSchedule.__init__(events)": _FAULT_API,
    "resilience/faults.py:FaultSchedule.device_failure(repair_us)": _FAULT_API,
    "resilience/faults.py:FaultSchedule.host_crash(repair_us)": _FAULT_API,
    "sim/engine.py:Simulator.__init__(sanitize)": (
        "tests force the sanitizer on or off whatever REPRO_SIM_SANITIZE says"
    ),
    "sim/engine.py:Event.succeed_inline(value)": _ENGINE,
    "sim/engine.py:Simulator.completed(name)": _ENGINE,
    "sim/engine.py:Simulator.completed(value)": _ENGINE,
    "sim/engine.py:Simulator.timeout(value)": _ENGINE,
    "workloads/churn.py:run_churn(add_island_at)": _FUZZ,
    "workloads/churn.py:run_churn(compute_time_us)": _FUZZ,
    "workloads/churn.py:run_churn(log_schedule)": _GOLDEN,
    "workloads/churn.py:run_churn(repair_us)": _FUZZ,
    "workloads/netload.py:run_net_congestion(log_schedule)": _GOLDEN,
    "workloads/netload.py:run_net_congestion(tracer)": (
        "the golden tracing runs check a tracer leaves the schedule unchanged"
    ),
    "workloads/serving.py:run_serving(autoscale_interval_us)": _GOLDEN,
    "workloads/serving.py:run_serving(contention)": _E2E,
    "workloads/serving.py:run_serving(devices_per_host)": _E2E,
    "workloads/serving.py:run_serving(log_schedule)": _GOLDEN,
    "workloads/serving.py:run_serving(max_batch)": _GOLDEN,
    "workloads/serving.py:run_serving(max_wait_us)": (
        "the traced serving run of tests/test_telemetry.py and the "
        "deadline-eviction test set it"
    ),
    "workloads/serving.py:run_serving(slo_us)": _GOLDEN,
}

#: ``path:qualname: callee(**expr)`` (path relative to the repo) -> why
#: the scan cannot read that ``**`` splat, so its call passes everything.
SPLAT_ALLOWLIST: dict[str, str] = {
    "benchmarks/e2e/run.py:Probe.__init__.timed_build: build(**kwargs)": (
        "the e2e probe wraps PathwaysSystem.build whatever its caller passes"
    ),
    "benchmarks/e2e/run.py:Probe._timed.timed: drain(**kwargs)": (
        "the e2e probe wraps Simulator.run and run_until_triggered"
    ),
    "src/repro/config.py:SystemConfig.with_overrides: replace(**kwargs)": (
        "with_overrides forwards its caller's field overrides to dataclasses.replace"
    ),
}

#: ``path:Class.attr`` -> why it stays though nothing reads it.
FIELD_ALLOWLIST: dict[str, str] = {
    "core/virtual_device.py:VirtualSlice.tpus": (
        "the paper's Figure 2 user API (add_slice(...).tpus)"
    ),
    "hw/device.py:Device.fail_count": _OBSERVED,
    "hw/device.py:DeviceFailure.reason": _OBSERVED,
    "hw/device.py:HbmAllocator.cancellations": _OBSERVED,
    "hw/host.py:Host.preps_aborted": _OBSERVED,
    "hw/host.py:HostFailure.reason": _OBSERVED,
    "net/fabric.py:Link.bytes_carried": _OBSERVED,
    "net/fabric.py:Link.flows_aborted": _OBSERVED,
    "net/transport.py:MessageLost.reason": _OBSERVED,
    "serve/replicas.py:Replica.batches": _OBSERVED,
    "serve/replicas.py:Replica.requests_served": _OBSERVED,
    "sim/engine.py:DeadlockError.blocked": _OBSERVED,
    "sim/sanitize.py:SimSanitizer.sweeps": _OBSERVED,
}


def _trees(root: Path, tops: tuple[str, ...]) -> Iterator[tuple[Path, ast.Module]]:
    for top in tops:
        for path in sorted((root / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _src_trees(root: Path) -> Iterator[tuple[str, ast.Module]]:
    """``(path relative to src/repro, tree)`` for every ``src`` module."""
    src = root / "src" / "repro"
    for path, tree in _trees(root, ("src",)):
        yield path.relative_to(src).as_posix(), tree


def _listed_constants(tree: ast.Module, names: tuple[str, ...]) -> set[int]:
    """ids of the nodes inside an ``__all__``/``__slots__`` value."""
    return {
        id(const)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) in names for t in node.targets)
        for const in ast.walk(node.value)
    }


# -- definitions ---------------------------------------------------------------

def _is_visitor_method(qualname: str) -> bool:
    """``ast.NodeVisitor`` calls ``visit_<NodeType>`` through ``getattr``
    with a built name, which no string constant spells."""
    return "." in qualname and qualname.rsplit(".", 1)[1].startswith("visit_")


def _public_defs(root: Path = ROOT) -> dict[str, str]:
    """``path:qualname`` -> bare name, for every public def and class."""
    defs: dict[str, str] = {}

    def walk(body, rel: str, owner: str) -> None:
        for node in body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if not node.name.startswith("_"):
                defs[f"{rel}:{owner}{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                walk(node.body, rel, f"{owner}{node.name}.")

    for rel, tree in _src_trees(root):
        walk(tree.body, rel, "")
    return defs


def _referenced_names(root: Path = ROOT) -> set[str]:
    names: set[str] = set()

    def visit(node: ast.AST, exports: set[int], inside: frozenset) -> None:
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in exports
        ):
            name = node.value
        else:
            name = None
        if name is not None and name not in inside:
            names.add(name)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, exports, inside)

    for _, tree in _trees(root, USERS):
        visit(tree, _listed_constants(tree, ("__all__",)), frozenset())
    return names


def _unreferenced(root: Path = ROOT) -> list[str]:
    referenced = _referenced_names(root)
    return sorted(
        key for key, name in _public_defs(root).items()
        if name not in referenced and not _is_visitor_method(key)
    )


# -- parameters ----------------------------------------------------------------

def _defaulted_params(
    root: Path = ROOT,
) -> dict[str, tuple[str, str, Optional[int], ast.expr]]:
    """``path:qualname(param)`` -> ``(callee name, param, call index,
    default)`` for every defaulted parameter of a public function, a
    public method of a public class, or a public class's ``__init__``.
    The call index is where a positional argument lands on it (None:
    keyword-only)."""
    params: dict[str, tuple[str, str, Optional[int], ast.expr]] = {}

    def add(key: str, callee: str, fn: ast.FunctionDef, skip: int) -> None:
        args = fn.args
        positional = args.posonlyargs + args.args
        first_default = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional):
            if i >= max(first_default, skip):
                default = args.defaults[i - first_default]
                params[f"{key}({arg.arg})"] = (callee, arg.arg, i - skip, default)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                params[f"{key}({arg.arg})"] = (callee, arg.arg, None, default)

    def walk(body, rel: str, owner: str, cls: Optional[str]) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                walk(node.body, rel, f"{owner}{node.name}.", node.name)
            elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            elif cls is None:
                if not node.name.startswith("_"):
                    add(f"{rel}:{node.name}", node.name, node, 0)
            elif node.name == "__init__":
                add(f"{rel}:{owner}__init__", cls, node, 1)
            elif not node.name.startswith("_"):
                static = any(
                    getattr(d, "id", None) == "staticmethod"
                    for d in node.decorator_list
                )
                add(f"{rel}:{owner}{node.name}", node.name, node, 0 if static else 1)

    for rel, tree in _src_trees(root):
        walk(tree.body, rel, "", None)
    return params


_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = _FUNCS + (ast.ClassDef,)
_SCOPES = _DEFS + (ast.Lambda,)

#: A scope chain: the module, then each enclosing function or lambda (a
#: class body is no scope for the functions inside it).
Scopes = tuple[ast.AST, ...]


def _own_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """The nodes of ``scope``'s body, not descending into nested defs,
    classes or lambdas (those nodes themselves are yielded)."""
    body = scope.body
    stack = list(body) if isinstance(body, list) else [body]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _bindings(scope: ast.AST) -> dict[str, list[Optional[ast.AST]]]:
    """name -> what each of ``scope``'s own bindings of it binds: the
    value of a plain assignment, the def of a ``def``, or None for a
    binding the scan cannot read (a parameter, an import, a loop target,
    an augmented assignment)."""
    names: dict[str, list[Optional[ast.AST]]] = {}
    read_targets: set[int] = set()
    if not isinstance(scope, ast.Module):
        args = scope.args
        for arg in (
            args.posonlyargs + args.args + args.kwonlyargs
            + [a for a in (args.vararg, args.kwarg) if a is not None]
        ):
            names.setdefault(arg.arg, []).append(None)
    # A node comes before its children, so an assignment claims its
    # targets before the walk reaches them.
    for node in _own_nodes(scope):
        if isinstance(node, _DEFS):
            names.setdefault(node.name, []).append(node)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names.setdefault(bound, []).append(None)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names.setdefault(target.id, []).append(node.value)
                    read_targets.add(id(target))
        elif (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Store)
            and id(node) not in read_targets
        ):
            names.setdefault(node.id, []).append(None)
    return names


def _lookup(name: str, scopes: Scopes) -> Optional[tuple[ast.AST, Scopes]]:
    """What ``name`` is bound to in the innermost scope that binds it,
    with that scope's chain; None unless bound there exactly once,
    readably."""
    for depth in range(len(scopes), 0, -1):
        bound = _bindings(scopes[depth - 1]).get(name)
        if bound:
            if len(bound) == 1 and bound[0] is not None:
                return bound[0], scopes[:depth]
            return None
    return None


#: An expression with the scope chain it is evaluated in.
Located = tuple[ast.expr, Scopes]


def _values(expr: ast.expr, scopes: Scopes, depth: int = 0) -> Optional[list[Located]]:
    """What ``expr`` can stand for: ``expr`` itself, or, through a name
    bound once, a call to a module function with one ``return``, or a
    subscript into a table, what those lead to.  None if unreadable."""
    if depth > 16:
        return None
    if isinstance(expr, ast.Name):
        bound = _lookup(expr.id, scopes)
        if bound is None or isinstance(bound[0], _DEFS):
            return None
        return _values(*bound, depth + 1)
    if isinstance(expr, ast.Call) and getattr(expr.func, "id", "dict") != "dict":
        bound = _lookup(expr.func.id, scopes)
        if bound is None or len(bound[1]) != 1 or not isinstance(bound[0], _FUNCS):
            return None
        fn = bound[0]
        returns = [n for n in _own_nodes(fn) if isinstance(n, ast.Return)]
        if len(returns) != 1 or returns[0].value is None:
            return None
        return _values(returns[0].value, bound[1] + (fn,), depth + 1)
    if isinstance(expr, ast.Subscript):
        tables = _values(expr.value, scopes, depth + 1)
        if tables is None:
            return None
        key = getattr(expr.slice, "value", None)
        rows: list[Located] = []
        for table, where in tables:
            if not isinstance(table, ast.Dict) or None in table.keys:
                return None
            # A constant key picks its row; any other key, every row.
            picked = [
                v for k, v in zip(table.keys, table.values)
                if isinstance(k, ast.Constant) and k.value == key
            ] or table.values
            for row in picked:
                read = _values(row, where, depth + 1)
                if read is None:
                    return None
                rows += read
        return rows
    return [(expr, scopes)]


def _splat(expr: ast.expr, scopes: Scopes) -> Optional[dict[str, list[ast.expr]]]:
    """keyword -> the values a ``**expr`` splat passes for it, when
    ``expr`` reads as dict displays with string keys or ``dict(k=v)``
    calls; None when the scan cannot read it."""
    values = _values(expr, scopes)
    if values is None:
        return None
    passed: dict[str, list[ast.expr]] = {}
    for value, where in values:
        if isinstance(value, ast.Dict):
            if not all(
                k is None or isinstance(getattr(k, "value", None), str)
                for k in value.keys
            ):
                return None
            pairs = [(k and k.value, v) for k, v in zip(value.keys, value.values)]
        elif (
            isinstance(value, ast.Call)
            and getattr(value.func, "id", None) == "dict"
            and not value.args
        ):
            pairs = [(k.arg, k.value) for k in value.keywords]
        else:
            return None
        for key, item in pairs:
            # A nested ``**item`` (key None) must be readable too.
            inner = {key: [item]} if key is not None else _splat(item, where)
            if inner is None:
                return None
            for k, v in inner.items():
                passed.setdefault(k, []).extend(v)
    return passed


class _CallScan:
    """Every call in ``src/``, ``benchmarks/`` and ``examples/``: what it
    passes to each callee name, and the ``**`` splats it cannot read."""

    def __init__(self, root: Path) -> None:
        #: callee -> keyword -> passed values.
        self.keywords: dict[str, dict[str, list[ast.expr]]] = {}
        #: callee -> positional index -> passed values.
        self.positional: dict[str, dict[int, list[ast.expr]]] = {}
        #: callees some call passes ``*args`` or an unreadable ``**``.
        self.splatted: set[str] = set()
        #: ``path:qualname: callee(**expr)`` for every unreadable splat.
        self.unread_splats: set[str] = set()
        for path, tree in _trees(root, USERS):
            self._visit(tree, path.relative_to(root).as_posix(), (tree,), ())

    def _visit(self, node: ast.AST, rel: str, scopes: Scopes, qual: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                self._call(child, rel, scopes, qual)
            if isinstance(child, _SCOPES):
                inner = scopes if isinstance(child, ast.ClassDef) else scopes + (child,)
                name = getattr(child, "name", "<lambda>")
                self._visit(child, rel, inner, qual + (name,))
            else:
                self._visit(child, rel, scopes, qual)

    def _call(self, node: ast.Call, rel: str, scopes: Scopes, qual: tuple) -> None:
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        keywords = self.keywords.setdefault(name, {})
        splatted = any(isinstance(a, ast.Starred) for a in node.args)
        for k in node.keywords:
            if k.arg is not None:
                keywords.setdefault(k.arg, []).append(k.value)
                continue
            passed = _splat(k.value, scopes)
            if passed is None:
                splatted = True
                where = ".".join(qual) or "<module>"
                self.unread_splats.add(
                    f"{rel}:{where}: {ast.unparse(func)}(**{ast.unparse(k.value)})"
                )
                continue
            for kw, values in passed.items():
                keywords.setdefault(kw, []).extend(values)
        if splatted:
            self.splatted.add(name)
        positional = self.positional.setdefault(name, {})
        for i, arg in enumerate(node.args):
            positional.setdefault(i, []).append(arg)


_LITERAL_NODES = (
    ast.Constant, ast.UnaryOp, ast.BinOp, ast.Tuple,
    ast.unaryop, ast.operator, ast.expr_context,
)


def _literal(node: ast.expr) -> tuple:
    """``(value,)`` for a literal expression (constants combined by
    unary and binary operators and tuples, like ``64 << 20``); ``()``
    for anything else."""
    if not all(isinstance(n, _LITERAL_NODES) for n in ast.walk(node)):
        return ()
    try:
        return (eval(compile(ast.Expression(node), "<literal>", "eval"), {}),)
    except (ArithmeticError, TypeError, ValueError):  # e.g. 1 / 0, "a" - 1
        return ()


def _at_default(passed: ast.expr, default: tuple) -> bool:
    value = _literal(passed)
    return bool(value) and value[0] == default[0] and (
        isinstance(value[0], bool) == isinstance(default[0], bool)
    )


def _unpassed_params(root: Path = ROOT) -> list[str]:
    """Defaulted parameters no call passes a value other than the
    default: never passed, or passed only at the default's literal."""
    scan = _CallScan(root)
    unpassed = []
    for key, (callee, param, index, default) in _defaulted_params(root).items():
        if callee in scan.splatted:
            continue
        passed = list(scan.keywords.get(callee, {}).get(param, ()))
        if index is not None:
            passed += scan.positional.get(callee, {}).get(index, ())
        literal = _literal(default)
        if not passed or (literal and all(_at_default(p, literal) for p in passed)):
            unpassed.append(key)
    return sorted(unpassed)


def _unread_splats(root: Path = ROOT) -> list[str]:
    return sorted(_CallScan(root).unread_splats)


# -- fields --------------------------------------------------------------------

def _self_fields(root: Path = ROOT) -> dict[str, str]:
    """``path:Class.attr`` -> attr, for every attribute a ``src`` class
    assigns (``=``, ``+=``, annotated) on ``self`` in its methods."""
    fields: dict[str, str] = {}

    def walk(body, rel: str, owner: str) -> None:
        for node in body:
            if not isinstance(node, ast.ClassDef):
                continue
            qual = f"{owner}{node.name}"
            for method in node.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for sub in ast.walk(method):
                    if (
                        isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"
                    ):
                        fields.setdefault(f"{rel}:{qual}.{sub.attr}", sub.attr)
            walk(node.body, rel, f"{qual}.")

    for rel, tree in _src_trees(root):
        walk(tree.body, rel, "")
    return fields


#: Calls whose string arguments name an attribute.
_ATTRIBUTE_CALLS = frozenset({"getattr", "hasattr", "setattr", "delattr", "attrgetter"})


def _read_attributes(root: Path = ROOT) -> set[str]:
    reads: set[str] = set()
    for _, tree in _trees(root, USERS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            ) in _ATTRIBUTE_CALLS:
                for arg in node.args:
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                        # attrgetter("a.b") reads a, then b.
                        reads.update(
                            part for part in arg.value.split(".") if part.isidentifier()
                        )
    return reads


def _write_only_fields(root: Path = ROOT) -> list[str]:
    reads = _read_attributes(root)
    return sorted(
        key for key, attr in _self_fields(root).items() if attr not in reads
    )


# -- the checks ----------------------------------------------------------------

def test_every_public_surface_is_referenced():
    unreached = [key for key in _unreferenced() if key not in ALLOWLIST]
    assert not unreached, (
        "public src/ names that no src/, benchmarks/ or examples/ file "
        "references (delete them with the tests that only exercise them, "
        "or allowlist them with a reason):\n  " + "\n  ".join(unreached)
    )


def test_every_defaulted_parameter_is_passed():
    unpassed = [key for key in _unpassed_params() if key not in PARAM_ALLOWLIST]
    assert not unpassed, (
        "defaulted parameters that no src/, benchmarks/ or examples/ call "
        "passes a value other than the default (fold each into the value "
        "it always has, or allowlist it with a reason):\n  "
        + "\n  ".join(unpassed)
    )


def test_every_splat_is_read():
    unread = [key for key in _unread_splats() if key not in SPLAT_ALLOWLIST]
    assert not unread, (
        "** splats the parameter check cannot read, so their calls pass "
        "every parameter unseen (pass a dict display, dict(k=v), or a name "
        "bound once to one, or allowlist them with a reason):\n  "
        + "\n  ".join(unread)
    )


def test_every_field_is_read():
    unread = [key for key in _write_only_fields() if key not in FIELD_ALLOWLIST]
    assert not unread, (
        "attributes a src/ class assigns on self that no src/, "
        "benchmarks/ or examples/ file reads (delete them, or allowlist "
        "them with a reason):\n  " + "\n  ".join(unread)
    )


def test_allowlist_is_current():
    checks = (
        (ALLOWLIST, _public_defs(), _unreferenced()),
        (PARAM_ALLOWLIST, _defaulted_params(), _unpassed_params()),
        (FIELD_ALLOWLIST, _self_fields(), _write_only_fields()),
    )
    for allowlist, defined, flagged in checks:
        for key, reason in allowlist.items():
            assert reason.strip(), f"{key}: allowlist entry without a reason"
            assert key in defined, f"{key}: allowlisted but no longer defined"
            assert key in flagged, f"{key}: allowlisted but now reached"
    unread = _unread_splats()
    for key, reason in SPLAT_ALLOWLIST.items():
        assert reason.strip(), f"{key}: allowlist entry without a reason"
        assert key in unread, f"{key}: allowlisted but gone or now readable"


# -- the scanners on a synthetic tree -------------------------------------------

_SYNTHETIC = {
    "src/repro/box.py": '''
class Box:
    def __init__(self, size=1, label="box"):
        self.size = size
        self.label = label
        self.opened = 0
        self.hits = 0
        self.tag = "t"

    def resize(self, factor=2, clamp=False):
        self.opened += 1
        self.hits += 1
        return self.size * factor

    def weight(self):
        return self.contents.weight()


class _Hidden:
    def poke(self, ev=None):
        return ev


def build(depth=3, **kw):
    return Box(**kw)


def pack(width=1, height=1, fragile=False, mode="fast"):
    return width * height
''',
    "examples/use.py": '''
from repro.box import build, pack

SIZES = {"small": dict(width=2), "large": {"width": 9}}


def dims():
    return dict(height=3)


box = build()
print(box.resize(3), box.label, getattr(box, "tag"), {"hits": 1})
print(pack(**SIZES["small"], mode="fast"), pack(**dims()))
''',
}


def _synthetic_tree(tmp_path: Path) -> Path:
    for rel, text in _SYNTHETIC.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    (tmp_path / "benchmarks").mkdir()
    return tmp_path


def test_param_scanner_on_a_synthetic_tree(tmp_path):
    root = _synthetic_tree(tmp_path)
    # ``factor`` is passed only positionally, past ``self``; ``size`` and
    # ``label`` only through ``build``'s ``**kw``, which the scan cannot
    # read, so that call passes everything; ``_Hidden`` is private.
    # ``width`` and ``height`` reach ``pack`` only through splats the
    # scan reads (a table row, a function's return); ``fragile`` is
    # never passed and ``mode`` only at its default.
    assert _unpassed_params(root) == [
        "box.py:Box.resize(clamp)",
        "box.py:build(depth)",
        "box.py:pack(fragile)",
        "box.py:pack(mode)",
    ]


def test_splat_scanner_on_a_synthetic_tree(tmp_path):
    root = _synthetic_tree(tmp_path)
    # ``build`` forwards its caller's own ``**kw``: no display to read.
    assert _unread_splats(root) == ["src/repro/box.py:build: Box(**kw)"]


def test_def_scanner_on_a_synthetic_tree(tmp_path):
    root = _synthetic_tree(tmp_path)
    # ``weight`` is named only inside ``def weight``: a delegation, not
    # a use.  ``Box`` and ``build`` are called, ``resize`` from outside;
    # a private class's public method is still scanned.
    assert _unreferenced(root) == ["box.py:Box.weight", "box.py:_Hidden.poke"]


def test_field_scanner_on_a_synthetic_tree(tmp_path):
    root = _synthetic_tree(tmp_path)
    # ``opened`` and ``hits`` are only ever ``+=``'d: the dict key
    # spelling ``hits`` is no read.  ``size`` and ``label`` are read as
    # attributes, ``tag`` through ``getattr``.
    assert _write_only_fields(root) == ["box.py:Box.hits", "box.py:Box.opened"]
