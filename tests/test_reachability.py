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
  public method, or a public class's ``__init__`` must be passed by some
  call to a callee of that name (``f(...)``, ``x.f(...)``, or the class
  name for ``__init__``).  A keyword counts, and so does a positional
  argument at the parameter's index (a method's ``self`` or ``cls`` is
  not counted).  A call with ``*args`` or ``**kwargs`` counts as passing
  every parameter.  Private classes are out of scope.
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
longer names a definition, parameter or field, or that is now reached,
fails, so it cannot go stale.
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
    "models/transformer.py:TransformerConfig.kv_cache_bytes_per_token": (
        "needed by the parked KV-cache-aware serving direction (ROADMAP)"
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
    "sim/engine.py:Simulator.completed(name)": _ENGINE,
    "sim/engine.py:Simulator.timeout(value)": _ENGINE,
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
) -> dict[str, tuple[str, str, Optional[int]]]:
    """``path:qualname(param)`` -> ``(callee name, param, call index)``
    for every defaulted parameter of a public function, a public method
    of a public class, or a public class's ``__init__``.  The call index
    is where a positional argument lands on it (None: keyword-only)."""
    params: dict[str, tuple[str, str, Optional[int]]] = {}

    def add(key: str, callee: str, fn: ast.FunctionDef, skip: int) -> None:
        args = fn.args
        positional = args.posonlyargs + args.args
        first_default = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional):
            if i >= max(first_default, skip):
                params[f"{key}({arg.arg})"] = (callee, arg.arg, i - skip)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                params[f"{key}({arg.arg})"] = (callee, arg.arg, None)

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


def _unpassed_params(root: Path = ROOT) -> list[str]:
    keywords: dict[str, set[str]] = {}
    most_positional: dict[str, int] = {}
    splatted: set[str] = set()
    for _, tree in _trees(root, USERS):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name is None:
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords
            ):
                splatted.add(name)
            keywords.setdefault(name, set()).update(
                k.arg for k in node.keywords if k.arg is not None
            )
            most_positional[name] = max(
                most_positional.get(name, 0), len(node.args)
            )
    return sorted(
        key
        for key, (callee, param, index) in _defaulted_params(root).items()
        if callee not in splatted
        and param not in keywords.get(callee, ())
        and (index is None or most_positional.get(callee, 0) <= index)
    )


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
        "passes (fold each into the value it always has, or allowlist it "
        "with a reason):\n  " + "\n  ".join(unpassed)
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
''',
    "examples/use.py": '''
from repro.box import build

box = build()
print(box.resize(3), box.label, getattr(box, "tag"), {"hits": 1})
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
    # ``label`` only through ``build``'s ``**kw``; ``_Hidden`` is private.
    assert _unpassed_params(root) == [
        "box.py:Box.resize(clamp)",
        "box.py:build(depth)",
    ]


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
