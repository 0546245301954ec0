"""Reachability guard: no public ``src/`` surface that nothing runs.

Every public function, method and class defined under ``src/`` must be
referenced from ``src/``, ``benchmarks/`` or ``examples/`` somewhere
other than its own definition.  A reference is a name read, an
attribute read, or a string constant spelling the identifier (what
``getattr`` uses).  Entries of an ``__all__`` list and import
statements are not references, and neither are the tests: a surface
only its own tests use is code nothing runs.

The scan matches by name, not by type, so a method counts as reached
when an attribute of that name is read anywhere: a dead method that
shares its name with a live one goes unreported.  A name reached only
through a built string is reported, which is why ``visit_*`` methods
are exempt.

A name the scan flags but the project keeps goes in ``ALLOWLIST`` with
the reason it stays.  The allowlist is checked too: an entry that no
longer names a definition, or whose name is now referenced, fails, so
it cannot go stale.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
USERS = ("src", "benchmarks", "examples")

_ORACLE = "closed-form reference that tests compare the simulation against"
_OBSERVED = "state the tests read to check a run against its oracle or model"
_TELEMETRY = "opt-in telemetry API, documented in README's telemetry section"

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
    "sim/resources.py:Resource.busy_time": _OBSERVED,
    "telemetry/flight.py:FlightRecorder.watch_transport": _TELEMETRY,
    "telemetry/metrics.py:MetricsRegistry.gauge": _TELEMETRY,
    "telemetry/metrics.py:MetricsSampler": _TELEMETRY,
    "telemetry/metrics.py:standard_probes": _TELEMETRY,
}


def _is_visitor_method(qualname: str) -> bool:
    """``ast.NodeVisitor`` calls ``visit_<NodeType>`` through ``getattr``
    with a built name, which no string constant spells."""
    return "." in qualname and qualname.rsplit(".", 1)[1].startswith("visit_")


def _public_defs() -> dict[str, str]:
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

    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        walk(ast.parse(path.read_text(encoding="utf-8")).body, rel, "")
    return defs


def _referenced_names() -> set[str]:
    names: set[str] = set()
    for top in USERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            exports = {
                id(const)
                for node in ast.walk(tree)
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                for const in ast.walk(node.value)
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value.isidentifier()
                    and id(node) not in exports
                ):
                    names.add(node.value)
    return names


def _unreferenced() -> list[str]:
    referenced = _referenced_names()
    return sorted(
        key for key, name in _public_defs().items()
        if name not in referenced and not _is_visitor_method(key)
    )


def test_every_public_surface_is_referenced():
    unreached = [key for key in _unreferenced() if key not in ALLOWLIST]
    assert not unreached, (
        "public src/ names that no src/, benchmarks/ or examples/ file "
        "references (delete them with the tests that only exercise them, "
        "or allowlist them with a reason):\n  " + "\n  ".join(unreached)
    )


def test_allowlist_is_current():
    defs = _public_defs()
    unreached = set(_unreferenced())
    for key, reason in ALLOWLIST.items():
        assert reason.strip(), f"{key}: allowlist entry without a reason"
        assert key in defs, f"{key}: allowlisted but no longer defined"
        assert key in unreached, f"{key}: allowlisted but now referenced"
