"""Charge a cProfile of one drain to the simulator's layers.

Layers are named after modules.  Each profiled function's self time goes
to the layer that owns its source file; the timer classes are matched by
class name, so the mapping follows them if they move.  Code that is not
part of the ``repro`` package or this benchmark -- builtins, the
standard library, numpy, dataclass-generated methods -- owns no layer:
its self time is split over its callers by the profiler's caller edges,
recursively, so every profiled second lands on a named layer.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Optional

__all__ = ["LAYERS", "attribute"]

LAYERS = (
    "sim.engine",
    "sim.timers",
    "sim.resources",
    "hw",
    "net.fabric",
    "net.transport",
    "core.scheduler",
    "core.dispatch",
    "serve",
    "resilience",
    "telemetry",
    "rest",
)

_TIMER_CLASS = re.compile(r"TimerQueue$|^TimerHandle$|^_TimerShot$")

#: (relative path prefix under the repro package, layer), first match wins.
_PATH_LAYERS = (
    ("sim/resources.py", "sim.resources"),
    ("sim/", "sim.engine"),
    ("hw/", "hw"),
    ("net/fabric.py", "net.fabric"),
    ("net/", "net.transport"),
    ("core/scheduler.py", "core.scheduler"),
    ("core/resource_manager.py", "core.scheduler"),
    ("core/", "core.dispatch"),
    ("serve/", "serve"),
    ("resilience/", "resilience"),
    ("faults.py", "resilience"),
    ("telemetry/", "telemetry"),
    ("trace/", "telemetry"),
)

Func = tuple  # pstats key: (filename, first line, function name)


def _timer_functions() -> set:
    """pstats keys of every method of the loaded ``repro`` timer classes."""
    keys = set()
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for cls in vars(module).values():
            if not (isinstance(cls, type) and cls.__module__ == name
                    and _TIMER_CLASS.search(cls.__name__)):
                continue
            for attr in vars(cls).values():
                for fn in (getattr(attr, "__func__", attr),
                           *(getattr(attr, a, None) for a in ("fget", "fset"))):
                    code = getattr(fn, "__code__", None)
                    if code is not None:
                        keys.add((code.co_filename, code.co_firstlineno, code.co_name))
    return keys


class _Owners:
    """Maps a profiled function to its layer, or None for foreign code."""

    def __init__(self, package_dir: Path, bench_dir: Path):
        self.package = str(package_dir.resolve()) + "/"
        self.bench = str(bench_dir.resolve()) + "/"
        self.timers = _timer_functions()
        self._cache: dict[str, Optional[str]] = {}

    def __call__(self, func: Func) -> Optional[str]:
        if func in self.timers:
            return "sim.timers"
        filename = func[0]
        if filename not in self._cache:
            self._cache[filename] = self._layer_of_file(filename)
        return self._cache[filename]

    def _layer_of_file(self, filename: str) -> Optional[str]:
        if filename.startswith(("~", "<")):
            return None
        path = str(Path(filename).resolve())
        if path.startswith(self.bench):
            return "rest"
        if not path.startswith(self.package):
            return None
        rel = path[len(self.package):]
        for prefix, layer in _PATH_LAYERS:
            if rel.startswith(prefix):
                return layer
        return "rest"


def attribute(stats: dict, package_dir: Path, bench_dir: Path) -> dict:
    """Per-layer ``self_s`` and ``calls_in`` from ``pstats.Stats.stats``.

    ``calls_in`` counts calls into a layer's functions whose caller sits
    in another layer.  A foreign caller (a builtin such as
    ``generator.send``) stands for the layer that calls it most often,
    so the count is exact and repeats run to run.  Also returns
    ``timer_pushes``, the calls to the timer queues' ``push``.
    """
    owner = _Owners(package_dir, bench_dir)
    layer_of = {f: owner(f) for f in stats}

    split_memo: dict[Func, dict[str, float]] = {}

    def split(func: Func, visiting: frozenset) -> dict[str, float]:
        """Fractions of a foreign function's time owed to each layer."""
        if func in split_memo:
            return split_memo[func]
        callers = stats[func][4]
        weights = {c: edge[2] for c, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: float(edge[0]) for c, edge in callers.items()}
            total = sum(weights.values())
        out: dict[str, float] = {}
        for caller, w in weights.items():
            layer = layer_of.get(caller)
            if layer is not None:
                parts = {layer: 1.0}
            elif caller in visiting or caller not in stats:
                parts = {"rest": 1.0}
            else:
                parts = split(caller, visiting | {func})
            for name, frac in parts.items():
                out[name] = out.get(name, 0.0) + frac * w / total
        if not out:
            out = {"rest": 1.0}
        split_memo[func] = out
        return out

    major_memo: dict[Func, str] = {}

    def major(func: Func, visiting: frozenset) -> str:
        """The layer that calls a foreign function most often."""
        if func in major_memo:
            return major_memo[func]
        counts: dict[str, int] = {}
        for caller, edge in stats[func][4].items():
            layer = layer_of.get(caller)
            if layer is None:
                if caller in visiting or caller not in stats:
                    layer = "rest"
                else:
                    layer = major(caller, visiting | {func})
            counts[layer] = counts.get(layer, 0) + edge[0]
        best = max(LAYERS, key=lambda name: (counts.get(name, 0), -LAYERS.index(name)))
        major_memo[func] = best
        return best

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls_in = dict.fromkeys(LAYERS, 0)
    timer_pushes = 0
    for func, (_, _, tt, _, callers) in stats.items():
        layer = layer_of[func]
        if layer is None:
            for name, frac in split(func, frozenset()).items():
                self_s[name] += tt * frac
            continue
        self_s[layer] += tt
        if layer == "sim.timers" and func[2] == "push":
            timer_pushes += stats[func][1]
        for caller, edge in callers.items():
            source = layer_of.get(caller)
            if source is None:
                source = major(caller, frozenset()) if caller in stats else "rest"
            if source != layer:
                calls_in[layer] += edge[0]
    return {"self_s": self_s, "calls_in": calls_in, "timer_pushes": timer_pushes}
