"""Wall-clock benchmark of the simulator on four workloads.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds N]
                                  [--trace [0|1]] [--out DIR]

Each workload runs in a fresh child process with every ``REPRO_*``
variable removed and one BLAS/OpenMP thread.  The child runs one
warm-up repetition, then ``max(MIN_REPS, round(seconds / REP_S))``
measured repetitions, each on a freshly built system, and checks every
repetition's simulated outputs.  Timings are scaled to the calibration
machine's speed by ``speed.Speedometer``.  ``--seconds`` defaults to
``run_seconds`` of ``BENCHMARK.json``.  ``--trace 1`` adds one
repetition under cProfile and reports the per-layer split instead of
the end-to-end metrics.  Every metric is printed by name with its unit;
the last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every check passed, 1 when one failed and 2
when the program under test cannot be found.  Timings come from
wrapping ``PathwaysSystem.build`` and ``Simulator.run`` /
``run_until_triggered`` from outside; no program file is edited.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from compare import quartiles
from layers import LAYERS, attribute
from speed import Speedometer
from workloads import DEFAULT_SEED, EXPONENTS, SEEDLESS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
PINS = BENCH_DIR / "pinned.json"
CHILD_TIMEOUT_S = 170
#: A run measures at least this many repetitions.
MIN_REPS = 5
#: A full-size repetition's nominal length in scaled seconds.  A run of
#: ``--seconds S`` measures ``max(MIN_REPS, round(S / REP_S))``
#: repetitions: a fixed count, whatever the speed of the code under test.
REP_S = 2.0

#: Units of the metrics that are not plain counts.
UNITS = {
    "units_per_s": "units/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim.engine.events_per_unit": "events/unit",
    "net.fabric.flows_touched_per_update": "flows/update",
    "trace_overhead": "fraction",
    **{f"{layer}.share": "fraction" for layer in LAYERS},
}


def _unit(metric: str) -> str:
    return UNITS.get(metric, "count")


# -- child: one workload, many repetitions ------------------------------------
class Probe:
    """Times drains and captures built systems by wrapping the public
    entry points ``PathwaysSystem.build`` and ``Simulator.run`` /
    ``run_until_triggered`` (outermost calls only).  Every time is read
    from ``meter.clock``, which leaves out the speedometer's own chunks."""

    def __init__(self, meter: Speedometer) -> None:
        from repro.core.system import PathwaysSystem
        from repro.sim import Simulator

        self.meter = meter
        build = PathwaysSystem.__dict__["build"].__func__

        @functools.wraps(build)
        def timed_build(*args, **kwargs):
            t0 = self.meter.clock()
            system = build(*args, **kwargs)
            self.build_s += self.meter.clock() - t0
            self.systems.append(system)
            return system

        PathwaysSystem.build = staticmethod(timed_build)
        for name in ("run", "run_until_triggered"):
            setattr(Simulator, name, self._timed(getattr(Simulator, name)))
        self.reset()

    def reset(self, profiler=None) -> None:
        self.systems: list = []
        self.build_s = 0.0
        self.drain_s = 0.0
        self.first_drain = None
        self.profiler = profiler
        self._draining = False

    def _timed(self, drain):
        @functools.wraps(drain)
        def timed(sim, *args, **kwargs):
            if self._draining:
                return drain(sim, *args, **kwargs)
            t0 = self.meter.clock()
            if self.first_drain is None:
                self.first_drain = t0
            self._draining = True
            if self.profiler is not None:
                self.profiler.enable()
            try:
                return drain(sim, *args, **kwargs)
            finally:
                if self.profiler is not None:
                    self.profiler.disable()
                self.drain_s += self.meter.clock() - t0
                self._draining = False

        return timed


def _counters(s, units: int) -> dict:
    """The layer counters of one ``SystemStats`` snapshot."""
    net, fab, rec = s.net, s.net.fabric, s.recovery
    return {
        "sim.engine.events": s.sim.events_processed,
        "sim.engine.events_per_unit": s.sim.events_processed / max(units, 1),
        "net.transport.messages_sent": net.messages_sent,
        "net.transport.retransmits": net.retransmits,
        "net.transport.reroutes": net.reroutes,
        "net.fabric.membership_updates": fab.membership_updates,
        "net.fabric.flows_touched_per_update": fab.flows_touched_per_update,
        "net.fabric.rate_recomputes": fab.rate_recomputes,
        "net.fabric.timer_rearms": fab.timer_rearms,
        "net.fabric.timer_cancels": fab.timer_cancels,
        "core.scheduler.decisions": sum(x.decisions for x in s.schedulers),
        "core.scheduler.evictions": sum(x.evictions for x in s.schedulers),
        "core.dispatch.programs_dispatched": s.programs_dispatched,
        "core.dispatch.computations_executed": s.computations_executed,
        "resilience.programs_recovered": rec.programs_recovered if rec else 0,
        "resilience.remaps": rec.remaps if rec else 0,
        "serve.completed": sum(f.completed for f in s.serve),
        "serve.rejected": sum(f.rejected for f in s.serve),
    }


def _repetition(probe: Probe, workload: str, seed: int, size: str,
                profiler=None) -> dict:
    """One repetition.  Untraced ones run under the speedometer; their
    ``scale`` converts measured seconds to the calibration machine's."""
    gc.collect()
    probe.reset(profiler)
    meter = probe.meter
    if profiler is None:
        meter.start()
    t0 = meter.clock()
    try:
        out = WORKLOADS[workload](seed, size)
    finally:
        scale = meter.stop() if profiler is None else 1.0
    if probe.first_drain is None or not probe.systems:
        raise RuntimeError(f"workload {workload!r} built or drained no system")
    system = probe.systems[-1]
    stats = system.stats()
    invariants = {
        **out.invariants,
        "fabric_idle": bool(stats.net.fabric.idle),
        "no_nic_slot_leaked": not any(
            h.nic.in_use or h.nic.queue_len for h in system.cluster.hosts
        ),
    }
    return {
        "setup_s": probe.first_drain - t0,
        "build_s": probe.build_s,
        "drain_s": probe.drain_s,
        "scale": scale,
        "units": out.units,
        "fingerprint": out.fingerprint,
        "problems": [f"invariant {k} failed" for k, ok in invariants.items() if not ok],
        "counters": _counters(stats, out.units),
    }


def child(args: argparse.Namespace) -> int:
    import cProfile
    import pstats
    import resource

    import repro

    src = (args.repo / "src").resolve()
    if not Path(repro.__file__).resolve().is_relative_to(src):
        print(f"repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    probe = Probe(Speedometer(EXPONENTS[args.workload]))

    def rep(kind: str, profiler=None) -> dict:
        sample = _repetition(probe, args.workload, args.seed, args.size, profiler)
        sample["kind"] = kind
        if samples and sample["fingerprint"] != samples[0]["fingerprint"]:
            sample["problems"].append("fingerprint differs from the first repetition")
        samples.append(sample)
        return sample

    samples: list = []
    rep("warmup")
    for _ in range(max(MIN_REPS, round(args.seconds / REP_S))):
        rep("measured")
    result = {"samples": samples}
    if args.trace:
        profiler = cProfile.Profile()
        traced = rep("traced", profiler)
        result["layers"] = attribute(
            pstats.Stats(profiler).stats, src / "repro", BENCH_DIR
        )
        result["layers"]["traced_drain_s"] = traced["drain_s"]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


# -- parent: spawn, check, report ---------------------------------------------
def _child_env(repo: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(repo / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
    )
    return env


def _spawn(args: argparse.Namespace, workload: str) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--child",
        "--workload", workload, "--seed", str(args.seed), "--size", args.size,
        "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--repo", str(args.repo),
    ]
    proc = subprocess.run(
        cmd, env=_child_env(args.repo), stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _pins_apply(workload: str, seed: int) -> bool:
    return workload in SEEDLESS or seed == DEFAULT_SEED


def _report(args: argparse.Namespace, workload: str, result: dict, pins: dict) -> dict:
    """Check pins, compute every metric, print the human-readable lines."""
    samples = result["samples"]
    expected = None
    if _pins_apply(workload, args.seed):
        expected = pins.get(args.size, {}).get(workload)
    attempted = failed = 0
    for s in samples:
        if expected is not None and s["fingerprint"] != expected:
            s["problems"].append("fingerprint differs from pinned.json")
        attempted += s["units"]
        if s["problems"]:
            failed += s["units"]
            for problem in s["problems"]:
                print(f"{workload}: {s['kind']} repetition: {problem}", file=sys.stderr)
    measured = [s for s in samples if s["kind"] == "measured"]
    rates = [s["units"] / (s["drain_s"] * s["scale"]) for s in measured]
    q1, median, q3 = quartiles(rates)
    setups = [s["setup_s"] * s["scale"] for s in measured]
    end_to_end = {
        "units_per_s": median,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    error_rate = failed / attempted if attempted else 1.0
    raw = statistics.median(s["units"] / s["drain_s"] for s in measured)
    setup_q1, _, setup_q3 = quartiles(setups)
    scales = quartiles([s["scale"] for s in measured])
    print(f"{workload}: units_per_s {median:.6g} units/s median of n={len(rates)} "
          f"(q1 {q1:.6g}, q3 {q3:.6g}; unscaled median {raw:.6g})")
    print(f"{workload}: setup_s {end_to_end['setup_s']:.6g} s median of n={len(setups)} "
          f"(q1 {setup_q1:.6g}, q3 {setup_q3:.6g})")
    print(f"{workload}: peak_rss_mb {end_to_end['peak_rss_mb']:.6g} MiB")
    print(f"{workload}: speed scale median {scales[1]:.4f} "
          f"(q1 {scales[0]:.4f}, q3 {scales[2]:.4f})")
    print(f"{workload}: error_rate {error_rate:.6g} fraction ({failed}/{attempted})")

    counters = measured[-1]["counters"]
    per_layer = dict(counters)
    for name, value in counters.items():
        print(f"{workload}: {name} {value:.6g} {_unit(name)}")
    if "layers" in result:
        layers = result["layers"]
        traced = layers["traced_drain_s"]
        untraced = statistics.median(s["drain_s"] for s in measured)
        attributed = sum(layers["self_s"].values())
        per_layer["trace_overhead"] = traced / untraced - 1.0
        per_layer["sim.timers.pushes"] = layers["timer_pushes"]
        print(f"{workload}: traced drain {traced:.6g} s, attributed {attributed:.6g} s, "
              f"trace_overhead {per_layer['trace_overhead']:.4f}, "
              f"sim.timers.pushes {layers['timer_pushes']}")
        for layer in LAYERS:
            self_s = layers["self_s"][layer]
            per_layer[f"{layer}.share"] = self_s / attributed if attributed else 0.0
            per_layer[f"{layer}.calls_in"] = layers["calls_in"][layer]
            print(f"{workload}: {layer:<15} self_s {self_s:9.4f} s  "
                  f"share {per_layer[f'{layer}.share']:6.1%}  "
                  f"calls_in {layers['calls_in'][layer]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": error_rate,
        "units_per_s_quartiles": [q1, median, q3],
        "unscaled_units_per_s": raw,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def _git_sha(repo: Path):
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(repo.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _write_run(args: argparse.Namespace, workload: str, result: dict, report: dict) -> None:
    args.out.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(args.repo),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "unix_time": time.time(),
        **report,
        **result,
    }
    path = args.out / f"{workload}_seed{args.seed}_trace{args.trace}_{time.time_ns()}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def parent(args: argparse.Namespace) -> int:
    if not (args.repo / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {args.repo / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    reports = {}
    for workload in workloads:
        try:
            result = _spawn(args, workload)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        if args.update_pins and _pins_apply(workload, args.seed):
            pins.setdefault(args.size, {})[workload] = result["samples"][0]["fingerprint"]
            PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        reports[workload] = report = _report(args, workload, result, pins)
        if args.out is not None:
            _write_run(args, workload, result, report)

    metrics = {}
    for workload, report in reports.items():
        values = report["per_layer"] if args.trace else report["end_to_end"]
        prefix = "" if args.workload else f"{workload}."
        for name, value in values.items():
            metrics[prefix + name] = {"value": value, "unit": _unit(name)}
    correct = all(r["correct"] for r in reports.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="run one workload (default: all four, one after another)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float,
                   default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"],
                   help="nominal measuring time; sets the repetition count")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="1: add a cProfile repetition and report per-layer metrics")
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--out", type=Path, help="write one JSON record per run here")
    p.add_argument("--update-pins", action="store_true",
                   help="rewrite the pins from this run instead of checking them")
    p.add_argument("--repo", type=Path, default=ROOT,
                   help="checkout whose src/ is benchmarked (default: this one)")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    args.repo = args.repo.resolve()
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    return child(args) if args.child else parent(args)


if __name__ == "__main__":
    sys.exit(main())
