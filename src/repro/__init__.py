"""Reproduction of "Pathways: Asynchronous Distributed Dataflow for ML"
(Barham et al., MLSys 2022).

A full-system reproduction on a simulated TPU substrate: discrete-event
simulation kernel (:mod:`repro.sim`), hardware model (:mod:`repro.hw`),
XLA-like compiled functions (:mod:`repro.xla`), PLAQUE-like sharded
dataflow (:mod:`repro.plaque`), the Pathways single-controller runtime
(:mod:`repro.core`), baseline systems (:mod:`repro.baselines`),
Transformer workload models (:mod:`repro.models`), and one span stream
for observability — causal spans, device utilization and timelines
from kernel spans, metrics (:mod:`repro.telemetry`).  How fast the simulator itself runs is
measured by ``benchmarks/e2e/``.

Quick start::

    import numpy as np
    from repro import PathwaysSystem, config_b
    from repro.xla import TensorSpec

    pw = PathwaysSystem.build(config_b(n_hosts=2))
    client = pw.client()
    devs = pw.make_virtual_device_set().add_slice(tpu_devices=2)
    double = client.wrap_fn(lambda x: x * 2.0, devices=devs,
                            duration_us=50.0, spec=TensorSpec((2,)))
    print(double(np.array([1.0, 2.0], dtype=np.float32)))  # [2. 4.]
"""

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.core import (
    DispatchMode,
    FifoPolicy,
    PathwaysSystem,
    ProportionalSharePolicy,
)
from repro.hw import ClusterSpec, config_a, config_b, config_c
from repro.xla import CompiledFunction, TensorSpec

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_CONFIG",
    "ClusterSpec",
    "CompiledFunction",
    "DispatchMode",
    "FifoPolicy",
    "PathwaysSystem",
    "ProportionalSharePolicy",
    "SystemConfig",
    "TensorSpec",
    "config_a",
    "config_b",
    "config_c",
]
