"""Workload generators for the paper's micro-benchmarks and scenarios.

* :mod:`repro.workloads.microbench` — the §5.1 dispatch-overhead
  workload (scalar AllReduce + add) in OpByOp / Chained / Fused variants
  across all four systems (Figures 5, 6, 7).
* :mod:`repro.workloads.multitenant` — concurrent-client populations
  time-sharing one island (Figures 8, 9).
* :mod:`repro.workloads.churn`, :mod:`repro.workloads.netload` and
  :mod:`repro.workloads.serving` — training under failure churn,
  cross-island bulk traffic with a dispatch prober, and open-loop
  inference.  Each is a tenant: ``attach_training``, ``attach_netload``
  or ``attach_serving`` puts it on any system and returns a handle with
  ``done`` and ``result()``, so tenants can share one system and one
  ``Simulator.drain``; each ``run_*`` builds a system for one tenant.
"""

from repro.workloads.churn import ChurnResult, attach_training, run_churn
from repro.workloads.netload import NetCongestionResult, attach_netload, run_net_congestion
from repro.workloads.serving import (
    ServingResult,
    attach_serving,
    diurnal_arrivals,
    poisson_arrivals,
    run_serving,
)
from repro.workloads.microbench import (
    MicrobenchResult,
    run_jax,
    run_pathways,
    run_pathways_pipeline_chain,
    run_ray,
    run_tf,
)
from repro.workloads.multitenant import (
    run_jax_multitenant,
    run_pathways_multitenant,
)

__all__ = [
    "ChurnResult",
    "MicrobenchResult",
    "NetCongestionResult",
    "ServingResult",
    "attach_netload",
    "attach_serving",
    "attach_training",
    "diurnal_arrivals",
    "poisson_arrivals",
    "run_churn",
    "run_jax",
    "run_net_congestion",
    "run_jax_multitenant",
    "run_pathways",
    "run_pathways_multitenant",
    "run_pathways_pipeline_chain",
    "run_ray",
    "run_serving",
    "run_tf",
]
