"""Workload generators for the paper's micro-benchmarks.

* :mod:`repro.workloads.microbench` — the §5.1 dispatch-overhead
  workload (scalar AllReduce + add) in OpByOp / Chained / Fused variants
  across all four systems (Figures 5, 6, 7).
* :mod:`repro.workloads.multitenant` — concurrent-client populations
  time-sharing one island (Figures 8, 9).
* :mod:`repro.workloads.churn` — multi-tenant training under
  failure/repair churn (the resilience scenario family).
* :mod:`repro.workloads.netload` — cross-island bulk traffic contending
  with probe dispatch on the routed fabric (congestion, route loss).
* :mod:`repro.workloads.serving` — open-loop online inference traffic
  (Poisson / diurnal) through the ``repro.serve`` stack.
"""

from repro.workloads.churn import ChurnResult, run_churn
from repro.workloads.netload import NetCongestionResult, run_net_congestion
from repro.workloads.serving import (
    ServingResult,
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
