"""Online inference serving on the Pathways substrate (``repro.serve``).

The serving subsystem turns the gang-scheduled, single-controller
runtime into an online service:

* :mod:`repro.serve.frontend` — request ingress over the routed
  ``repro.net`` transport, SLO-aware admission, typed rejection
  accounting (overload becomes counted rejections, never abandons);
* :mod:`repro.serve.batcher` — continuous batching per replica
  (``max_batch`` / ``max_wait_us``, partial batches never starve),
  every batch a gang-scheduled program carrying the tightest request
  deadline through the scheduler's eviction path;
* :mod:`repro.serve.replicas` — model replicas on virtual slices
  spread across islands, recovered through the resilience subsystem's
  remap/replay machinery on device failure;
* :mod:`repro.serve.autoscale` — elastic replica scaling from queue
  depth, resource-manager capacity events, and the fabric-utilization
  snapshot; integrates with island drain/handback as an elastic
  workload;
* :mod:`repro.serve.metrics` — p50/p95/p99 latency and per-stage
  (queue / net / dispatch / compute) breakdowns.

The open-loop workload driver lives in
:mod:`repro.workloads.serving` (``run_serving``).
"""

from repro.serve.autoscale import Autoscaler
from repro.serve.batcher import ContinuousBatcher
from repro.serve.frontend import (
    Frontend,
    REJECTION_REASONS,
    REJECT_EVICTED,
    REJECT_EXPIRED,
    REJECT_INFEASIBLE,
    REJECT_NET_LOST,
    REJECT_NO_CAPACITY,
    REJECT_QUEUE_FULL,
    Request,
)
from repro.serve.metrics import LatencyRecorder, LatencySnapshot
from repro.serve.replicas import Replica, ReplicaSet

__all__ = [
    "Autoscaler",
    "ContinuousBatcher",
    "Frontend",
    "LatencyRecorder",
    "LatencySnapshot",
    "REJECTION_REASONS",
    "REJECT_EVICTED",
    "REJECT_EXPIRED",
    "REJECT_INFEASIBLE",
    "REJECT_NET_LOST",
    "REJECT_NO_CAPACITY",
    "REJECT_QUEUE_FULL",
    "Replica",
    "ReplicaSet",
    "Request",
]
