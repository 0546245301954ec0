"""Calibration constants for the simulated substrate.

All timing constants live here so that calibration against the paper's
numbers is explicit, auditable, and overridable per experiment.  Units:
microseconds (time), bytes (size) and **bytes per microsecond**
(bandwidth), where 1 byte/µs = 1 MB/s.  To avoid slip-ups, helper
properties express bandwidths in GB/s.

Sources for the defaults:

* PCIe enqueue latency and host launch work: multi-controller JAX-style
  dispatch is "low latency ... over (relatively) fast PCIe" (paper S2);
  a few microseconds per launch plus ~10 us host-side driver work.
* DCN: "typically an order of magnitude slower than PCIe" (paper S2);
  we use 40 us RPC latency and 12.5 GB/s per-host bandwidth (100 Gb/s
  NICs, the figure implied by the 64B-model gradient-transfer overlap
  in Appendix D).
* ICI: TPUv3 links are hundreds of Gb/s with microsecond hops (Jouppi
  et al. 2020); 100 GB/s and 1 us/hop.
* TPUv3 peak 61.25 bf16 TFLOP/s per *core* (123 TFLOP per 2-core chip),
  16 GB HBM per core (Table 1 setup text).
* Coordinator fan-out cost: calibrated so the Fig. 6 crossover lands at
  ~2.3 ms for 16 hosts and ~35 ms for 512 hosts, i.e. ~65-70 us of
  controller work per host per program.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["SystemConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class SystemConfig:
    """Timing/capacity constants for one simulated deployment."""

    # --- PCIe / host-side dispatch (multi-controller fast path) ---------
    pcie_latency_us: float = 3.0          # one enqueue crossing host->device
    host_launch_work_us: float = 12.0     # driver/runtime work per launch
    python_dispatch_us: float = 120.0     # Python interpreter per user-level call
    cpp_dispatch_us: float = 6.0          # C++ runtime per node when chained

    # --- Datacenter network (DCN) ---------------------------------------
    dcn_latency_us: float = 40.0          # one RPC / message latency
    dcn_bandwidth_gbps: float = 12.5      # GB/s per host NIC

    # --- Routed fabric (repro.net) ---------------------------------------
    #: Model per-link contention on the DCN fabric.  Off by default: the
    #: uncontended fast path reproduces the historical point-to-point
    #: cost model byte-identically (sender-NIC serialization only).
    net_contention: bool = False
    #: Link-sharing discipline when contention is on.  Only "fair"
    #: (processor sharing — concurrent flows split the link bandwidth)
    #: is accepted; ``Fabric`` rejects any other value.
    net_link_sharing: str = "fair"
    #: Shared island uplink to the spine (all the island's cross-island
    #: traffic contends here — the bottleneck the congestion bench
    #: saturates).
    net_island_uplink_gbps: float = 50.0
    #: Spine (core) bandwidth; high enough that uplinks bottleneck first.
    net_spine_gbps: float = 400.0
    #: Number of parallel spine links (ECMP multipath).  1 (default)
    #: reproduces the historical single-spine fabric byte-identically;
    #: k > 1 hashes each flow onto one of k equal-capacity spine paths
    #: (``net_spine_gbps`` is *per path*) and a spine-link failure
    #: reroutes surviving flows onto the remaining paths.
    spine_paths: int = 1
    #: Seed folded into the per-flow ECMP hash (CRC of src host, dst
    #: host, flow seq) — never Python ``hash()``/``id()``, so path
    #: choices are identical across runs and interpreters.
    net_ecmp_seed: int = 0
    #: How long a message with *no* surviving path (its island uplink or
    #: every spine path down) waits parked for a link restore before it
    #: is failed with ``MessageLost`` (0 = park forever).
    net_park_deadline_us: float = 1_000_000.0
    #: Backoff between retransmit attempts of a reliable send.
    net_retransmit_backoff_us: float = 500.0
    #: How much per-link busy history the fabric keeps for the
    #: :meth:`repro.net.Fabric.uplink_utilization` sliding window — the signal
    #: serving replica placement (and, later, congestion-aware placement)
    #: reads.
    net_util_window_us: float = 100_000.0

    # --- Inter-chip interconnect (ICI) ----------------------------------
    ici_latency_us: float = 1.0           # per hop
    ici_bandwidth_gbps: float = 100.0     # GB/s per link
    allreduce_base_us: float = 15.0       # fixed cost of a (tiny) allreduce

    # --- Accelerator ------------------------------------------------------
    tpu_peak_tflops: float = 61.25        # bf16 peak per core
    hbm_bytes: int = 16 * 1024**3         # per-core HBM
    kernel_launch_us: float = 1.5         # on-device dequeue-to-start cost

    # --- Pathways controller ---------------------------------------------
    # Calibrated against Figure 6: the controller's per-program work is
    # base + per_host * n_hosts; solving 2.3 ms @ 16 hosts and 35 ms @
    # 512 hosts gives per_host ~ 66 us and base ~ 1.25 ms.
    coordinator_work_per_host_us: float = 66.0   # fan-out work per host/program
    coordinator_base_us: float = 1250.0          # fixed per-program client work
    coordinator_node_per_host_us: float = 2.0    # handle distribution per node/host
    scheduler_decision_us: float = 4.0           # gang-scheduler per computation
    #: Max computations granted-but-unfinished per device: deep enough to
    #: hide launch latency, shallow enough that the scheduling policy
    #: (not FIFO arrival) controls device-time shares.
    scheduler_queue_depth: int = 3
    executor_prep_us: float = 25.0               # per-node host prep (alloc, etc.)

    # --- Multi-controller (JAX-like) baseline ------------------------------
    jax_straggler_sigma_us: float = 30.0         # per-host dispatch jitter scale

    # --- Baseline systems --------------------------------------------------
    tf_graph_cost_per_shard_us: float = 30.0     # TF1 materialized-graph overhead
    tf_barrier_base_us: float = 100.0            # TF1 centralized control barrier
    tf_session_overhead_us: float = 1000.0       # TF1 session.run fixed cost
    ray_actor_call_us: float = 1000.0            # Ray actor method invocation
    ray_object_store_put_us: float = 250.0       # GPU->DRAM copy + store put
    gpu_dram_bandwidth_gbps: float = 10.0        # device<->DRAM over PCIe

    # --- Model-execution efficiency ---------------------------------------
    #: Fraction of peak FLOP/s a dense transformer layer achieves.  The
    #: per-model factors observed in Table 1 vary; this is the default.
    model_flops_efficiency: float = 0.50

    def with_overrides(self, **kwargs) -> "SystemConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    # -- unit helpers ----------------------------------------------------
    @property
    def dcn_bytes_per_us(self) -> float:
        return self.dcn_bandwidth_gbps * 1e9 / 1e6  # GB/s -> bytes/us

    @property
    def ici_bytes_per_us(self) -> float:
        return self.ici_bandwidth_gbps * 1e9 / 1e6

    @property
    def net_island_uplink_bytes_per_us(self) -> float:
        return self.net_island_uplink_gbps * 1e9 / 1e6

    @property
    def net_spine_bytes_per_us(self) -> float:
        return self.net_spine_gbps * 1e9 / 1e6

    @property
    def gpu_dram_bytes_per_us(self) -> float:
        return self.gpu_dram_bandwidth_gbps * 1e9 / 1e6

    @property
    def tpu_flops_per_us(self) -> float:
        return self.tpu_peak_tflops * 1e12 / 1e6


DEFAULT_CONFIG = SystemConfig()
