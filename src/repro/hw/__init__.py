"""Simulated accelerator hardware substrate.

Models the hardware the paper runs on: TPU-like devices (single-threaded,
non-preemptible, gang-scheduled, with HBM), hosts (serial CPUs with PCIe
links to their devices), per-island ICI interconnects supporting fused
collectives, and a datacenter network (DCN) connecting hosts across
islands.  The paper's cluster configurations A, B, and C are provided as
builders in :mod:`repro.hw.cluster`.
"""

from repro.hw.device import (
    CollectiveRendezvous,
    Device,
    DeviceFailure,
    HbmAllocator,
    Kernel,
)
from repro.hw.host import Host
from repro.hw.interconnect import ICI
from repro.hw.topology import Island, Mesh
from repro.hw.cluster import Cluster, ClusterSpec, config_a, config_b, config_c, make_cluster

__all__ = [
    "ICI",
    "Cluster",
    "ClusterSpec",
    "CollectiveRendezvous",
    "Device",
    "DeviceFailure",
    "HbmAllocator",
    "Host",
    "Island",
    "Kernel",
    "Mesh",
    "config_a",
    "config_b",
    "config_c",
    "make_cluster",
]
