"""Tests for virtual devices, slices, and the resource manager."""

from __future__ import annotations

import pytest

from repro.core.resource_manager import ResourceManager
from repro.core.virtual_device import VirtualSlice
from repro.hw.topology import Island


@pytest.fixture
def rm(sim, small_cluster, config):
    return ResourceManager(sim, small_cluster, config)


class TestVirtualSlice:
    def test_slice_exposes_virtual_tpus(self):
        vslice = VirtualSlice(4)
        assert len(vslice.tpus) == 4
        assert vslice.tpus[0].name.endswith(".0")
        assert not vslice.bound

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            VirtualSlice(0)

    def test_group_access_requires_binding(self):
        vslice = VirtualSlice(2)
        with pytest.raises(RuntimeError, match="not bound"):
            _ = vslice.group


class TestResourceManager:
    def test_bind_detailed_slice(self, rm):
        vslice = VirtualSlice(4)
        group = rm.bind_slice(vslice)
        assert vslice.bound
        assert group.n_logical == 4
        assert len(group.devices) == 4  # below aggregate threshold

    def test_bind_aggregate_slice(self, sim, config):
        from repro.hw.cluster import ClusterSpec, make_cluster

        cluster = make_cluster(sim, ClusterSpec(islands=((32, 8),)), config=config)
        rm = ResourceManager(sim, cluster, config, aggregate_threshold=64)
        vslice = VirtualSlice(256)
        group = rm.bind_slice(vslice)
        assert group.is_aggregate
        assert group.n_logical == 256
        assert len(group.devices) <= rm.max_simulated_per_group
        assert group.n_hosts_logical == 32

    def test_double_bind_rejected(self, rm):
        vslice = VirtualSlice(2)
        rm.bind_slice(vslice)
        with pytest.raises(RuntimeError, match="already bound"):
            rm.bind_slice(vslice)

    def test_oversized_slice_rejected(self, rm):
        with pytest.raises(RuntimeError, match="no island"):
            rm.bind_slice(VirtualSlice(10_000))

    def test_unknown_island_rejected(self, rm):
        with pytest.raises(KeyError):
            rm.bind_slice(VirtualSlice(2, island_id=42))

    def test_load_spreading(self, rm):
        """Consecutive small slices land on different device offsets."""
        g1 = rm.bind_slice(VirtualSlice(2))
        g2 = rm.bind_slice(VirtualSlice(2))
        assert g1.devices[0].device_id != g2.devices[0].device_id

    def test_release_and_rebind(self, rm):
        vslice = VirtualSlice(2)
        rm.bind_slice(vslice)
        rm.release_slice(vslice)
        assert not vslice.bound
        group = rm.rebind_slice(vslice)
        assert vslice.bound and group.n_logical == 2

    def test_add_island(self, sim, rm, config):
        island = Island(sim, config, island_id=7, n_hosts=1, devices_per_host=4,
                        first_host_id=100, first_device_id=100)
        rm.add_island(island)
        assert rm.total_devices == 12
        assert rm.bind_slice(VirtualSlice(2, island_id=7)).island is island

    def test_duplicate_island_rejected(self, sim, rm, config):
        with pytest.raises(ValueError):
            rm.add_island(rm.islands[0])

    def test_device_group_validation(self, small_cluster):
        from repro.core.placement import DeviceGroup

        island = small_cluster.islands[0]
        with pytest.raises(ValueError):
            DeviceGroup(island=island, devices=[], n_logical=1)
        with pytest.raises(ValueError):
            DeviceGroup(island=island, devices=island.devices[:4], n_logical=2)

    def test_representation_factor(self, small_cluster):
        from repro.core.placement import DeviceGroup

        island = small_cluster.islands[0]
        g = DeviceGroup(island=island, devices=island.devices[:2], n_logical=8)
        assert g.is_aggregate and g.representation_factor == 4.0

    def test_per_host_bytes(self, small_cluster):
        """A DCN move's bytes split over the gang's logical hosts, never
        below one byte."""
        from repro.core.placement import DeviceGroup

        island = small_cluster.islands[0]
        g = DeviceGroup(
            island=island, devices=island.devices[:2], n_logical=16, n_hosts_logical=4
        )
        assert g.per_host_bytes(4_000) == 1_000
        assert g.per_host_bytes(7) == 1
        assert g.per_host_bytes(0) == 1
