"""Tests for hosts, interconnects, topology, and cluster configs."""

from __future__ import annotations

import pytest

from repro.hw.cluster import ClusterSpec, config_a, config_b, config_c, make_cluster
from repro.hw.device import Kernel
from repro.hw.interconnect import ICI
from repro.hw.topology import Island, Mesh


class TestMesh:
    def test_coords_row_major(self):
        mesh = Mesh(2, 3)
        assert mesh.coords(0) == (0, 0)
        assert mesh.coords(4) == (1, 1)

    def test_coords_out_of_range(self):
        with pytest.raises(IndexError):
            Mesh(2, 2).coords(4)

    def test_near_square(self):
        assert (Mesh.near_square(16).rows, Mesh.near_square(16).cols) == (4, 4)
        assert Mesh.near_square(8).size == 8
        assert Mesh.near_square(7).size == 7

    def test_invalid(self):
        with pytest.raises(ValueError):
            Mesh(0, 1)
        with pytest.raises(ValueError):
            Mesh.near_square(0)


class TestIsland:
    def test_structure(self, sim, config):
        island = Island(sim, config, 0, n_hosts=2, devices_per_host=4)
        assert island.n_hosts == 2 and island.n_devices == 8
        for host in island.hosts:
            assert len(host.devices) == 4
        assert all(d.host is not None for d in island.devices)


class TestClusterConfigs:
    def test_config_a(self):
        spec = config_a()
        assert spec.total_devices == 2048 and spec.islands == ((512, 4),)

    def test_config_b(self):
        spec = config_b(64)
        assert spec.total_devices == 512

    def test_config_c(self):
        spec = config_c()
        assert len(spec.islands) == 4
        assert spec.total_devices == 128
        assert all(h * d == 32 for h, d in spec.islands)

    def test_cluster_ids_are_global(self, sim, config):
        cluster = make_cluster(sim, config_c(), config=config)
        ids = [d.device_id for d in cluster.devices]
        assert ids == list(range(128))
        host_ids = [h.host_id for h in cluster.hosts]
        assert host_ids == list(range(16))

    def test_device_lookup(self, sim, config):
        cluster = make_cluster(sim, config_c(), config=config)
        assert cluster.device(37).device_id == 37
        assert cluster.device(37).island_id == 1
        with pytest.raises(KeyError):
            cluster.device(999)

    def test_mean_utilization(self, sim, config):
        cluster = make_cluster(sim, ClusterSpec(islands=((1, 2),)), config=config)
        cluster.devices[0].enqueue(Kernel(sim, duration_us=10.0))
        sim.run()
        assert 0 < cluster.mean_utilization() <= 0.5


class TestICI:
    def test_allreduce_grows_with_devices(self, sim, config):
        ici = ICI(sim, config, 0)
        t8 = ici.allreduce_time_us(8, 1024)
        t128 = ici.allreduce_time_us(128, 1024)
        t2048 = ici.allreduce_time_us(2048, 1024)
        assert t8 < t128 < t2048

    def test_allreduce_grows_with_bytes(self, sim, config):
        ici = ICI(sim, config, 0)
        assert ici.allreduce_time_us(8, 1 << 30) > ici.allreduce_time_us(8, 1024)

    def test_transfer_time_scales_with_hops_and_bytes(self, sim, config):
        island = Island(sim, config, 0, 4, 4)
        near = island.ici.transfer_time_us(island.devices[0], island.devices[1], 1024)
        far = island.ici.transfer_time_us(island.devices[0], island.devices[15], 1024)
        assert far > near
        big = island.ici.transfer_time_us(island.devices[0], island.devices[1], 1 << 30)
        assert big > near


class TestDCN:
    def test_loopback_is_free(self, sim, config, small_cluster):
        dcn = small_cluster.transport
        host = small_cluster.hosts[0]
        ev = dcn.send(host, host, 1 << 20)
        assert ev.triggered

    def test_send_latency_and_bandwidth(self, sim, config, small_cluster):
        dcn = small_cluster.transport
        a, b = small_cluster.hosts[:2]
        ev = dcn.send(a, b, 1_250_000)  # 100us serialization at 12.5GB/s
        sim.run_until_triggered(ev)
        assert sim.now == pytest.approx(config.dcn_latency_us + 100.0)

    def test_nic_serializes_concurrent_sends(self, sim, config, small_cluster):
        dcn = small_cluster.transport
        a, b = small_cluster.hosts[:2]
        ev1 = dcn.send(a, b, 1_250_000)
        ev2 = dcn.send(a, b, 1_250_000)
        sim.run_until_triggered(sim.all_of([ev1, ev2]))
        # Second send waits for the first's 100us serialization.
        assert sim.now == pytest.approx(config.dcn_latency_us + 200.0)

    def test_counters(self, sim, config, small_cluster):
        dcn = small_cluster.transport
        a, b = small_cluster.hosts[:2]
        dcn.send(a, b, 100)
        dcn.send(a, b, 200)
        assert dcn.messages_sent == 2 and dcn.bytes_sent == 300

    def test_dcn_slower_than_pcie(self, config):
        """The paper's Figure 1 premise: DCN dispatch latency is an order
        of magnitude above PCIe."""
        assert config.dcn_latency_us >= 10 * config.pcie_latency_us

