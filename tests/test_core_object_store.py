"""Tests for the sharded object store: refcounts, GC, back-pressure."""

from __future__ import annotations

import pytest

from repro.core.object_store import MemorySpace, ShardedObjectStore
from repro.core.placement import DeviceGroup


@pytest.fixture
def store(sim):
    return ShardedObjectStore(sim)


@pytest.fixture
def group(small_cluster):
    island = small_cluster.islands[0]
    return DeviceGroup(island=island, devices=island.devices[:2], n_logical=2)


class TestAllocation:
    def test_dram_allocation_is_immediate(self, store):
        handle, ready = store.allocate(1024, 4, space=MemorySpace.HOST_DRAM)
        assert ready.triggered
        assert handle.nbytes_total == 4096

    def test_hbm_allocation_reserves_on_each_device(self, sim, store, group):
        handle, ready = store.allocate(1 << 20, 2, group=group)
        sim.run()
        assert ready.triggered
        for dev in group.devices:
            assert dev.hbm.used == 1 << 20

    def test_hbm_requires_group(self, store):
        with pytest.raises(ValueError):
            store.allocate(10, 1, group=None)

    def test_backpressure_resolves_on_release(self, sim, store, group):
        cap = group.devices[0].hbm.capacity
        h1, r1 = store.allocate(cap - 100, 1, group=group)
        h2, r2 = store.allocate(1000, 1, group=group)
        # Release inside the run: a natural drain with the waiter still
        # queued is a sanitizer error (a stranded HBM waiter).
        sim.timeout(10.0).add_callback(lambda _ev: store.release(h1))
        sim.run(until=5.0)
        assert r1.triggered and not r2.triggered
        sim.run()
        assert r2.triggered


class TestRefcounting:
    def test_release_frees_at_zero(self, store, group):
        handle, _ = store.allocate(100, 2, group=group)
        store.add_ref(handle)
        store.release(handle)
        assert not handle.freed
        store.release(handle)
        assert handle.freed
        assert group.devices[0].hbm.used == 0

    def test_double_free_rejected(self, store, group):
        handle, _ = store.allocate(100, 2, group=group)
        store.release(handle)
        with pytest.raises(RuntimeError, match="double free"):
            store.release(handle)

    def test_add_ref_after_free_rejected(self, store, group):
        handle, _ = store.allocate(100, 2, group=group)
        store.release(handle)
        with pytest.raises(RuntimeError):
            store.add_ref(handle)

    def test_counters(self, store, group):
        h1, _ = store.allocate(100, 2, group=group)
        h2, _ = store.allocate(100, 2, group=group)
        store.release(h1)
        assert store.allocations == 2 and store.frees == 1
        assert len(store) == 1
