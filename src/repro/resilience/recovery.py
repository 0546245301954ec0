"""Failure detection and re-dispatch orchestration (resilience subsystem).

The :class:`RecoveryManager` is the single-controller counterpart of the
paper's operability argument: because one resource manager owns every
device and one scheduler per island owns the enqueue order, a failure is
handled *centrally* —

* the failed device is taken down (in-flight kernel aborted, gang peers
  released from their collective) and its pending grants are evicted
  from the island scheduler without disturbing the relative order of
  surviving work;
* virtual slices that lost devices are remapped onto surviving hardware
  (bumping their bind version, so client lowering caches transparently
  re-lower);
* executions running with ``retry_on_failure`` observe the loss, pay
  this manager's detection latency, remap their slices with its remap
  time and backoff, and replay lost nodes from the last checkpoint
  (``ProgramExecution``'s recovery chain).

Attaching a manager sets ``system.recovery``; there is at most one per
system.

While a :class:`~repro.resilience.faults.FaultInjector` holds devices
cold, it applies their faults and repairs itself, without a loop entry,
and folds them into :attr:`RecoveryManager.epoch`,
``device_failures`` and ``repairs``.  Those counters catch the injector
up first, as ``Device.failed`` does; the host and island operations
warm all their devices in one batch before touching them, and every
fault operation hands the devices it touched back to the injector
afterwards (``_settle``), which decides whether each stays warm or
turns cold.
"""

from __future__ import annotations

import warnings

from typing import TYPE_CHECKING

from repro.hw.device import Device
from repro.hw.host import Host
from repro.resilience.faults import FaultEvent, FaultKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import PathwaysSystem

__all__ = ["RecoveryManager"]


class RecoveryManager:
    """Central fault handling for one :class:`PathwaysSystem`."""

    def __init__(
        self,
        system: "PathwaysSystem",
        detection_us: float = 1_000.0,
        remap_us: float = 200.0,
        retry_backoff_us: float = 5_000.0,
        max_remap_attempts: int = 10_000,
    ):
        if system.recovery is not None:
            raise RuntimeError("system already has a RecoveryManager attached")
        self.system = system
        self.sim = system.sim
        #: Health-monitor latency: time from fault to the controller
        #: acting on it (heartbeat / watchdog period).  This and the
        #: remap knobs below drive each execution's recovery chain, which
        #: raises ``RuntimeError`` after ``max_remap_attempts`` backoffs.
        self.detection_us = detection_us
        #: Resource-manager work per slice remap.
        self.remap_us = remap_us
        #: Wait between remap attempts when no healthy capacity exists
        #: (e.g. during an island preemption).
        self.retry_backoff_us = retry_backoff_us
        self.max_remap_attempts = max_remap_attempts
        #: Behind :attr:`epoch`, :attr:`device_failures`, :attr:`repairs`.
        self._epoch = 0
        self._device_failures = 0
        self.host_crashes = 0
        self.preemptions = 0
        self.link_faults = 0
        self._repairs = 0
        #: The fault injector applying transitions on cold devices
        #: lazily, while one runs: fault operations catch it up first
        #: and re-classify the devices they touched afterwards.
        self._fault_clock = None
        self.remaps = 0
        self.programs_recovered = 0
        #: In-flight DCN messages lost to crashes/timeouts: the transport
        #: reports every loss here so recovery sweeps can attribute
        #: route-loss replays alongside device/host faults.
        self.messages_lost = 0
        system.transport.add_loss_listener(self._on_message_lost)
        system.recovery = self

    # -- counters that include lazily applied faults ------------------------
    @property
    def epoch(self) -> int:
        """Bumped on every injected fault; slice versions are the
        per-client signal, this is the global one."""
        self._catch_up()
        return self._epoch

    @property
    def device_failures(self) -> int:
        self._catch_up()
        return self._device_failures

    @property
    def repairs(self) -> int:
        self._catch_up()
        return self._repairs

    def _catch_up(self) -> None:
        if self._fault_clock is not None:
            self._fault_clock.catch_up()

    def _warm(self, devices) -> None:
        if self._fault_clock is not None:
            self._fault_clock.warm(devices)

    def _settle(self, devices) -> None:
        if self._fault_clock is not None:
            self._fault_clock.settle(devices)

    def stats(self):
        """Frozen fault-handling snapshot (unified ``repro.stats`` protocol)."""
        from repro.stats import RecoveryStats

        return RecoveryStats(
            epoch=self.epoch,
            device_failures=self.device_failures,
            host_crashes=self.host_crashes,
            preemptions=self.preemptions,
            link_faults=self.link_faults,
            repairs=self.repairs,
            remaps=self.remaps,
            programs_recovered=self.programs_recovered,
            messages_lost=self.messages_lost,
        )

    # -- fault injection entry point ----------------------------------------
    def inject(self, event: FaultEvent) -> None:
        """Apply one scheduled fault (called by the FaultInjector)."""
        if event.kind is FaultKind.DEVICE_FAILURE:
            device = self.system.cluster.device(event.target)
            self.fail_device(device, reason="injected fault")
            if event.repair_us > 0:
                # The hot fault path: one callback on the repair timeout.
                self.sim.timeout(event.repair_us).add_callback(
                    lambda _ev: self.repair_device(device)
                )
        elif event.kind is FaultKind.HOST_CRASH:
            host = self._host(event.target)
            self.crash_host(host)
            if event.repair_us > 0:
                self._after(event.repair_us, lambda: self.restore_host(host))
        elif event.kind is FaultKind.ISLAND_PREEMPTION:
            if event.notice_us > 0:
                elastic = self.system.elastic
                if elastic is not None:
                    elastic.preemption_notice(
                        event.target, event.notice_us, event.repair_us
                    )
                    return
                warnings.warn(
                    f"preemption notice for island {event.target} dropped: no "
                    "ElasticController attached; preempting abruptly at the "
                    "deadline instead",
                    UserWarning,
                    stacklevel=1,
                )
                self._after(
                    event.notice_us,
                    lambda: self.preempt_island(event.target, event.repair_us),
                )
                return
            self.preempt_island(event.target, event.repair_us)
        elif event.kind is FaultKind.LINK_DOWN:
            self.take_link_down(event.link)
            if event.repair_us > 0:
                self._after(
                    event.repair_us, lambda: self.restore_link(event.link)
                )
        elif event.kind is FaultKind.LINK_RESTORE:
            self.restore_link(event.link)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown fault kind {event.kind!r}")

    # -- primitive fault operations -----------------------------------------
    def fail_device(self, device: Device, reason: str = "device failure") -> None:
        """Take one device down and evict its pending grants."""
        if device.failed:
            return
        self._epoch += 1
        self._device_failures += 1
        device.fail(reason)
        island = self.system.cluster.islands[device.island_id]
        self.system.scheduler_for(island).evict_device(device.device_id)
        self._settle((device,))

    def repair_device(self, device: Device) -> None:
        if not device.failed:
            return
        if device.host is not None and device.host.failed:
            # A device cannot come back while its host is down; the
            # host's restore will restart it.
            return
        self._repairs += 1
        device.restart()
        self._readmit(device)
        self.system.resource_manager.capacity_changed("repair", device.island_id)
        self._settle((device,))

    def crash_host(self, host: Host) -> None:
        """A host dies, taking all its PCIe-attached devices with it."""
        self._warm(host.devices)
        if host.failed:
            return
        self._epoch += 1
        self.host_crashes += 1
        island = self.system.cluster.islands[host.island_id]
        scheduler = self.system.scheduler_for(island)
        host.crash()
        for device in host.devices:
            scheduler.evict_device(device.device_id)
        self._settle(host.devices)

    def restore_host(self, host: Host) -> None:
        self._warm(host.devices)
        if not host.failed:
            return
        self._repairs += 1
        host.restore()
        for device in host.devices:
            self._readmit(device)
        self.system.resource_manager.capacity_changed("restore", host.island_id)
        self._settle(host.devices)

    def take_link_down(self, link: str) -> int:
        """Fail one fabric link; flows reroute, park, or (endpoint NIC
        death only) are lost.  Returns the evicted-flow count."""
        self._epoch += 1
        self.link_faults += 1
        return self.system.transport.fail_link(link)

    def restore_link(self, link: str) -> bool:
        """Bring a downed fabric link back, waking parked flows."""
        restored = self.system.transport.restore_link(link)
        if restored:
            self._repairs += 1
        return restored

    def preempt_island(self, island_id: int, duration_us: float) -> None:
        """The whole island is preempted for ``duration_us``: scheduling
        pauses (pending requests keep their enqueue order), every device
        drops its state, and after the preemption devices restart and
        granting resumes."""
        island = self.system.cluster.islands[island_id]
        scheduler = self.system.scheduler_for(island)
        self._warm(island.devices)
        self._epoch += 1
        self.preemptions += 1
        scheduler.pause()
        for device in island.devices:
            device.fail("island preemption")
            scheduler.evict_device(device.device_id)
        self._settle(island.devices)

        def _resume() -> None:
            self._warm(island.devices)
            for device in island.devices:
                device.restart()
                scheduler.readmit_device(device.device_id)
            scheduler.resume()
            self._repairs += 1
            self.system.resource_manager.capacity_changed(
                "preemption-end", island_id
            )
            self._settle(island.devices)

        self._after(duration_us, _resume)

    # -- helpers -------------------------------------------------------------
    def _on_message_lost(self, message, cause) -> None:
        self.messages_lost += 1

    def _readmit(self, device: Device) -> None:
        """Tell the island scheduler a restarted device is schedulable
        again (clears any stale granted-work accounting)."""
        island = self.system.cluster.islands[device.island_id]
        self.system.scheduler_for(island).readmit_device(device.device_id)

    def _host(self, host_id: int) -> Host:
        for host in self.system.cluster.hosts:
            if host.host_id == host_id:
                return host
        raise KeyError(f"no host {host_id}")

    def _after(self, delay_us: float, fn) -> None:
        """Run ``fn`` after ``delay_us`` of simulated time."""
        self.sim.timeout(delay_us).add_callback(lambda ev: fn())
