"""Checkpoint/restore cost model (resilience subsystem).

Program state (optimizer + weights, sharded over the slice) is
periodically snapshotted from device HBM to the host-side object store
and on over DCN.  The model charges the *driver loop* for each snapshot
— frequent checkpoints cost steady-state goodput, rare checkpoints cost
replayed work after a failure — which is exactly the tradeoff the
recovery-overhead benchmark sweeps.

The manager is deliberately duck-typed against
:class:`~repro.core.dispatch.ProgramExecution`'s ``checkpoint`` hook: it
only needs ``last_checkpoint_us`` and ``restore_cost_us()`` there.
"""

from __future__ import annotations

from typing import Generator, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import PathwaysSystem

__all__ = ["CheckpointManager"]


class CheckpointManager:
    """Periodic snapshot/restore over PCIe + DCN for one training loop.

    ``interval_us=None`` disables checkpointing entirely (the
    no-checkpoint baseline): ``due`` is always False, ``restore`` rolls
    back to step 0, and ``restore_cost_us`` is 0 (there is nothing to
    read).
    """

    def __init__(
        self,
        system: "PathwaysSystem",
        interval_us: Optional[float],
        state_bytes: int,
        name: str = "ckpt",
    ):
        if interval_us is not None and interval_us <= 0:
            raise ValueError(f"checkpoint interval must be positive, got {interval_us}")
        if state_bytes < 0:
            raise ValueError(f"state bytes must be >= 0, got {state_bytes}")
        self.system = system
        self.sim = system.sim
        self.config = system.config
        self.interval_us = interval_us
        self.state_bytes = state_bytes
        self.name = name
        #: Simulated time of the last completed snapshot (0 = "initial
        #: state", which is always implicitly persisted).
        self.last_checkpoint_us = 0.0
        #: Training step covered by the last snapshot.
        self.step = 0
        self.checkpoints_taken = 0
        self.overhead_us = 0.0

    @property
    def enabled(self) -> bool:
        return self.interval_us is not None

    # -- cost model ---------------------------------------------------------
    def write_cost_us(self) -> float:
        """Drain state over PCIe to host DRAM, then DCN to the store."""
        cfg = self.config
        return (
            cfg.pcie_latency_us
            + self.state_bytes / cfg.gpu_dram_bytes_per_us
            + cfg.dcn_latency_us
            + self.state_bytes / cfg.dcn_bytes_per_us
        )

    def restore_cost_us(self) -> float:
        """Read the snapshot back and re-materialize it in HBM."""
        if not self.enabled:
            return 0.0  # nothing persisted; "restore" is re-initialization
        cfg = self.config
        return (
            cfg.dcn_latency_us
            + self.state_bytes / cfg.dcn_bytes_per_us
            + cfg.pcie_latency_us
            + self.state_bytes / cfg.gpu_dram_bytes_per_us
        )

    # -- driver hooks -------------------------------------------------------
    def due(self) -> bool:
        if not self.enabled:
            return False
        return self.sim.now - self.last_checkpoint_us >= self.interval_us

    def save(self, step: int) -> Generator:
        """Snapshot after ``step`` completed; charges the driver loop."""
        cost = self.write_cost_us()
        start = self.sim.now
        if cost > 0:
            yield self.sim.timeout(cost)
        self.overhead_us += self.sim.now - start
        self.last_checkpoint_us = self.sim.now
        self.step = step
        self.checkpoints_taken += 1

    def restore(self) -> Generator:
        """Roll state back to the last snapshot; returns its step."""
        cost = self.restore_cost_us()
        start = self.sim.now
        if cost > 0:
            yield self.sim.timeout(cost)
        self.overhead_us += self.sim.now - start
        return self.step
