"""Continuous batching: coalesce requests into gang-scheduled programs.

One :class:`ContinuousBatcher` drives one replica.  Its loop coalesces
the replica's queued requests into dynamically sized batches — a batch
closes when ``max_batch`` requests are waiting *or* ``max_wait_us`` has
passed since the window opened, whichever fires first, so a partial
batch (even a single request) never starves.  Each batch is submitted
as one gang-scheduled inference program on the replica's slice:

* the gang carries the **tightest deadline in the batch**, so an
  overloaded island scheduler evicts it through the PR-4 deadline path
  and the whole batch becomes a typed ``deadline-evicted`` rejection;
* the execution runs ``retry_on_failure``: a device loss under the
  batch is remapped and replayed by the recovery manager, invisible to
  the caller except as latency;
* at most ``max_in_flight`` batches are outstanding per replica
  (double buffering: controller fan-out for batch *k+1* overlaps batch
  *k*'s device compute without flooding the scheduler's admission
  window).
"""

from __future__ import annotations

from typing import Generator, TYPE_CHECKING

from repro.serve.frontend import REJECT_EVICTED

if TYPE_CHECKING:  # pragma: no cover
    from repro.serve.frontend import Frontend, Request
    from repro.serve.replicas import Replica

__all__ = ["ContinuousBatcher"]


class ContinuousBatcher:
    """The per-replica batching loop (a daemon simulation process)."""

    def __init__(
        self,
        frontend: "Frontend",
        replica: "Replica",
        rebind_backoff_us: float = 1_000.0,
    ):
        self.frontend = frontend
        self.replica = replica
        self.sim = frontend.sim
        rset = replica.rset
        self.max_batch = rset.max_batch
        self.max_wait_us = rset.max_wait_us
        self.max_in_flight = rset.max_in_flight
        self.max_attempts = rset.max_attempts
        #: Wait between submission attempts while the replica's slice is
        #: mid-remap with no healthy capacity bound yet.
        self.rebind_backoff_us = rebind_backoff_us
        self.proc = self.sim.process(self._run(), daemon=True)

    # -- the loop ------------------------------------------------------------
    def _run(self) -> Generator:
        sim = self.sim
        replica = self.replica
        while True:
            if replica.retiring and not replica.queue:
                # Graceful shrink: everything admitted finishes first.
                while replica.in_flight:
                    yield replica.in_flight[0]  # settled markers never fail
                replica.rset._finalize_retire(replica)
                return
            if not replica.queue:
                replica.wakeup = sim.event()
                yield replica.wakeup
                replica.wakeup = None
                continue
            # The coalescing window: wait for a full batch or the clock,
            # whichever first.  A retire signal closes it early so the
            # drain cannot stall behind a slow trickle of arrivals.
            if self.max_wait_us > 0 and len(replica.queue) < self.max_batch:
                closes_at = sim.now + self.max_wait_us
                window = sim.timeout(self.max_wait_us)
                while (
                    len(replica.queue) < self.max_batch
                    and sim.now < closes_at
                    and not replica.retiring
                ):
                    replica.wakeup = sim.event()
                    yield sim.any_of([replica.wakeup, window])
                    replica.wakeup = None
            # Double-buffer bound: block until a slot frees up.
            while len(replica.in_flight) >= self.max_in_flight:
                yield replica.in_flight[0]
            if not replica.vslice.bound:
                # Mid-remap after a failure with no capacity rebound
                # yet: hold the queue, retry shortly.
                yield sim.timeout(self.rebind_backoff_us)
                continue
            batch = self._take_batch()
            if batch:
                self._submit(batch)

    def _take_batch(self) -> list["Request"]:
        replica = self.replica
        now = self.sim.now
        batch: list["Request"] = []
        while replica.queue and len(batch) < self.max_batch:
            req = replica.queue.popleft()
            if req.deadline_at_us <= now:
                # Already unwinnable — a typed rejection, not a doomed
                # submission that the scheduler would evict anyway.
                self.frontend.reject_expired(req)
            else:
                batch.append(req)
        return batch

    # -- one gang-scheduled batch ---------------------------------------------
    def _submit(self, batch: list["Request"]) -> None:
        sim = self.sim
        replica = self.replica
        now = sim.now
        tokens = sum(r.tokens for r in batch)
        compute_us = replica.compute_time_us(tokens)
        deadline_at = min(r.deadline_at_us for r in batch)
        for r in batch:
            r.batched_us = now
            r.compute_us = compute_us
        execution = replica.client.submit(
            replica.program_for(len(batch), tokens),
            (),
            compute_values=False,
            retry_on_failure=True,
            max_attempts=self.max_attempts,
            deadline_us=deadline_at - now,
        )
        replica.batches += 1
        replica.in_flight_requests += len(batch)
        tr = sim.tracer
        if tr is not None:
            # Link every rider to its batch execution so the critical-
            # path analyzer can attribute the batch's prep span.
            for r in batch:
                r.batch_label = execution.name
        # The settled marker is what the loop (and the retire path)
        # waits on: unlike `finished`, it can never raise.
        marker = sim.all_settled([execution.finished])
        replica.in_flight.append(marker)
        execution.finished.add_callback(
            lambda ev, b=batch, m=marker, e=execution: self._on_batch_done(
                ev, b, m, e
            )
        )

    def _on_batch_done(self, ev, batch, marker, execution) -> None:
        replica = self.replica
        if marker in replica.in_flight:
            replica.in_flight.remove(marker)
        replica.in_flight_requests -= len(batch)
        execution.release_results()
        if ev._exc is None:
            outcome = "served"
            replica.requests_served += len(batch)
            self.frontend.complete_batch(batch, replica)
        elif execution.deadline_exceeded:
            # The scheduler evicted the gang past its deadline: typed
            # rejection (the PR-4 path), not an abandon.
            outcome = "deadline-evicted"
            self.frontend.reject_batch(batch, REJECT_EVICTED)
        else:
            outcome = "abandoned"
            self.frontend.abandon_batch(batch, ev._exc)
        tr = self.sim.tracer
        if tr is not None:
            tr.complete(
                f"batch[{len(batch)}]",
                "serve.batch",
                batch[0].batched_us,
                self.sim.now,
                track=f"batcher/{replica.name}",
                args={
                    "exec": execution.name,
                    "requests": [r.req_id for r in batch],
                    "outcome": outcome,
                    "replica": replica.name,
                },
            )
