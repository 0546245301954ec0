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

from typing import Optional, TYPE_CHECKING

from repro.serve.frontend import REJECT_EVICTED

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.dispatch import ProgramExecution
    from repro.serve.frontend import Frontend, Request
    from repro.serve.replicas import Replica

__all__ = ["ContinuousBatcher"]

#: What the loop waits on.
_TOP = "top"            # a request, or every in-flight batch of a retiring replica
_WINDOW = "window"      # a full batch, the window's close, or a retire
_SLOT = "slot"          # the oldest in-flight batch
_BACKOFF = "backoff"    # the rebind backoff
_RETIRED = "retired"

#: Wait between submission attempts while the replica's slice is
#: mid-remap with no healthy capacity bound yet.
_REBIND_BACKOFF_US = 1_000.0
#: Attempts each batch's ``retry_on_failure`` execution gets.
_MAX_ATTEMPTS = 8


class ContinuousBatcher:
    """The per-replica batching loop, as a callback state machine.

    The loop runs until it has to wait, and resumes on what it waits
    on: :meth:`wake` (a request arrived, or the replica is retiring), a
    finished batch, or its window or backoff timer.
    """

    def __init__(self, frontend: "Frontend", replica: "Replica"):
        self.frontend = frontend
        self.replica = replica
        self.sim = frontend.sim
        rset = replica.rset
        self.max_batch = rset.max_batch
        self.max_wait_us = rset.max_wait_us
        self.max_in_flight = rset.max_in_flight
        self._state = _TOP
        #: The in-flight batch a full double buffer waits on.
        self._oldest: Optional["ProgramExecution"] = None
        #: When the open coalescing window closes.
        self._closes_at = 0.0
        #: The coalescing window's close, or the rebind backoff.
        self._timer = self.sim.timer_handle(
            self._on_timer, name=lambda: f"batcher[{replica.name}]"
        )

    def wake(self) -> None:
        """A request was queued, or the replica started retiring."""
        if self._state is _TOP or self._state is _WINDOW:
            self._run()

    # -- the loop ------------------------------------------------------------
    def _run(self) -> None:
        """Run the loop from its state until it has to wait again."""
        sim = self.sim
        replica = self.replica
        queue = replica.queue
        state = self._state
        while True:
            if state is _WINDOW:
                # The window closes on a full batch or the clock.  A
                # retire signal closes it early so the drain cannot
                # stall behind a slow trickle of arrivals.
                if (
                    len(queue) < self.max_batch
                    and sim.now < self._closes_at
                    and not replica.retiring
                ):
                    if not self._timer.armed:
                        self._timer.schedule(self._closes_at)
                    break
                self._timer.cancel()
                state = _SLOT
            if state is _SLOT:
                # Double-buffer bound: wait until a slot frees up.
                if len(replica.in_flight) >= self.max_in_flight:
                    self._oldest = replica.in_flight[0]
                    break
                if not replica.vslice.bound:
                    # Mid-remap after a failure with no capacity
                    # rebound yet: hold the queue, retry shortly.
                    state = _BACKOFF
                    self._timer.schedule(sim.now + _REBIND_BACKOFF_US)
                    break
                batch = self._take_batch()
                if batch:
                    self._submit(batch)
            # The top of the loop.
            state = _TOP
            if replica.retiring and not queue:
                # Graceful shrink: everything admitted finishes first.
                if not replica.in_flight:
                    state = _RETIRED
                    replica.rset._finalize_retire(replica)
                break
            if not queue:
                break
            if self.max_wait_us > 0 and len(queue) < self.max_batch:
                self._closes_at = sim.now + self.max_wait_us
                state = _WINDOW
            else:
                state = _SLOT
        self._state = state

    def _on_timer(self, timer) -> None:
        if self._state is _BACKOFF:
            self._state = _TOP
        self._run()

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
            max_attempts=_MAX_ATTEMPTS,
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
        replica.in_flight.append(execution)
        execution.done.add_callback(
            lambda ev, b=batch, e=execution: self._on_batch_done(ev, b, e)
        )

    def _on_batch_done(self, ev, batch, execution) -> None:
        replica = self.replica
        replica.in_flight.remove(execution)
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
            self.frontend.abandon_batch(batch)
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
        state = self._state
        if state is _TOP or (state is _SLOT and execution is self._oldest):
            self._run()
