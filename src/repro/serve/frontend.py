"""The serving frontend: request ingress and SLO-aware admission.

An open-loop client population pushes :class:`Request`\\ s over the
routed ``repro.net`` transport to one frontend host.  On arrival the
frontend decides — *before* any hardware is committed — whether the
request's SLO budget is still winnable:

* no active replica → ``no-capacity`` rejection;
* the chosen replica's queue is at its bound → ``queue-full``;
* the backlog-based latency estimate exceeds the remaining budget →
  ``infeasible-deadline``.

Admitted requests join the least-loaded replica's continuous batcher
and carry an **absolute deadline**: every gang the batch submits rides
the scheduler's deadline-eviction path (PR 4), so even work the
estimate got wrong leaves the system as a *typed* rejection
(``deadline-evicted`` via ``execution.deadline_exceeded``) rather than
a silent SLO miss camped on the queue.  Every rejection reason is a
counter on the frontend — overload is absorbed as accounted rejections,
never abandons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.serve.metrics import LatencyRecorder
from repro.sim import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import PathwaysSystem
    from repro.hw.host import Host
    from repro.serve.replicas import Replica, ReplicaSet

__all__ = [
    "Frontend",
    "REJECTION_REASONS",
    "REJECT_EVICTED",
    "REJECT_EXPIRED",
    "REJECT_INFEASIBLE",
    "REJECT_NET_LOST",
    "REJECT_NO_CAPACITY",
    "REJECT_QUEUE_FULL",
    "Request",
]

#: Typed rejection reasons (frontend counter keys).
REJECT_NO_CAPACITY = "no-capacity"          # no active replica
REJECT_QUEUE_FULL = "queue-full"            # per-replica queue bound hit
REJECT_INFEASIBLE = "infeasible-deadline"   # admission estimate > budget
REJECT_EXPIRED = "expired-in-queue"         # deadline passed before batching
REJECT_EVICTED = "deadline-evicted"         # scheduler deadline eviction
REJECT_NET_LOST = "net-lost"                # request/response message lost

#: Wire size of a request's prompt and a response's generated tokens.
_BYTES_PER_TOKEN = 4

#: Admission: with it off every request is accepted and the scheduler's
#: deadline eviction is the only overload backstop (the configuration
#: the eviction tests patch in).  On, a request is turned away when its
#: replica's queue holds ``MAX_QUEUE_PER_REPLICA`` requests, or when the
#: latency estimate exceeds its remaining budget times ``ADMISSION_SLACK``.
ADMISSION = True
ADMISSION_SLACK = 1.0
MAX_QUEUE_PER_REPLICA = 64

REJECTION_REASONS = (
    REJECT_NO_CAPACITY,
    REJECT_QUEUE_FULL,
    REJECT_INFEASIBLE,
    REJECT_EXPIRED,
    REJECT_EVICTED,
    REJECT_NET_LOST,
)


@dataclass
class Request:
    """One inference request and its lifecycle stamps (all µs)."""

    req_id: int
    src_host: "Host"
    prompt_tokens: int
    gen_tokens: int
    #: SLO budget relative to :attr:`arrival_us`.
    slo_us: float
    arrival_us: float
    received_us: float = 0.0    # delivered to the frontend
    admitted_us: float = 0.0    # passed admission
    batched_us: float = 0.0     # its batch was submitted
    done_us: float = 0.0        # batch execution completed
    completed_us: float = 0.0   # response delivered to the caller
    #: Device-compute share of its batch (analytic).
    compute_us: float = 0.0
    #: The batch execution that served it (tracing only; links the
    #: request span to its batch's dispatch spans for critical-path
    #: prep attribution).
    batch_label: str = ""
    #: Terminal rejection reason (None while live / on completion).
    rejected: Optional[str] = None
    #: True when the request died to a non-deadline failure.
    abandoned: bool = False

    @property
    def tokens(self) -> int:
        return self.prompt_tokens + self.gen_tokens

    @property
    def deadline_at_us(self) -> float:
        """Absolute SLO deadline (the scheduler-eviction bound)."""
        return self.arrival_us + self.slo_us


class Frontend:
    """Request ingress, SLO admission, and typed outcome accounting."""

    def __init__(
        self,
        system: "PathwaysSystem",
        replicas: "ReplicaSet",
    ):
        self.system = system
        self.sim = system.sim
        self.config = system.config
        self.transport = system.transport
        #: The gateway host requests are delivered to (and replica
        #: weights are shipped from): the cluster's first host.
        self.host = system.cluster.hosts[0]
        self.replicas = replicas
        replicas.attach_frontend(self)
        self.recorder = LatencyRecorder()

        # Outcome accounting: every arrived request ends in exactly one
        # of completed / rejections[reason] / abandoned.
        self.arrived = 0
        self.admitted = 0
        self.completed = 0
        self.abandoned = 0
        self.rejections: dict[str, int] = {}
        self._outstanding = 0
        self._closing = False
        self._drained: Event = self.sim.event()
        self._req_ids = 0
        #: Registered for ``PathwaysSystem.stats()`` aggregation.
        getattr(system, "frontends", []).append(self)

    def stats(self):
        """Frozen serving snapshot (unified ``repro.stats`` protocol)."""
        from repro.stats import ServeStats

        return ServeStats(
            arrived=self.arrived,
            admitted=self.admitted,
            completed=self.completed,
            abandoned=self.abandoned,
            rejections=dict(self.rejections),
            latency=self.recorder.snapshot(),
        )

    # -- ingress -------------------------------------------------------------
    def submit_from(
        self,
        src_host: "Host",
        prompt_tokens: int,
        gen_tokens: int,
        slo_us: float,
    ) -> Request:
        """One open-loop arrival: ship the request to the frontend host
        over the transport, then admit on delivery."""
        self._req_ids += 1
        req = Request(
            req_id=self._req_ids,
            src_host=src_host,
            prompt_tokens=prompt_tokens,
            gen_tokens=gen_tokens,
            slo_us=slo_us,
            arrival_us=self.sim.now,
        )
        self.arrived += 1
        self._outstanding += 1
        nbytes = max(1, prompt_tokens * _BYTES_PER_TOKEN)
        msg = self.transport.send(src_host, self.host, nbytes)
        msg.add_callback(lambda ev, r=req: self._on_request_delivered(ev, r))
        return req

    def _on_request_delivered(self, ev: Event, req: Request) -> None:
        if ev._exc is not None:
            self._reject(req, REJECT_NET_LOST)
            return
        req.received_us = self.sim.now
        self._admit(req)

    # -- admission -----------------------------------------------------------
    def _admit(self, req: Request) -> None:
        replica = self.replicas.least_loaded()
        if replica is None:
            self._reject(req, REJECT_NO_CAPACITY)
            return
        if ADMISSION:
            if replica.queue_len >= MAX_QUEUE_PER_REPLICA:
                self._reject(req, REJECT_QUEUE_FULL)
                return
            budget = req.deadline_at_us - self.sim.now
            if self._estimated_latency_us(replica) > budget * ADMISSION_SLACK:
                self._reject(req, REJECT_INFEASIBLE)
                return
        req.admitted_us = self.sim.now
        self.admitted += 1
        replica.enqueue(req)

    def _estimated_latency_us(self, replica: "Replica") -> float:
        """Pessimistic time-to-response if ``req`` joined ``replica``:
        every batch ahead of it (in flight and queued) at full-batch
        service time, plus one coalescing window and the response leg."""
        rset = self.replicas
        batches_ahead = len(replica.in_flight) + math.ceil(
            (replica.queue_len + 1) / rset.max_batch
        )
        return (
            batches_ahead * replica.service_time_us(rset.max_batch)
            + rset.max_wait_us
            + self.config.dcn_latency_us
        )

    # -- terminal outcomes (called by the batcher and response path) ----------
    def complete_batch(self, batch: list[Request], replica: "Replica") -> None:
        """A batch finished on-device: ship each response back."""
        now = self.sim.now
        src = replica.lead_host if replica.vslice.bound else self.host
        for req in batch:
            req.done_us = now
            nbytes = max(1, req.gen_tokens * _BYTES_PER_TOKEN)
            msg = self.transport.send(src, req.src_host, nbytes)
            msg.add_callback(lambda ev, r=req: self._on_response(ev, r))

    def _on_response(self, ev: Event, req: Request) -> None:
        if ev._exc is not None:
            self._reject(req, REJECT_NET_LOST)
            return
        req.completed_us = self.sim.now
        self.completed += 1
        self.recorder.record(req)
        tr = self.sim.tracer
        if tr is not None:
            # The causal request span: every lifecycle stamp rides along
            # so the critical-path analyzer can decompose the latency
            # into stages that sum exactly to completed - arrival.
            tr.complete(
                f"request#{req.req_id}",
                "serve.request",
                req.arrival_us,
                req.completed_us,
                track="serve",
                trace_id=f"req{req.req_id}",
                args={
                    "req": req.req_id,
                    "arrival": req.arrival_us,
                    "received": req.received_us,
                    "admitted": req.admitted_us,
                    "batched": req.batched_us,
                    "done": req.done_us,
                    "completed": req.completed_us,
                    "compute": req.compute_us,
                    "batch": req.batch_label,
                    "tokens": req.tokens,
                },
            )
        self._settle(req)

    def reject_expired(self, req: Request) -> None:
        """The batcher found the deadline already blown at batch time."""
        self._reject(req, REJECT_EXPIRED)

    def reject_batch(self, batch: list[Request], reason: str) -> None:
        for req in batch:
            self._reject(req, reason)

    def abandon_batch(self, batch: list[Request]) -> None:
        """A batch died to a non-deadline failure — the outcome the
        overload benches assert never happens (recovery replays device
        loss; deadline evictions are typed rejections)."""
        for req in batch:
            req.abandoned = True
            self.abandoned += 1
            self._settle(req)

    def _reject(self, req: Request, reason: str) -> None:
        req.rejected = reason
        self.rejections[reason] = self.rejections.get(reason, 0) + 1
        tr = self.sim.tracer
        if tr is not None:
            tr.instant(
                f"reject:{reason}",
                "serve.reject",
                track="serve",
                trace_id=f"req{req.req_id}",
                args={"req": req.req_id, "reason": reason},
            )
        self._settle(req)

    # -- drain bookkeeping ----------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Arrived requests without a terminal outcome yet."""
        return self._outstanding

    @property
    def total_rejected(self) -> int:
        return sum(self.rejections.values())

    def _settle(self, req: Request) -> None:
        self._outstanding -= 1
        if self._closing and self._outstanding == 0 and not self._drained.triggered:
            self._drained.succeed(None)

    def close(self) -> Event:
        """No more arrivals: returns an event firing once every already
        arrived request has a terminal outcome."""
        self._closing = True
        if self._outstanding == 0 and not self._drained.triggered:
            self._drained.succeed(None)
        return self._drained
