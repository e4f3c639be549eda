"""The submission edge: futures, deduplication, rejection accounting.

This is the transport-facing layer of the service, split out of
``server.py`` so every front door — direct asyncio calls
(:class:`~repro.service.server.SchedulingService`), the TCP server
(:mod:`repro.net.server`), the multi-process parent
(:mod:`repro.net.procservice`) — shares one implementation of the edge
semantics:

* the outcome types every front door resolves futures with
  (:class:`ServiceGrant`, :class:`Rejected` and its :class:`RejectReason`),
* a :class:`PendingRequest` envelope per in-flight submission,
* the bounded request-id dedup table (exactly-once grants: a granted id
  replays its grant, an in-flight id answers ``DUPLICATE``, a rejected id
  is released),
* resolution helpers that settle the dedup table and bump the per-reason
  telemetry counters in one place.

The edge never touches shard state; it only turns outcomes into resolved
futures and counts.
"""

from __future__ import annotations

import asyncio
import enum
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.service.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.distributed import SlotRequest

__all__ = [
    "PendingRequest",
    "Rejected",
    "RejectReason",
    "ServiceGrant",
    "SubmissionEdge",
]


class RejectReason(enum.Enum):
    """Why a submitted request did not get a channel."""

    #: Lost the output contention this tick (no free compatible channel).
    CONTENTION = "contention"
    #: Input channel still busy with an earlier grant (or an earlier
    #: request in the same tick) — blocked at source.
    SOURCE_BLOCKED = "source_blocked"
    #: Bounded shard queue was full under the ``REJECT`` policy.
    QUEUE_FULL = "queue_full"
    #: Dropped by a ``DROP_TAIL``/``DROP_OLDEST`` queue overflow.
    DROPPED = "dropped"
    #: Its slot deadline (``timeout_ticks``) passed before a tick could
    #: schedule it.
    TIMED_OUT = "timed_out"
    #: Service stopped with the request still queued.
    SHUTDOWN = "shutdown"
    #: The owning shard worker is down (crashed, not yet restarted).
    SHARD_DOWN = "shard_down"
    #: Short-circuited by the shard's open circuit breaker.
    CIRCUIT_OPEN = "circuit_open"
    #: A retry of a ``request_id`` whose original is still in flight —
    #: refused so at most one copy is ever scheduled (exactly-once; a
    #: retry of an already *granted* id replays the original grant
    #: instead of getting this).
    DUPLICATE = "duplicate"
    #: Shed by per-tenant admission control (``SHED`` overflow policy):
    #: either evicted from the queue as the least-deserving request, or
    #: refused at the door because the newcomer itself was least
    #: deserving.  Unlike ``DROPPED``, the casualty is chosen by priority
    #: class and weighted tenant share, not FIFO position.
    ADMISSION_SHED = "admission_shed"
    #: Refused at the edge by the per-tenant token-bucket rate limiter
    #: (:mod:`repro.service.ratelimit`) — the tenant's bucket was empty,
    #: so the request never reached a queue or a shard.
    RATE_LIMITED = "rate_limited"
    #: The backend responsible for this request is unreachable — an
    #: edge↔worker partition or a worker that stayed unresponsive through
    #: the pool's respawn budget.  Unlike ``SHARD_DOWN`` (the shard
    #: itself crashed and its state is gone until supervision heals it),
    #: the shard's state is intact somewhere we cannot currently reach;
    #: the typed reject is the graceful degradation, and retrying after
    #: the partition heals is expected to succeed.
    UNAVAILABLE = "unavailable"


@dataclass(frozen=True, slots=True)
class ServiceGrant:
    """A granted request: the assigned output channel and the grant slot."""

    request: SlotRequest
    channel: int
    slot: int


@dataclass(frozen=True, slots=True)
class Rejected:
    """A request that resolved without a channel, and why."""

    request: SlotRequest
    reason: RejectReason
    slot: int | None = None


class PendingRequest:
    """Envelope for one in-flight submission: request + future + submit
    timestamp (+ the caller's idempotency key when dedup is on, + its slot
    deadline).

    ``deadline_slot`` is a slot index: the request expires ``TIMED_OUT``
    when a tick drains it at ``slot >= deadline_slot``.  It advances with
    the logical clock, not the wall, so a replayed schedule expires the
    same requests at the same slots every run.
    """

    __slots__ = ("request", "future", "deadline_slot", "submitted_at", "request_id")

    def __init__(
        self,
        request: "SlotRequest",
        future: "asyncio.Future[ServiceGrant | Rejected]",
        submitted_at: float,
        request_id: str | None = None,
        deadline_slot: int | None = None,
    ) -> None:
        self.request = request
        self.future = future
        self.deadline_slot = deadline_slot
        self.submitted_at = submitted_at
        self.request_id = request_id


class _DedupEntry:
    """Dedup-table slot: ``outcome`` is None while the original is in
    flight, then the original :class:`ServiceGrant` (rejections release
    the id instead of settling it)."""

    __slots__ = ("outcome",)

    def __init__(self) -> None:
        self.outcome: "ServiceGrant | None" = None


class SubmissionEdge:
    """Shared submission-edge state machine (see module docstring).

    The owning service calls :meth:`check_duplicate` before enqueueing,
    :meth:`resolve` / :meth:`resolve_rejected` to settle outcomes.
    Counter names are the stable ``server.*`` telemetry contract.
    """

    def __init__(self, telemetry: Telemetry, *, dedup_capacity: int = 0) -> None:
        self.telemetry = telemetry
        self._dedup: "OrderedDict[str, _DedupEntry] | None" = (
            OrderedDict() if dedup_capacity > 0 else None
        )
        self._dedup_capacity = dedup_capacity

        t = telemetry
        self.c_submitted = t.counter("server.submitted")
        self.c_granted = t.counter("server.granted")
        self._c_duplicate = t.counter("server.duplicate")
        self._reason_counters = {
            RejectReason.CONTENTION: t.counter("server.rejected.contention"),
            RejectReason.SOURCE_BLOCKED: t.counter(
                "server.rejected.source_blocked"
            ),
            RejectReason.QUEUE_FULL: t.counter("server.rejected.queue_full"),
            RejectReason.DROPPED: t.counter("server.dropped"),
            RejectReason.TIMED_OUT: t.counter("server.timed_out"),
            RejectReason.SHUTDOWN: t.counter("server.shutdown"),
            RejectReason.SHARD_DOWN: t.counter("server.rejected.shard_down"),
            RejectReason.CIRCUIT_OPEN: t.counter(
                "server.rejected.circuit_open"
            ),
            RejectReason.DUPLICATE: self._c_duplicate,
            RejectReason.ADMISSION_SHED: t.counter(
                "server.rejected.admission_shed"
            ),
            RejectReason.RATE_LIMITED: t.counter(
                "server.rejected.rate_limited"
            ),
            RejectReason.UNAVAILABLE: t.counter(
                "server.rejected.unavailable"
            ),
        }
        # Per-tenant accounting, materialized lazily (the single-tenant
        # fast path never pays for tenants it has not seen).  Names are
        # the ``tenant.<id>.*`` telemetry contract the QoS drills and
        # docs/SERVICE.md rely on.
        self._tenant_submitted: dict[int, object] = {}
        self._tenant_granted: dict[int, object] = {}
        self._tenant_rejected: dict[tuple[int, "RejectReason"], object] = {}

    # -- per-tenant accounting ----------------------------------------------

    def note_submitted(self, request: "SlotRequest") -> None:
        """Count one accepted-for-processing submission (all front doors
        call this instead of bumping ``c_submitted`` directly, so the
        per-tenant ledger stays consistent with the aggregate)."""
        self.c_submitted.inc()
        tenant = request.tenant
        c = self._tenant_submitted.get(tenant)
        if c is None:
            c = self._tenant_submitted[tenant] = self.telemetry.counter(
                f"tenant.{tenant}.submitted"
            )
        c.inc()

    def note_granted(self, request: "SlotRequest") -> None:
        """Count one grant (aggregate + per-tenant)."""
        self.c_granted.inc()
        tenant = request.tenant
        c = self._tenant_granted.get(tenant)
        if c is None:
            c = self._tenant_granted[tenant] = self.telemetry.counter(
                f"tenant.{tenant}.granted"
            )
        c.inc()

    @property
    def dedup_enabled(self) -> bool:
        return self._dedup is not None

    # -- deduplication ------------------------------------------------------

    def check_duplicate(
        self,
        request: "SlotRequest",
        request_id: str | None,
        future: "asyncio.Future[ServiceGrant | Rejected]",
        slot: int,
    ) -> str | None:
        """Apply the exactly-once admission rule for ``request_id``.

        A known *granted* id resolves ``future`` with the original grant;
        a known in-flight id resolves it ``DUPLICATE``; in both cases the
        return is ``None`` (the caller must not enqueue).  A fresh id is
        registered (evicting the oldest past capacity) and returned so the
        caller threads it through the :class:`PendingRequest`.  When dedup
        is off every id degrades to ``None`` (ignored).
        """
        if self._dedup is None or request_id is None:
            return None
        entry = self._dedup.get(request_id)
        if entry is not None:
            self.note_submitted(request)
            self._c_duplicate.inc()
            key = (request.tenant, RejectReason.DUPLICATE)
            c = self._tenant_rejected.get(key)
            if c is None:
                c = self._tenant_rejected[key] = self.telemetry.counter(
                    f"tenant.{request.tenant}.rejected.duplicate"
                )
            c.inc()
            if entry.outcome is not None:
                future.set_result(entry.outcome)
            else:
                future.set_result(
                    Rejected(request, RejectReason.DUPLICATE, slot)
                )
            return None
        self._dedup[request_id] = _DedupEntry()
        while len(self._dedup) > self._dedup_capacity:
            self._dedup.popitem(last=False)
        return request_id

    def _settle_dedup(
        self, pending: PendingRequest, outcome: "ServiceGrant | Rejected"
    ) -> None:
        """Record a granted original for replay; release a rejected one
        (its caller's retry must be a fresh attempt, not a DUPLICATE)."""
        if pending.request_id is None or self._dedup is None:
            return
        entry = self._dedup.get(pending.request_id)
        if entry is None:  # evicted by the capacity bound
            return
        if isinstance(outcome, ServiceGrant):
            entry.outcome = outcome
        else:
            del self._dedup[pending.request_id]

    # -- resolution ---------------------------------------------------------

    def resolve(
        self, pending: PendingRequest, outcome: "ServiceGrant | Rejected"
    ) -> None:
        self._settle_dedup(pending, outcome)
        if not pending.future.done():
            pending.future.set_result(outcome)

    def resolve_rejected(
        self,
        pending: PendingRequest,
        reason: "RejectReason",
        slot: int | None = None,
    ) -> None:
        self._reason_counters[reason].inc()
        tenant = pending.request.tenant
        key = (tenant, reason)
        c = self._tenant_rejected.get(key)
        if c is None:
            c = self._tenant_rejected[key] = self.telemetry.counter(
                f"tenant.{tenant}.rejected.{reason.value}"
            )
        c.inc()
        self.resolve(pending, Rejected(pending.request, reason, slot))
