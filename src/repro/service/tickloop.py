"""What the two tick loops share: one service front above the shards.

The paper's decomposition makes every output fiber's schedule a pure
function of its requests and ``busy[]``, so *where* a shard runs is the
only difference between the in-process service
(:class:`~repro.service.server.SchedulingService`) and the multi-process
one (:class:`~repro.net.procservice.ProcessShardedService`).
:class:`ServiceFront` is everything above the shards, written once for
both placements:

* the submission edge (futures, dedup, per-reason counters), the
  per-shard bounded ``queues``, circuit breakers, the token-bucket rate
  limiter and the slot clock;
* :meth:`~ServiceFront.submit_nowait` / :meth:`~ServiceFront.submit`,
  with an optional write-ahead journal of every queue effect
  (``durability``; the multi-process parent leaves it off — its workers
  journal their own shards);
* the tick skeleton: step 1 (drain each queue), step 2 (admission:
  expire slot deadlines ``TIMED_OUT``, reject ``SOURCE_BLOCKED`` inputs),
  step 4 (resolve futures, breaker accounting, ``server.*`` telemetry)
  and the input-side decay;
* :meth:`~ServiceFront.run_ticks`, :meth:`~ServiceFront.drain`,
  :meth:`~ServiceFront.start`, :meth:`~ServiceFront.stop`.

A placement supplies the hooks in between:

* ``_before_drain(slot)`` — supervision and injected faults; what it
  returns is handed to ``_run_shards``;
* ``_run_shards(slot, work, context)`` — step 3: schedule and commit each
  ``(output_fiber, survivors)`` of ``work``, returning one outcome per
  entry in the worker wire format: ``(grants, rejected)`` with grant
  tuples ``(input, wavelength, channel, duration)`` and rejected
  ``(input, wavelength)`` pairs, or a :class:`RejectReason`
  (``SHARD_DOWN`` / ``UNAVAILABLE``) for every survivor;
* ``_end_tick(slot)`` — step 5: per-shard clocks and snapshots;
* ``_shard_down(output_fiber)`` — refuse submissions ``SHARD_DOWN``;
* ``_close()`` — release the shards at :meth:`~ServiceFront.stop`.

Admission (:class:`InputAdmission`) mirrors ``SlottedSimulator.step``
exactly: shards are visited in ascending output-fiber order, requests in
FIFO order, and within one tick an earlier surviving request blocks a
later one on the same ``(input_fiber, wavelength)``.
"""

from __future__ import annotations

import asyncio
import time
from typing import TYPE_CHECKING

from repro.core.distributed import SlotRequest, validate_slot_request
from repro.core.policies import FixedPriorityPolicy, GrantPolicy
from repro.errors import InvalidParameterError, SimulationError
from repro.service.breaker import BreakerConfig, CircuitBreaker
from repro.service.edge import (
    PendingRequest,
    Rejected,
    RejectReason,
    ServiceGrant,
    SubmissionEdge,
)
from repro.service.queue import BoundedQueue, OverflowPolicy, TenantAdmission
from repro.service.ratelimit import RateLimitConfig, TokenBucketLimiter
from repro.service.telemetry import Telemetry, exponential_buckets
from repro.util.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graphs.conversion import ConversionScheme
    from repro.service.durability import DurabilityManager

__all__ = ["InputAdmission", "ServiceFront"]

#: Tick-duration buckets: 10 µs … ~40 s.
_TICK_BUCKETS = exponential_buckets(10e-6, 2.0, 22)

#: One shard's step-3 result (see the module docstring).
ShardOutcome = (
    tuple[list[tuple[int, int, int, int]], list[tuple[int, int]]] | RejectReason
)


class InputAdmission:
    """Blocked-at-source admission over the ``n_fibers × k`` input matrix.

    ``in_busy[f][w]`` is the number of future slots input channel
    ``(f, w)`` is still held by a granted connection.  One tick is::

        seen = set()
        for shard in fiber order:
            survivors, expired, blocked = admission.admit(drained, seen, slot)
            ...schedule survivors...
        for each grant: admission.hold(request)
        admission.decay()
    """

    __slots__ = ("in_busy",)

    def __init__(self, n_fibers: int, k: int) -> None:
        self.in_busy: list[list[int]] = [[0] * k for _ in range(n_fibers)]

    def admit(
        self,
        drained: "list[PendingRequest]",
        seen_inputs: set[tuple[int, int]],
        slot: int,
    ) -> "tuple[list[PendingRequest], list[PendingRequest], list[PendingRequest]]":
        """Partition ``drained`` into ``(survivors, expired, blocked)``.

        Deadline expiry is checked first (a request drained at
        ``slot >= deadline_slot`` is TIMED_OUT even if its input is also
        busy), then the busy matrix and this tick's earlier survivors.
        Survivors claim their input in ``seen_inputs`` as a side effect.
        """
        survivors: "list[PendingRequest]" = []
        expired: "list[PendingRequest]" = []
        blocked: "list[PendingRequest]" = []
        for p in drained:
            r = p.request
            if p.deadline_slot is not None and slot >= p.deadline_slot:
                expired.append(p)
            elif (
                self.in_busy[r.input_fiber][r.wavelength] > 0
                or (r.input_fiber, r.wavelength) in seen_inputs
            ):
                blocked.append(p)
            else:
                seen_inputs.add((r.input_fiber, r.wavelength))
                survivors.append(p)
        return survivors, expired, blocked

    def hold(self, request: "SlotRequest") -> None:
        """A grant committed: hold the input for the connection's duration."""
        self.in_busy[request.input_fiber][request.wavelength] = request.duration

    def decay(self) -> None:
        """End of tick: one slot elapses on every held input channel."""
        for row in self.in_busy:
            for w, left in enumerate(row):
                if left > 0:
                    row[w] = left - 1


class ServiceFront:
    """Submission, tick skeleton and run modes of a sharded service.

    Not constructed directly: a placement subclasses it and fills in the
    hooks listed in the module docstring.
    """

    #: Optional write-ahead journal of every queue effect (per shard).
    durability: "DurabilityManager | None" = None

    def __init__(
        self,
        n_fibers: int,
        scheme: "ConversionScheme",
        policy: GrantPolicy | None,
        *,
        queue_capacity: int | None,
        overflow: OverflowPolicy,
        admission: TenantAdmission | None,
        tick_interval: float,
        max_batch_per_tick: int | None,
        telemetry: Telemetry | None,
        breaker: BreakerConfig | None,
        rate_limit: RateLimitConfig | None,
        dedup_capacity: int,
    ) -> None:
        self.n_fibers = check_positive_int(n_fibers, "n_fibers")
        self.scheme = scheme
        self.policy = policy if policy is not None else FixedPriorityPolicy()
        if tick_interval < 0:
            raise InvalidParameterError(
                f"tick_interval must be >= 0, got {tick_interval}"
            )
        if max_batch_per_tick is not None:
            check_positive_int(max_batch_per_tick, "max_batch_per_tick")
        self.tick_interval = float(tick_interval)
        self.max_batch_per_tick = max_batch_per_tick
        self.telemetry = t = telemetry if telemetry is not None else Telemetry()
        self.edge = SubmissionEdge(t, dedup_capacity=dedup_capacity)
        self.queues = [
            BoundedQueue(queue_capacity, overflow, admission)
            for _ in range(self.n_fibers)
        ]
        # Per-shard breakers on the slot clock: an open breaker
        # short-circuits new submissions CIRCUIT_OPEN; shard failures
        # (SHARD_DOWN, UNAVAILABLE, TIMED_OUT) count toward tripping it,
        # answers (grants and contention losses) toward closing it.
        self.breakers: list[CircuitBreaker] | None = (
            [CircuitBreaker(breaker, t, shard=o) for o in range(self.n_fibers)]
            if breaker is not None
            else None
        )
        self.rate_limiter: TokenBucketLimiter | None = (
            TokenBucketLimiter(rate_limit, t) if rate_limit is not None else None
        )
        self._admission = InputAdmission(self.n_fibers, scheme.k)
        self._slot = 0
        self._timer_task: "asyncio.Task[None] | None" = None
        self._closed = False

        shards = range(self.n_fibers)
        self._c_offered = [t.counter(f"shard.{o}.offered") for o in shards]
        self._g_queue_depth = [t.gauge(f"shard.{o}.queue_depth") for o in shards]
        self._c_shard_crashes = t.counter("server.shard_crashes")
        self._c_ticks = t.counter("server.ticks")
        self._h_latency = t.histogram("server.grant_latency_seconds")
        self._h_tick = t.histogram("server.tick_seconds", _TICK_BUCKETS)
        self._g_slot = t.gauge("server.slot")
        self._g_depth = t.gauge("server.queue_depth_total")

    @property
    def slot(self) -> int:
        """Index of the next slot tick."""
        return self._slot

    @property
    def queue_depth_total(self) -> int:
        return sum(q.depth for q in self.queues)

    # -- placement hooks (see the module docstring) --------------------------

    def _before_drain(self, slot: int) -> object:
        return None

    async def _run_shards(
        self,
        slot: int,
        work: "list[tuple[int, list[PendingRequest]]]",
        context: object,
    ) -> list[ShardOutcome]:
        raise NotImplementedError

    def _end_tick(self, slot: int) -> None:
        pass

    def _shard_down(self, output_fiber: int) -> bool:
        return False

    def _close(self) -> None:
        pass

    # -- submission ----------------------------------------------------------

    def submit_nowait(
        self,
        request: SlotRequest,
        *,
        timeout_ticks: int | None = None,
        request_id: str | None = None,
    ) -> "asyncio.Future[ServiceGrant | Rejected]":
        """Enqueue ``request`` and return the future of its outcome.

        Must be called from the event loop.  ``timeout_ticks`` is a slot
        deadline: the request expires ``TIMED_OUT`` when a tick drains it
        at ``slot >= submit slot + timeout_ticks`` (so ``0`` expires at the
        very next drain).  Malformed requests raise
        :class:`InvalidParameterError` immediately; overflow of a bounded
        queue resolves the future per the shard's overflow policy.

        ``request_id`` is the caller's idempotency key (ignored when the
        dedup table is disabled).  Resubmitting an id whose original was
        *granted* replays that grant; resubmitting while the original is
        still in flight resolves ``DUPLICATE``.  A rejected original
        releases its id, so the retry is a fresh attempt.  Either way at
        most one copy of the request is ever scheduled — the exactly-once
        half of the retry story (``docs/SERVICE.md``).
        """
        if self._closed:
            raise SimulationError("service is stopped")
        validate_slot_request(request, self.n_fibers, self.scheme.k)
        if timeout_ticks is not None and timeout_ticks < 0:
            raise InvalidParameterError(
                f"timeout_ticks must be >= 0, got {timeout_ticks}"
            )
        future: "asyncio.Future[ServiceGrant | Rejected]" = (
            asyncio.get_running_loop().create_future()
        )
        edge = self.edge
        if request_id is not None:
            request_id = edge.check_duplicate(request, request_id, future, self._slot)
            if future.done():
                return future
        pending = PendingRequest(
            request,
            future,
            time.perf_counter(),
            request_id,
            None if timeout_ticks is None else self._slot + timeout_ticks,
        )
        edge.note_submitted(request)
        if self.rate_limiter is not None and not self.rate_limiter.allow(
            request.tenant
        ):
            edge.resolve_rejected(pending, RejectReason.RATE_LIMITED)
            return future
        o = request.output_fiber
        breaker = self.breakers[o] if self.breakers is not None else None
        # An open breaker short-circuits for free (not a shard failure —
        # the shard never saw the request); a down shard is a failure the
        # breaker counts, which is what eventually trips it.
        if breaker is not None and not breaker.allow(self._slot):
            edge.resolve_rejected(pending, RejectReason.CIRCUIT_OPEN)
            return future
        if self._shard_down(o):
            if breaker is not None:
                breaker.record_failure(self._slot)
            edge.resolve_rejected(pending, RejectReason.SHARD_DOWN)
            return future
        self._c_offered[o].inc()
        queue = self.queues[o]
        shed = queue.policy is OverflowPolicy.SHED
        if self.durability is not None:
            # Write-ahead: journal the queue effect before applying it.
            journal = self.durability.journal(o)
            if shed:
                decision = queue.plan_admit(pending)
                if decision.evict_index is not None:
                    journal.evict(self._slot, decision.evict_index)
                if decision.accepted:
                    journal.accept(self._slot, request)
            else:
                will_accept, will_evict = queue.plan_offer()
                if will_evict:
                    journal.dequeue(self._slot, 1)
                if will_accept:
                    journal.accept(self._slot, request)
        offer = queue.offer(pending)
        if offer.evicted is not None:
            # DROP_OLDEST: the head made room; SHED: the least-deserving
            # request made room.  Either way the victim is lost.
            edge.resolve_rejected(
                offer.evicted,
                RejectReason.ADMISSION_SHED if shed else RejectReason.DROPPED,
            )
        if not offer.accepted:
            if shed:
                reason = RejectReason.ADMISSION_SHED
            elif queue.policy is OverflowPolicy.REJECT:
                reason = RejectReason.QUEUE_FULL
            else:
                reason = RejectReason.DROPPED
            edge.resolve_rejected(pending, reason)
        return future

    async def submit(
        self, request: SlotRequest, *, timeout_ticks: int | None = None
    ) -> ServiceGrant | Rejected:
        """Enqueue ``request`` and await its grant/rejection."""
        return await self.submit_nowait(request, timeout_ticks=timeout_ticks)

    def _flush_queue(
        self, output_fiber: int, reason: RejectReason, slot: int | None = None
    ) -> None:
        """Resolve every request still queued for ``output_fiber``."""
        queue = self.queues[output_fiber]
        if self.durability is not None and queue.depth:
            self.durability.journal(output_fiber).dequeue(self._slot, queue.depth)
        for p in queue.drain():
            self.edge.resolve_rejected(p, reason, slot)
        self._g_queue_depth[output_fiber].set(0)

    # -- one slot tick -------------------------------------------------------

    async def tick(self) -> int:
        """Run one slot tick; returns the number of grants issued."""
        if self._closed:
            raise SimulationError("service is stopped")
        t0 = time.perf_counter()
        slot = self._slot
        edge = self.edge
        breakers = self.breakers
        context = self._before_drain(slot)

        # 1 + 2: drain queues and run admission, shards in fiber order.
        work: list[tuple[int, list[PendingRequest]]] = []
        seen_inputs: set[tuple[int, int]] = set()
        cap = self.max_batch_per_tick
        for o, queue in enumerate(self.queues):
            if self.durability is not None:
                depth = queue.depth
                n_drain = depth if cap is None else min(depth, cap)
                if n_drain:
                    self.durability.journal(o).dequeue(slot, n_drain)
            drained = queue.drain(cap)
            self._g_queue_depth[o].set(queue.depth)
            survivors, expired, blocked = self._admission.admit(
                drained, seen_inputs, slot
            )
            for p in expired:
                edge.resolve_rejected(p, RejectReason.TIMED_OUT, slot)
                if breakers is not None:
                    # A timed-out request is a shard that was too slow —
                    # the breaker counts it against the shard's health.
                    breakers[o].record_failure(slot)
            for p in blocked:
                edge.resolve_rejected(p, RejectReason.SOURCE_BLOCKED, slot)
            if survivors:
                work.append((o, survivors))

        # 3: the placement schedules and commits every shard's survivors.
        outcomes = await self._run_shards(slot, work, context)

        # 4: resolve futures in fiber order.
        n_granted = 0
        now = time.perf_counter()
        for (o, pendings), outcome in zip(work, outcomes):
            breaker = breakers[o] if breakers is not None else None
            if isinstance(outcome, RejectReason):
                for p in pendings:
                    edge.resolve_rejected(p, outcome, slot)
                    if breaker is not None:
                        breaker.record_failure(slot)
                continue
            grants, rejected = outcome
            by_input = {
                (p.request.input_fiber, p.request.wavelength): p for p in pendings
            }
            for in_f, wl, channel, _dur in grants:
                p = by_input[(in_f, wl)]
                r = p.request
                self._admission.hold(r)
                edge.note_granted(r)
                self._h_latency.observe(now - p.submitted_at)
                edge.resolve(p, ServiceGrant(r, channel, slot))
                if breaker is not None:
                    breaker.record_success(slot)
            n_granted += len(grants)
            for in_f, wl in rejected:
                edge.resolve_rejected(
                    by_input[(in_f, wl)], RejectReason.CONTENTION, slot
                )
                if breaker is not None:
                    # Losing contention is a *healthy* outcome — the shard
                    # answered; it counts toward closing, not opening.
                    breaker.record_success(slot)

        # 5: advance the clocks and record tick telemetry.
        self._end_tick(slot)
        self._admission.decay()
        if self.rate_limiter is not None:
            self.rate_limiter.advance()
        self._slot += 1
        self._c_ticks.inc()
        self._g_slot.set(self._slot)
        self._g_depth.set(self.queue_depth_total)
        self._h_tick.observe(time.perf_counter() - t0)
        return n_granted

    # -- run modes -----------------------------------------------------------

    async def run_ticks(self, n: int) -> int:
        """Run ``n`` back-to-back ticks (no sleeping); returns total grants."""
        check_positive_int(n, "n")
        return sum([await self.tick() for _ in range(n)])

    async def drain(self, max_ticks: int = 10_000) -> None:
        """Tick until every shard queue is empty (all futures resolved)."""
        ticks = 0
        while self.queue_depth_total > 0:
            if ticks >= max_ticks:
                raise SimulationError(
                    f"queues not drained after {max_ticks} ticks"
                )
            await self.tick()
            ticks += 1

    def start(self) -> None:
        """Run ticks on a background task every ``tick_interval`` seconds."""
        if self._timer_task is not None:
            raise SimulationError("service already started")
        if self._closed:
            raise SimulationError("service is stopped")
        self._timer_task = asyncio.get_running_loop().create_task(
            self._timer_loop(), name="repro-service-ticks"
        )

    async def _timer_tick(self) -> int:
        return await self.tick()

    async def _timer_loop(self) -> None:
        while True:
            await self._timer_tick()
            await asyncio.sleep(self.tick_interval)

    async def stop(self) -> None:
        """Stop ticking and flush queued requests as ``SHUTDOWN``.

        Idempotent; after ``stop()`` the service refuses new submissions.
        """
        if self._timer_task is not None:
            self._timer_task.cancel()
            try:
                await self._timer_task
            except asyncio.CancelledError:
                pass
            self._timer_task = None
        if not self._closed:
            self._closed = True
            for o in range(self.n_fibers):
                self._flush_queue(o, RejectReason.SHUTDOWN)
            self._close()
