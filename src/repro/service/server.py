"""The asyncio scheduling server: slot ticks, shard fan-out, timeouts.

:class:`SchedulingService` turns the paper's per-slot batch schedulers into
a long-running online service.  Callers submit
:class:`~repro.core.distributed.SlotRequest`\\ s at any time; the server
batches everything enqueued since the last tick into one *slot tick* —
the service-side analogue of the simulator's synchronous time slot — and
resolves each request's future with a :class:`ServiceGrant` or
:class:`Rejected`.

One tick does, in order (mirroring ``SlottedSimulator.step`` exactly, which
is what the equivalence test relies on):

1. **Drain** each shard's bounded queue (FIFO, optionally capped per tick).
2. **Admission**: expire requests past their deadline (``TIMED_OUT``) and
   requests whose input channel is still held by an earlier multi-slot
   grant or by an earlier request in this same tick (``SOURCE_BLOCKED`` —
   the input laser cannot transmit two signals).
3. **Schedule**: resolve every shard's survivors inline on the event
   loop with one batch-kernel call for all output fibers
   (:func:`~repro.core.distributed.schedule_tick`); rows the kernel cannot
   express (degraded inputs, mixed priority classes, schedulers without a
   kernel) go through :meth:`ShardWorker.schedule` instead.
4. **Commit**: hold granted output/input channels for the connection's
   duration, resolve futures, record telemetry (grant latency, tick
   duration, occupancy, queue depths).
5. **Advance** every shard's channel clock and the input-side busy state.

Drive ticks yourself (:meth:`SchedulingService.tick`,
:meth:`~SchedulingService.run_ticks` — deterministic, used by tests) or let
:meth:`~SchedulingService.start` run them on a wall-clock interval.
"""

from __future__ import annotations

import asyncio
import enum
import time
from dataclasses import dataclass
from typing import Callable

from repro.core.base import Scheduler
from repro.core.distributed import (
    FiberRow,
    SlotRequest,
    schedule_tick,
    validate_slot_request,
)
from repro.core.policies import FixedPriorityPolicy, GrantPolicy
from repro.errors import (
    DurabilityError,
    InvalidParameterError,
    ShardDownError,
    SimulationError,
)
from repro.faults import (
    ChannelOutage,
    ConverterDegradation,
    FaultInjector,
    FaultPlan,
    as_injector,
)
from repro.graphs.conversion import ConversionScheme
from repro.service.breaker import BreakerConfig, CircuitBreaker
from repro.service.edge import PendingRequest, SubmissionEdge
from repro.service.durability import (
    DurabilityConfig,
    DurabilityManager,
    RecoveredShardState,
)
from repro.service.journal import (
    FAULT_CRASH,
    FAULT_OUTAGE,
    request_tuple,
)
from repro.service.queue import BoundedQueue, OverflowPolicy, TenantAdmission
from repro.service.ratelimit import RateLimitConfig, TokenBucketLimiter
from repro.service.shard import ShardWorker
from repro.service.supervisor import ShardSupervisor, SupervisorConfig
from repro.service.telemetry import Telemetry, exponential_buckets
from repro.service.tickloop import InputAdmission
from repro.util.validation import check_positive_int

__all__ = [
    "RejectReason",
    "ServiceGrant",
    "Rejected",
    "SchedulingService",
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
    #: Deadline passed before a tick could schedule it.
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


#: Back-compat alias: the envelope moved to :mod:`repro.service.edge`.
_Pending = PendingRequest


#: Tick-duration buckets: 10 µs … ~40 s.
_TICK_BUCKETS = exponential_buckets(10e-6, 2.0, 22)
#: Occupancy buckets: 1 … 2^19 busy channels.
_OCCUPANCY_BUCKETS = exponential_buckets(1.0, 2.0, 20)


class SchedulingService:
    """Sharded online scheduling service for an ``N × N`` interconnect.

    Parameters
    ----------
    n_fibers, scheme:
        Interconnect dimensions (``N`` shards, ``k`` wavelengths each).
    scheduler:
        Per-output contention-resolution algorithm, shared by all shards
        (every in-tree scheduler is stateless).  Pass ``scheduler_factory``
        instead to give each shard its own instance.  Shards whose
        scheduler offers a batch kernel for ``scheme``
        (:meth:`~repro.core.base.Scheduler.batch_kernel`: FA on
        non-circular, BFA on limited-range circular) are scheduled together
        in one kernel call per tick; the rest fiber by fiber.
    policy:
        Grant policy among same-wavelength contenders (default:
        deterministic :class:`FixedPriorityPolicy`).
    queue_capacity, overflow, admission:
        Per-shard bounded-queue settings (``None`` = unbounded).
        ``admission`` is the per-tenant weight contract consulted by the
        ``SHED`` overflow policy (ignored otherwise; defaults to
        equal-weight tenants).
    tick_interval:
        Sleep between tick bursts in :meth:`start`'s timer loop, seconds.
    max_batch_per_tick:
        Cap on requests drained per shard per tick (``None`` = all).
    tick_window:
        Ticks :meth:`tick_burst` (and so :meth:`start`'s timer loop) may
        run back to back per event-loop iteration: the first tick always
        runs, and the burst continues — up to ``tick_window`` ticks —
        only while shard queues are non-empty, amortizing per-iteration
        overhead exactly when the service is behind.  Within a burst,
        idle shards' ``ADVANCE`` journal records are deferred and
        coalesced into one batched record
        (:meth:`~repro.service.journal.ShardJournal.defer_advance`);
        any non-idle event on a shard flushes its run first, so grant
        ordering and recovery are unchanged.  Default 1 — every tick is
        its own iteration, the pre-window behavior.
    telemetry:
        Optional shared :class:`Telemetry` registry (default: private).
    faults:
        Optional :class:`~repro.faults.FaultPlan` / shared injector.
        Channel outages darken shard channels, converter degradations
        narrow the affected inputs' schemes, and shard crashes kill the
        owning worker at the scheduled tick (the supervisor restarts it;
        see ``docs/ROBUSTNESS.md``).  Requests from degraded inputs are
        scheduled fiber by fiber on the narrowed schemes.
    breaker:
        Optional :class:`~repro.service.breaker.BreakerConfig`; when given,
        every shard gets a circuit breaker and submissions to a tripped
        shard fast-fail as ``CIRCUIT_OPEN``.
    supervisor:
        :class:`~repro.service.supervisor.SupervisorConfig` tuning for
        crash detection/restart (a supervisor always runs; this only
        changes its timing).
    durability:
        ``True`` (default) — per-shard write-ahead journal + periodic
        snapshots with the default in-memory backend, exact
        snapshot+journal recovery on restart, and a bounded request-id
        dedup table for exactly-once grants.  Pass a
        :class:`~repro.service.durability.DurabilityConfig` to tune
        (snapshot cadence, file backend, fsync, dedup capacity) or
        ``False``/``None`` to disable, which falls back to the PR 4 aged
        checkpoints.  See ``docs/ROBUSTNESS.md``, "Durability & recovery".
    rate_limit:
        Optional :class:`~repro.service.ratelimit.RateLimitConfig`; when
        given, every submission spends a token from its tenant's bucket
        and an empty bucket resolves the request ``RATE_LIMITED`` at the
        edge (never queued).  Buckets refill at each tick, so limiting is
        deterministic — no clocks (``docs/SERVICE.md``).
    """

    def __init__(
        self,
        n_fibers: int,
        scheme: ConversionScheme,
        scheduler: Scheduler | None = None,
        *,
        scheduler_factory: Callable[[], Scheduler] | None = None,
        policy: GrantPolicy | None = None,
        queue_capacity: int | None = None,
        overflow: OverflowPolicy = OverflowPolicy.REJECT,
        admission: TenantAdmission | None = None,
        tick_interval: float = 0.001,
        max_batch_per_tick: int | None = None,
        tick_window: int = 1,
        telemetry: Telemetry | None = None,
        faults: "FaultInjector | FaultPlan | None" = None,
        breaker: BreakerConfig | None = None,
        supervisor: SupervisorConfig | None = None,
        durability: "DurabilityConfig | bool | None" = True,
        rate_limit: "RateLimitConfig | None" = None,
    ) -> None:
        self.n_fibers = check_positive_int(n_fibers, "n_fibers")
        self.scheme = scheme
        if (scheduler is None) == (scheduler_factory is None):
            raise InvalidParameterError(
                "pass exactly one of scheduler= or scheduler_factory="
            )
        self.policy = policy if policy is not None else FixedPriorityPolicy()
        if tick_interval < 0:
            raise InvalidParameterError(
                f"tick_interval must be >= 0, got {tick_interval}"
            )
        if max_batch_per_tick is not None:
            check_positive_int(max_batch_per_tick, "max_batch_per_tick")
        self.tick_interval = float(tick_interval)
        self.max_batch_per_tick = max_batch_per_tick
        self.tick_window = check_positive_int(tick_window, "tick_window")
        # True while tick_burst() has a window open: idle-shard ADVANCEs
        # are deferred for coalescing instead of journaled per tick.
        self._window_open = False
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._faults = as_injector(faults, self.n_fibers, scheme.k)

        # Kept for shard restarts: a replacement worker gets a fresh
        # scheduler from the factory (or the shared stateless one).
        self._scheduler = scheduler
        self._scheduler_factory = scheduler_factory
        self.supervisor = ShardSupervisor(supervisor, self.telemetry)
        self.shards: list[ShardWorker] = []
        for o in range(self.n_fibers):
            shard_scheduler = (
                scheduler_factory() if scheduler_factory is not None else scheduler
            )
            assert shard_scheduler is not None
            self.shards.append(
                ShardWorker(
                    o,
                    scheme,
                    shard_scheduler,
                    self.policy,
                    BoundedQueue(queue_capacity, overflow, admission),
                    self.telemetry,
                )
            )
        self.breakers: list[CircuitBreaker] | None = (
            [
                CircuitBreaker(breaker, self.telemetry, shard=o)
                for o in range(self.n_fibers)
            ]
            if breaker is not None
            else None
        )
        # Input-side busy state (blocked-at-source admission): remaining
        # slots each input channel is held by a granted connection.  The
        # state machine is shared with the multi-process parent (see
        # repro/service/tickloop.py).
        self._admission = InputAdmission(self.n_fibers, scheme.k)
        self._in_busy = self._admission.in_busy
        self._slot = 0
        self._timer_task: asyncio.Task[None] | None = None
        self._closed = False

        if durability is True:
            durability = DurabilityConfig()
        elif durability is False:
            durability = None
        if durability is not None and not isinstance(durability, DurabilityConfig):
            raise InvalidParameterError(
                "durability must be a DurabilityConfig, True, False, or "
                f"None, got {durability!r}"
            )
        self.durability: DurabilityManager | None = (
            DurabilityManager(
                durability, self.n_fibers, scheme.k, self.telemetry
            )
            if durability is not None
            else None
        )
        self.rate_limiter: TokenBucketLimiter | None = (
            TokenBucketLimiter(rate_limit, self.telemetry)
            if rate_limit is not None
            else None
        )
        # The transport edge: futures, dedup, per-reason counters (shared
        # implementation with the TCP/multi-process front doors).
        self.edge = SubmissionEdge(
            self.telemetry,
            dedup_capacity=(
                durability.dedup_capacity if durability is not None else 0
            ),
        )

        t = self.telemetry
        self._c_submitted = self.edge.c_submitted
        self._c_granted = self.edge.c_granted
        self._c_shard_crashes = t.counter("server.shard_crashes")
        self._c_fault_outages = t.counter("faults.outages")
        self._c_fault_degradations = t.counter("faults.degradations")
        self._c_fault_crashes = t.counter("faults.crashes")
        self._g_dark = t.gauge("faults.dark_channels")
        self._c_ticks = t.counter("server.ticks")
        self._h_latency = t.histogram("server.grant_latency_seconds")
        self._h_tick = t.histogram("server.tick_seconds", _TICK_BUCKETS)
        self._h_occupancy = t.histogram("server.occupancy_channels", _OCCUPANCY_BUCKETS)
        self._g_slot = t.gauge("server.slot")
        self._g_depth = t.gauge("server.queue_depth_total")

    # -- submission ---------------------------------------------------------

    @property
    def slot(self) -> int:
        """Index of the next slot tick."""
        return self._slot

    @property
    def queue_depth_total(self) -> int:
        return sum(s.queue.depth for s in self.shards)

    def submit_nowait(
        self,
        request: SlotRequest,
        timeout: float | None = None,
        *,
        timeout_ticks: int | None = None,
        request_id: str | None = None,
    ) -> "asyncio.Future[ServiceGrant | Rejected]":
        """Enqueue ``request`` and return the future of its outcome.

        Must be called from the event loop.  ``timeout`` (seconds) is a
        deadline checked at tick time — a request that no tick has drained
        before the deadline resolves as ``TIMED_OUT``.  ``timeout_ticks``
        is the deterministic flavor: the request expires when a tick
        drains it at ``slot >= submit slot + timeout_ticks`` (so ``0``
        expires at the very next drain).  The two may be combined;
        whichever trips first wins.  Malformed requests
        raise :class:`InvalidParameterError` immediately; overflow of a
        bounded queue resolves the future per the shard's overflow policy.

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
        if timeout is not None and timeout < 0:
            raise InvalidParameterError(f"timeout must be >= 0, got {timeout}")
        if timeout_ticks is not None and timeout_ticks < 0:
            raise InvalidParameterError(
                f"timeout_ticks must be >= 0, got {timeout_ticks}"
            )
        loop = asyncio.get_running_loop()
        future: asyncio.Future[ServiceGrant | Rejected] = loop.create_future()
        deadline = None if timeout is None else loop.time() + timeout
        deadline_slot = (
            None if timeout_ticks is None else self._slot + timeout_ticks
        )
        if request_id is not None:
            request_id = self.edge.check_duplicate(
                request, request_id, future, self._slot
            )
            if future.done():
                return future
        pending = _Pending(
            request,
            future,
            deadline,
            time.perf_counter(),
            request_id,
            deadline_slot,
        )
        self.edge.note_submitted(request)
        if self.rate_limiter is not None and not self.rate_limiter.allow(
            request.tenant
        ):
            self._resolve_rejected(pending, RejectReason.RATE_LIMITED)
            return future
        shard = self.shards[request.output_fiber]
        breaker = (
            self.breakers[request.output_fiber]
            if self.breakers is not None
            else None
        )
        # Fault fast-paths, checked before the request touches the shard:
        # an open breaker short-circuits for free (not a shard failure —
        # the shard never saw the request); a down shard is a failure the
        # breaker counts, which is what eventually trips it.
        if breaker is not None and not breaker.allow(self._slot):
            self._resolve_rejected(pending, RejectReason.CIRCUIT_OPEN)
            return future
        if shard.down:
            if breaker is not None:
                breaker.record_failure(self._slot)
            self._resolve_rejected(pending, RejectReason.SHARD_DOWN)
            return future
        shard.offered.inc()
        shed = shard.queue.policy is OverflowPolicy.SHED
        if self.durability is not None:
            # Write-ahead: journal the queue effect before applying it.
            journal = self.durability.journal(request.output_fiber)
            if shed:
                decision = shard.queue.plan_admit(pending)
                if decision.evict_index is not None:
                    journal.evict(self._slot, decision.evict_index)
                if decision.accepted:
                    journal.accept(self._slot, request)
            else:
                will_accept, will_evict = shard.queue.plan_offer()
                if will_evict:
                    journal.dequeue(self._slot, 1)
                if will_accept:
                    journal.accept(self._slot, request)
        offer = shard.queue.offer(pending)
        if offer.evicted is not None:
            # DROP_OLDEST: the head made room; SHED: the least-deserving
            # request made room.  Either way the victim is lost.
            self._resolve_rejected(
                offer.evicted,
                RejectReason.ADMISSION_SHED if shed else RejectReason.DROPPED,
            )
        if not offer.accepted:
            if shed:
                reason = RejectReason.ADMISSION_SHED
            elif shard.queue.policy is OverflowPolicy.REJECT:
                reason = RejectReason.QUEUE_FULL
            else:
                reason = RejectReason.DROPPED
            self._resolve_rejected(pending, reason)
        shard.update_depth_gauge()
        return future

    async def submit(
        self, request: SlotRequest, timeout: float | None = None
    ) -> ServiceGrant | Rejected:
        """Enqueue ``request`` and await its grant/rejection."""
        return await self.submit_nowait(request, timeout)

    # -- resolution helpers (delegated to the shared edge) -------------------

    def _resolve(self, pending: _Pending, outcome: ServiceGrant | Rejected) -> None:
        self.edge.resolve(pending, outcome)

    def _resolve_rejected(
        self, pending: _Pending, reason: RejectReason, slot: int | None = None
    ) -> None:
        self.edge.resolve_rejected(pending, reason, slot)

    # -- crash / restart ----------------------------------------------------

    def _crash_shard(
        self, shard: ShardWorker, slot: int, cause: BaseException | None
    ) -> None:
        """A shard died (injected or organic): record it, trip its breaker,
        fail its queued requests fast with ``SHARD_DOWN``."""
        if not shard.down:
            shard.crash(cause)
        o = shard.output_fiber
        self.supervisor.record_crash(o, slot)
        self._c_shard_crashes.inc()
        if self.breakers is not None:
            self.breakers[o].force_open(slot)
        if self.durability is not None:
            journal = self.durability.journal(o)
            journal.fault(slot, FAULT_CRASH)
            if shard.queue.depth:
                journal.dequeue(slot, shard.queue.depth)
        for p in shard.queue.drain():
            self._resolve_rejected(p, RejectReason.SHARD_DOWN, slot)
        shard.update_depth_gauge()

    def _spawn_worker(self, output_fiber: int, queue: BoundedQueue) -> ShardWorker:
        shard_scheduler = (
            self._scheduler_factory()
            if self._scheduler_factory is not None
            else self._scheduler
        )
        assert shard_scheduler is not None
        return ShardWorker(
            output_fiber,
            self.scheme,
            shard_scheduler,
            self.policy,
            queue,
            self.telemetry,
        )

    def _restart_shard(self, output_fiber: int, slot: int) -> None:
        """Spawn a replacement worker (the queue object survives the worker
        — it lives in the server, like a socket outliving the process
        behind it), restored from snapshot+journal replay when durability
        is on, else from the supervisor's aged checkpoint."""
        old = self.shards[output_fiber]
        worker = self._spawn_worker(output_fiber, old.queue)
        if self.durability is not None:
            state = self._recovered_state(output_fiber, old)
            worker.restore(list(state.busy))
            source = state.source
        else:
            worker.restore(
                self.supervisor.restore_busy(output_fiber, slot, self.scheme.k)
            )
            source = "checkpoint"
        self.shards[output_fiber] = worker
        self.supervisor.mark_restarted(output_fiber, source=source)

    def _recovered_state(
        self, output_fiber: int, old: ShardWorker
    ) -> RecoveredShardState:
        """Run durable recovery and cross-check it against the surviving
        live queue — a disagreement is a crash-consistency defect, not a
        degraded mode, so it raises."""
        assert self.durability is not None
        state = self.durability.recover(output_fiber)
        live = tuple(request_tuple(p.request) for p in old.queue)
        if live != state.queue:
            raise DurabilityError(
                f"shard {output_fiber}: journal-recovered queue "
                f"{state.queue} disagrees with the live queue {live}"
            )
        return state

    def recover_shard(self, output_fiber: int) -> RecoveredShardState:
        """Immediately rebuild one shard from durable state.

        Loads the latest valid snapshot, deterministically replays the
        journal suffix, installs a fresh worker with the rebuilt ``busy[]``
        over the surviving queue, and returns what was recovered.  This is
        the recovery path the kill-at-every-tick equivalence test drives
        directly (the supervisor's delayed ``_restart_shard`` uses the
        same replay); call it at a tick boundary.
        """
        if self.durability is None:
            raise InvalidParameterError(
                "recover_shard needs the service built with durability on"
            )
        old = self.shards[output_fiber]
        state = self._recovered_state(output_fiber, old)
        worker = self._spawn_worker(output_fiber, old.queue)
        worker.restore(list(state.busy))
        self.shards[output_fiber] = worker
        self.supervisor.mark_restarted(output_fiber, source=state.source)
        return state

    def _apply_faults(self, slot: int) -> "dict[int, tuple[int, int]] | None":
        """Step 0 of a tick: heal due restarts, then apply this slot's
        injected faults.  Returns the active converter degradations."""
        for o in self.supervisor.due_for_restart(slot):
            self._restart_shard(o, slot)
        if self._faults is None:
            return None
        for ev in self._faults.starting_at(slot):
            if isinstance(ev, ChannelOutage):
                self._c_fault_outages.inc()
                if self.durability is not None:
                    # Audit-only record (no replay effect): the fault plan
                    # is re-derivable from its seed, but the journal should
                    # tell the whole story of what hit this shard.
                    self.durability.journal(ev.fiber).fault(
                        slot, FAULT_OUTAGE, ev.wavelength, ev.duration
                    )
            elif isinstance(ev, ConverterDegradation):
                self._c_fault_degradations.inc()
            else:
                self._c_fault_crashes.inc()
        for ev in self._faults.crashes_at(slot):
            self._crash_shard(self.shards[ev.fiber], slot, None)
        mask = self._faults.dark_mask(slot)
        any_dark = bool(mask.any())
        self._g_dark.set(int(mask.sum()))
        for shard in self.shards:
            shard.set_dark(mask[shard.output_fiber] if any_dark else None)
        return self._faults.degradations_at(slot) or None

    # -- one slot tick ------------------------------------------------------

    async def tick(self) -> int:
        """Run one slot tick; returns the number of grants issued."""
        if self._closed:
            raise SimulationError("service is stopped")
        t0 = time.perf_counter()
        loop = asyncio.get_running_loop()
        now = loop.time()
        slot = self._slot

        # 0: supervision heal + injected faults for this slot.
        degradations = self._apply_faults(slot)

        # 1 + 2: drain queues and run admission, shards in fiber order
        # (the admission state machine is shared with the multi-process
        # parent — see repro/service/tickloop.py).
        work: list[tuple[ShardWorker, list[_Pending]]] = []
        seen_inputs = self._admission.begin_tick()
        for shard in self.shards:
            if self.durability is not None:
                depth = shard.queue.depth
                n_drain = (
                    depth
                    if self.max_batch_per_tick is None
                    else min(depth, self.max_batch_per_tick)
                )
                if n_drain:
                    self.durability.journal(shard.output_fiber).dequeue(
                        slot, n_drain
                    )
            drained = shard.queue.drain(self.max_batch_per_tick)
            shard.update_depth_gauge()
            survivors, expired, blocked = self._admission.admit(
                drained, now, seen_inputs, slot
            )
            for p in expired:
                self._resolve_rejected(p, RejectReason.TIMED_OUT, slot)
                if self.breakers is not None:
                    # A timed-out request is a shard that was too slow —
                    # the breaker counts it against the shard's health.
                    self.breakers[shard.output_fiber].record_failure(slot)
            for p in blocked:
                self._resolve_rejected(p, RejectReason.SOURCE_BLOCKED, slot)
            if survivors:
                work.append((shard, survivors))

        # 3: schedule every shard's survivors with one batch-kernel call
        # (repro/core/distributed.py: schedule_tick; rows it cannot batch
        # go through ShardWorker.schedule).  A shard that fails — its
        # kernel row fails the feasibility check, or its scheduler raises —
        # comes back as its ShardDownError (original defect on the chain):
        # a crashed shard, isolated so the other shards' grants still
        # commit this tick.
        outcomes = schedule_tick(
            self.scheme,
            self.policy,
            [
                FiberRow(
                    shard.output_fiber,
                    [p.request for p in pendings],
                    shard.availability(),
                    shard.scheduler,
                )
                for shard, pendings in work
            ],
            degradations,
            lambda row: self.shards[row.output_fiber].schedule(
                row.requests, degradations
            )[1:],
        )
        # 4: commit grants, resolve futures.
        n_granted = 0
        for (shard, pendings), outcome in zip(work, outcomes):
            if isinstance(outcome, ShardDownError):
                # The shard died mid-tick; its drained survivors fail fast.
                self._crash_shard(shard, slot, outcome)
                for p in pendings:
                    self._resolve_rejected(p, RejectReason.SHARD_DOWN, slot)
                    if self.breakers is not None:
                        self.breakers[shard.output_fiber].record_failure(slot)
                continue
            granted, rejected = outcome
            if self.durability is not None and granted:
                # Write-ahead: journal the tick's grants (one batched
                # record) before committing any of them.
                self.durability.journal(shard.output_fiber).grant_batch(
                    slot,
                    (
                        (
                            g.request.input_fiber,
                            g.request.wavelength,
                            g.channel,
                            g.request.duration,
                        )
                        for g in granted
                    ),
                )
            shard.commit(granted)
            shard.record_rejected(len(rejected))
            by_input = {
                (p.request.input_fiber, p.request.wavelength): p for p in pendings
            }
            breaker = (
                self.breakers[shard.output_fiber]
                if self.breakers is not None
                else None
            )
            for g in granted:
                r = g.request
                self._admission.hold(r)
                p = by_input[(r.input_fiber, r.wavelength)]
                self.edge.note_granted(r)
                self._h_latency.observe(time.perf_counter() - p.submitted_at)
                self._resolve(p, ServiceGrant(r, g.channel, slot))
                if breaker is not None:
                    breaker.record_success(slot)
                n_granted += 1
            for r in rejected:
                self._resolve_rejected(
                    by_input[(r.input_fiber, r.wavelength)],
                    RejectReason.CONTENTION,
                    slot,
                )
                if breaker is not None:
                    # Losing contention is a *healthy* outcome — the shard
                    # answered; it counts toward closing, not opening.
                    breaker.record_success(slot)

        # 5: advance clocks and record tick telemetry.
        self._h_occupancy.observe(sum(s.occupancy for s in self.shards))
        for shard in self.shards:
            if self.durability is not None:
                # The connections busy[] tracks live in the interconnect,
                # so the physical clock advances for down shards too —
                # this is what makes recovery pure replay with no aging.
                journal = self.durability.journal(shard.output_fiber)
                if self._window_open:
                    journal.defer_advance(slot)
                else:
                    journal.advance(slot)
            if not shard.down:
                shard.advance()
                if self.durability is None:
                    self.supervisor.note_checkpoint(
                        shard.output_fiber, slot + 1, shard.busy_snapshot()
                    )
        if self.durability is not None and self.durability.due_snapshot(
            slot + 1
        ):
            policy_state = self.policy.export_state()
            for shard in self.shards:
                if shard.down:
                    continue
                self.durability.take_snapshot(
                    shard.output_fiber,
                    slot + 1,
                    shard.busy_snapshot(),
                    (request_tuple(p.request) for p in shard.queue),
                    policy_state,
                )
        self._admission.decay()
        if self.rate_limiter is not None:
            self.rate_limiter.advance()
        self._slot += 1
        self._c_ticks.inc()
        self._g_slot.set(self._slot)
        self._g_depth.set(self.queue_depth_total)
        self._h_tick.observe(time.perf_counter() - t0)
        return n_granted

    # -- run modes ----------------------------------------------------------

    async def run_ticks(self, n: int) -> int:
        """Run ``n`` back-to-back ticks (no sleeping); returns total grants."""
        check_positive_int(n, "n")
        return sum([await self.tick() for _ in range(n)])

    async def tick_burst(self) -> int:
        """Run one burst of up to ``tick_window`` ticks; returns grants.

        The first tick always runs; the burst continues only while shard
        queues hold work, so an idle service still ticks exactly once per
        timer iteration and a backlogged one catches up ``tick_window``
        slots at a time.  While the window is open, idle shards'
        ``ADVANCE`` records are deferred; the burst ends by flushing every
        shard's run, so the journals are always fully written between
        bursts (a crash *inside* a burst loses at most the open window's
        pure clock advances — see
        :meth:`~repro.service.journal.ShardJournal.defer_advance`).
        """
        self._window_open = self.tick_window > 1
        try:
            granted = await self.tick()
            ticks = 1
            while ticks < self.tick_window and self.queue_depth_total > 0:
                granted += await self.tick()
                ticks += 1
        finally:
            self._window_open = False
            if self.durability is not None:
                for shard in self.shards:
                    self.durability.journal(shard.output_fiber).flush_deferred()
        return granted

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
        """Run tick bursts on a background task every ``tick_interval``
        seconds (each burst is up to ``tick_window`` ticks; see
        :meth:`tick_burst`)."""
        if self._timer_task is not None:
            raise SimulationError("service already started")
        if self._closed:
            raise SimulationError("service is stopped")
        self._timer_task = asyncio.get_running_loop().create_task(
            self._timer_loop(), name="repro-service-ticks"
        )

    async def _timer_loop(self) -> None:
        while True:
            await self.tick_burst()
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
            for shard in self.shards:
                if self.durability is not None and shard.queue.depth:
                    self.durability.journal(shard.output_fiber).dequeue(
                        self._slot, shard.queue.depth
                    )
                for p in shard.queue.drain():
                    self._resolve_rejected(p, RejectReason.SHUTDOWN)
                shard.update_depth_gauge()
            if self.durability is not None:
                self.durability.close()
