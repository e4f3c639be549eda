"""The in-process scheduling service: every shard on the event loop.

:class:`SchedulingService` turns the paper's per-slot batch schedulers into
a long-running online service.  Callers submit
:class:`~repro.core.distributed.SlotRequest`\\ s at any time; the server
batches everything enqueued since the last tick into one *slot tick* —
the service-side analogue of the simulator's synchronous time slot — and
resolves each request's future with a :class:`ServiceGrant` or
:class:`Rejected`.

Submission, queues, admission, resolution and the run modes are the
shared service front (:class:`~repro.service.tickloop.ServiceFront`); the
multi-process :class:`~repro.net.procservice.ProcessShardedService` runs
the same front over worker processes.  One tick does, in order (mirroring
``SlottedSimulator.step`` exactly, which is what the equivalence test
relies on):

0. **Supervise**: restart shards whose restart is due, apply this slot's
   injected faults (this module).
1. **Drain** each shard's bounded queue (FIFO, optionally capped per tick;
   the front).
2. **Admission**: expire requests past their slot deadline
   (``TIMED_OUT``) and requests whose input channel is still held by an
   earlier multi-slot grant or by an earlier request in this same tick
   (``SOURCE_BLOCKED`` — the input laser cannot transmit two signals; the
   front).
3. **Schedule and commit**: run the shard tick
   (:func:`~repro.service.shard.tick_shards`, the same function each
   worker process of the multi-process service runs) inline on the event
   loop: one batch-kernel call for all output fibers (rows the kernel
   cannot express — degraded inputs, mixed priority classes, schedulers
   without a kernel — go through :meth:`ShardWorker.schedule`), journal
   the grants and hold the granted output channels; a shard whose
   scheduling crashed is taken down (this module).
4. **Resolve** futures, count breaker outcomes, record telemetry (the
   front).
5. **Advance** every shard's channel clock — each shard snapshots itself
   when one is due (:meth:`ShardWorker.advance`; this module) — and the
   input-side busy state (the front).

Drive ticks yourself (:meth:`SchedulingService.tick`,
:meth:`~SchedulingService.run_ticks` — deterministic, used by tests) or let
:meth:`~SchedulingService.start` run them on a wall-clock interval.
"""

from __future__ import annotations

from repro.core.base import Scheduler
from repro.core.policies import GrantPolicy
from repro.errors import DurabilityError, InvalidParameterError, ShardDownError
from repro.faults import (
    ChannelOutage,
    ConverterDegradation,
    FaultInjector,
    FaultPlan,
    as_injector,
)
from repro.graphs.conversion import ConversionScheme
from repro.service.breaker import BreakerConfig
from repro.service.durability import (
    DurabilityConfig,
    DurabilityManager,
    RecoveredShardState,
)
from repro.service.edge import (
    PendingRequest,
    Rejected,
    RejectReason,
    ServiceGrant,
)
from repro.service.journal import FAULT_CRASH, FAULT_OUTAGE, request_tuple
from repro.service.queue import OverflowPolicy, TenantAdmission
from repro.service.ratelimit import RateLimitConfig
from repro.service.shard import ShardWorker, tick_shards
from repro.service.supervisor import ShardSupervisor, SupervisorConfig
from repro.service.telemetry import Telemetry, exponential_buckets
from repro.service.tickloop import ServiceFront, ShardOutcome
from repro.util.validation import check_positive_int

__all__ = [
    "RejectReason",
    "ServiceGrant",
    "Rejected",
    "SchedulingService",
]


#: Occupancy buckets: 1 … 2^19 busy channels.
_OCCUPANCY_BUCKETS = exponential_buckets(1.0, 2.0, 20)


class SchedulingService(ServiceFront):
    """Sharded online scheduling service for an ``N × N`` interconnect.

    Parameters
    ----------
    n_fibers, scheme:
        Interconnect dimensions (``N`` shards, ``k`` wavelengths each).
    scheduler:
        Per-output contention-resolution algorithm, shared by all shards
        (every in-tree scheduler is stateless).  Shards whose
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
        Sleep between tick bursts in :meth:`start`'s timer loop, seconds
        (each burst is up to ``tick_window`` ticks; see :meth:`tick_burst`).
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
        if scheduler is None:
            raise InvalidParameterError("scheduler= is required")
        if durability is True:
            durability = DurabilityConfig()
        elif durability is False:
            durability = None
        if durability is not None and not isinstance(durability, DurabilityConfig):
            raise InvalidParameterError(
                "durability must be a DurabilityConfig, True, False, or "
                f"None, got {durability!r}"
            )
        super().__init__(
            n_fibers,
            scheme,
            policy,
            queue_capacity=queue_capacity,
            overflow=overflow,
            admission=admission,
            tick_interval=tick_interval,
            max_batch_per_tick=max_batch_per_tick,
            telemetry=telemetry,
            breaker=breaker,
            rate_limit=rate_limit,
            dedup_capacity=(
                durability.dedup_capacity if durability is not None else 0
            ),
        )
        self.tick_window = check_positive_int(tick_window, "tick_window")
        # True while tick_burst() has a window open: idle-shard ADVANCEs
        # are deferred for coalescing instead of journaled per tick.
        self._window_open = False
        self._faults = as_injector(faults, self.n_fibers, scheme.k)
        # Kept for shard restarts: every in-tree scheduler is stateless,
        # so a replacement worker shares it.
        self._scheduler = scheduler
        self.supervisor = ShardSupervisor(supervisor, self.telemetry)
        if durability is not None:
            self.durability = DurabilityManager(
                durability, self.n_fibers, scheme.k, self.telemetry
            )
        self.shards = [self._spawn_worker(o) for o in range(self.n_fibers)]

        t = self.telemetry
        self._c_fault_outages = t.counter("faults.outages")
        self._c_fault_degradations = t.counter("faults.degradations")
        self._c_fault_crashes = t.counter("faults.crashes")
        self._g_dark = t.gauge("faults.dark_channels")
        self._h_occupancy = t.histogram("server.occupancy_channels", _OCCUPANCY_BUCKETS)

    # -- crash / restart ----------------------------------------------------

    def _shard_down(self, output_fiber: int) -> bool:
        return self.shards[output_fiber].down

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
            self.durability.journal(o).fault(slot, FAULT_CRASH)
        self._flush_queue(o, RejectReason.SHARD_DOWN, slot)

    def _spawn_worker(self, output_fiber: int) -> ShardWorker:
        worker = ShardWorker(
            output_fiber,
            self.scheme,
            self._scheduler,
            self.policy,
            self.queues[output_fiber],
            self.telemetry,
        )
        worker.next_tick = self._slot
        if self.durability is not None:
            worker.attach(self.durability)
        return worker

    def _restart_shard(self, output_fiber: int, slot: int) -> None:
        """Spawn a replacement worker (the queue object survives the worker
        — it lives in the server, like a socket outliving the process
        behind it), restored from snapshot+journal replay when durability
        is on, else from the supervisor's aged checkpoint."""
        if self.durability is not None:
            self.recover_shard(output_fiber)
            return
        worker = self._spawn_worker(output_fiber)
        worker.restore(
            self.supervisor.restore_busy(output_fiber, slot, self.scheme.k)
        )
        self.shards[output_fiber] = worker
        self.supervisor.mark_restarted(output_fiber, source="checkpoint")

    def recover_shard(self, output_fiber: int) -> RecoveredShardState:
        """Immediately rebuild one shard from durable state.

        Loads the latest valid snapshot, deterministically replays the
        journal suffix, installs a fresh worker with the rebuilt ``busy[]``
        over the surviving queue, and returns what was recovered.  This is
        the recovery path the kill-at-every-tick equivalence test drives
        directly (the supervisor's delayed restart uses the same replay);
        call it at a tick boundary.  The recovered queue is cross-checked
        against the surviving live queue — a disagreement is a
        crash-consistency defect, not a degraded mode, so it raises.
        """
        if self.durability is None:
            raise InvalidParameterError(
                "recover_shard needs the service built with durability on"
            )
        state = self.durability.recover(output_fiber)
        live = tuple(request_tuple(p.request) for p in self.queues[output_fiber])
        if live != state.queue:
            raise DurabilityError(
                f"shard {output_fiber}: journal-recovered queue "
                f"{state.queue} disagrees with the live queue {live}"
            )
        worker = self._spawn_worker(output_fiber)
        worker.restore(list(state.busy))
        self.shards[output_fiber] = worker
        self.supervisor.mark_restarted(output_fiber, source=state.source)
        return state

    # -- the in-process placement's tick steps -------------------------------

    def _before_drain(self, slot: int) -> "dict[int, tuple[int, int]] | None":
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

    async def _run_shards(
        self,
        slot: int,
        work: "list[tuple[int, list[PendingRequest]]]",
        degradations: "dict[int, tuple[int, int]] | None",
    ) -> list[ShardOutcome]:
        """Step 3: the shard tick (:func:`~repro.service.shard.tick_shards`)
        over every shard's survivors.

        A shard that fails — its kernel row fails the feasibility check,
        or its scheduler raises — is crashed (:meth:`_crash_shard`): its
        drained survivors fail fast ``SHARD_DOWN`` while the other shards'
        grants still commit this tick.
        """
        outcomes: list = tick_shards(
            self.scheme,
            self.policy,
            self.shards,
            slot,
            [(o, [p.request for p in pendings]) for o, pendings in work],
            degradations,
        )
        for i, ((o, _pendings), outcome) in enumerate(zip(work, outcomes)):
            if isinstance(outcome, ShardDownError):
                self._crash_shard(self.shards[o], slot, outcome)
                outcomes[i] = RejectReason.SHARD_DOWN
        return outcomes

    def _end_tick(self, slot: int) -> None:
        """Step 5: advance every shard's channel clock (each shard
        snapshots itself when one is due)."""
        self._h_occupancy.observe(sum(s.occupancy for s in self.shards))
        for shard in self.shards:
            shard.advance(slot, defer=self._window_open)
            if self.durability is None and not shard.down:
                self.supervisor.note_checkpoint(
                    shard.output_fiber, slot + 1, shard.busy_snapshot()
                )

    def _close(self) -> None:
        if self.durability is not None:
            self.durability.close()

    # -- run modes ----------------------------------------------------------

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

    async def _timer_tick(self) -> int:
        return await self.tick_burst()
