"""The multi-process scheduling service: shards in worker processes.

:class:`ProcessShardedService` keeps the *same* tick semantics as the
in-process :class:`~repro.service.server.SchedulingService` — same
bounded queues, same submission edge (dedup, counters), same input-side
admission state machine (:mod:`repro.service.tickloop`), same FIFO /
fiber-order discipline — but runs step 3 (per-output scheduling) and
step 5 (channel-clock advance) inside OS worker processes chosen by
consistent-hash placement (:mod:`repro.net.procpool`).  A worker
schedules all the shards it owns with one
:func:`~repro.core.distributed.schedule_tick` call per tick — the same
function the in-process service ticks with.  A shard whose scheduling
crashes (a kernel row that fails the feasibility check, a scheduler that
raises) loses that tick only: its requests resolve ``SHARD_DOWN``,
``server.shard_crashes`` counts it, and its clock lives on in the worker.

Because the per-output decision is a pure function of (scheme,
scheduler, stateless policy, requests, busy[]) — the paper's
decomposition — moving it across a process boundary cannot change any
grant: the slot-by-slot equivalence gate against
:class:`~repro.sim.engine.SlottedSimulator` holds bit-identically, and
``tests/test_net_equivalence.py`` enforces it, kills included.

What the parent keeps in-process: queues (requests not yet drained),
futures, dedup, admission.  What each worker owns: its shards'
``busy[]`` clocks and their write-ahead journals (its own directory).
A killed worker is respawned by the pool, rebuilds ``busy[]`` by journal
replay, and the in-flight tick is re-delivered idempotently — grants a
dead worker had already journaled are replayed from the journal, never
re-scheduled.

Statefulness rule: a policy whose mutable state partitions by output
fiber (``state_partitioned_by_output`` — FixedPriority, RoundRobin,
WeightedFair) runs on per-worker instances and ticks fan out in
parallel.  A policy with *cross-output* state (``RandomPolicy``: one RNG
feeds every output's draws) runs in **stateful mode**: the parent owns
the canonical policy state and threads it through one worker call per
contended shard, in global fiber order — each reply ships the post-draw
state back — so the draw sequence is bit-identical to the in-process
service and the simulator, at the price of serializing the
contended shards' scheduling.  Crash recovery stays exact in both modes
(see the ``finish_tick`` self-healing note in
:func:`repro.net.procpool.worker_main`).

The shard→worker placement is **live**: the migration engine
(:mod:`repro.service.resharding`, surfaced here as
:meth:`ProcessShardedService.migrate_shard` / :meth:`rebalance`) moves
shards between workers at tick boundaries, and
:meth:`~ProcessShardedService.add_worker` /
:meth:`~ProcessShardedService.remove_worker` grow and shrink the worker
set under the :class:`~repro.service.autoscaler.Autoscaler`.
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import TYPE_CHECKING

from repro.core.distributed import SlotRequest, validate_slot_request
from repro.core.policies import FixedPriorityPolicy, GrantPolicy
from repro.errors import (
    InvalidParameterError,
    SimulationError,
    WorkerProcessError,
)
from repro.net.procpool import ProcessShardPool
from repro.service.breaker import BreakerConfig, CircuitBreaker
from repro.service.edge import PendingRequest, SubmissionEdge
from repro.service.journal import request_tuple
from repro.service.queue import BoundedQueue, OverflowPolicy, TenantAdmission
from repro.service.ratelimit import RateLimitConfig, TokenBucketLimiter
from repro.service.resharding import (
    MigrationReport,
    ShardMigrator,
    ShardMove,
)
from repro.service.server import Rejected, RejectReason, ServiceGrant
from repro.service.telemetry import Telemetry, exponential_buckets
from repro.service.tickloop import InputAdmission
from repro.util.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.base import Scheduler
    from repro.faults.crashpoints import CrashPoints
    from repro.graphs.conversion import ConversionScheme

#: Tick-duration buckets: 10 µs … ~40 s (mirrors the in-process service).
_TICK_BUCKETS = exponential_buckets(10e-6, 2.0, 22)

__all__ = ["ProcessShardedService"]


class ProcessShardedService:
    """Sharded scheduling service with multi-process shard placement.

    The submission/tick surface mirrors
    :class:`~repro.service.server.SchedulingService` (``submit_nowait`` /
    ``submit`` / ``tick`` / ``run_ticks`` / ``drain`` / ``stop``), so the
    TCP front door (:class:`repro.net.server.NetServer`) serves either
    backend unchanged.
    """

    def __init__(
        self,
        n_fibers: int,
        scheme: "ConversionScheme",
        scheduler: "Scheduler",
        *,
        policy: GrantPolicy | None = None,
        n_workers: int = 2,
        journal_dir: str | os.PathLike | None = None,
        queue_capacity: int | None = None,
        overflow: OverflowPolicy = OverflowPolicy.REJECT,
        admission: "TenantAdmission | None" = None,
        max_batch_per_tick: int | None = None,
        tick_interval: float = 0.001,
        dedup_capacity: int = 0,
        rate_limit: "RateLimitConfig | None" = None,
        breaker: BreakerConfig | None = None,
        telemetry: Telemetry | None = None,
        unresponsive_timeout: float = 30.0,
    ) -> None:
        self.n_fibers = check_positive_int(n_fibers, "n_fibers")
        self.scheme = scheme
        self.policy = policy if policy is not None else FixedPriorityPolicy()
        # Cross-output policy state (RandomPolicy) → stateful mode: the
        # parent owns the canonical state and threads it through one
        # worker call per contended shard in fiber order (see module
        # docstring); partitioned policies fan out in parallel.
        self._stateful = not self.policy.state_partitioned_by_output
        self._policy_state = (
            self.policy.export_state() if self._stateful else None
        )
        if max_batch_per_tick is not None:
            check_positive_int(max_batch_per_tick, "max_batch_per_tick")
        if tick_interval < 0:
            raise InvalidParameterError(
                f"tick_interval must be >= 0, got {tick_interval}"
            )
        self.max_batch_per_tick = max_batch_per_tick
        self.tick_interval = float(tick_interval)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.edge = SubmissionEdge(self.telemetry, dedup_capacity=dedup_capacity)
        self._admission = InputAdmission(self.n_fibers, scheme.k)
        self.queues = [
            BoundedQueue(queue_capacity, overflow, admission)
            for _ in range(self.n_fibers)
        ]
        self.pool = ProcessShardPool(
            self.n_fibers,
            scheme,
            scheduler,
            self.policy,
            n_workers=n_workers,
            journal_dir=journal_dir,
            unresponsive_timeout=unresponsive_timeout,
            telemetry=self.telemetry,
        )
        # Per-shard breakers fed by connection health: a worker call that
        # exhausts the pool's respawn budget counts a failure against
        # every shard it owns; shards that answer count successes.  An
        # open breaker short-circuits new submissions CIRCUIT_OPEN while
        # queued ones degrade UNAVAILABLE — same three-state machine as
        # the in-process service, driven by the same slot clock.
        self.breakers = (
            [
                CircuitBreaker(breaker, self.telemetry, shard=o)
                for o in range(self.n_fibers)
            ]
            if breaker is not None
            else None
        )
        self._slot = 0
        self._closed = False
        self._timer_task: "asyncio.Task[None] | None" = None
        self.rate_limiter = (
            TokenBucketLimiter(rate_limit, self.telemetry)
            if rate_limit is not None
            else None
        )
        self._migrator = ShardMigrator(self.pool, self.telemetry)
        self._c_ticks = self.telemetry.counter("server.ticks")
        self._c_shard_crashes = self.telemetry.counter("server.shard_crashes")
        self._g_slot = self.telemetry.gauge("server.slot")
        self._g_depth = self.telemetry.gauge("server.queue_depth_total")
        self._h_tick = self.telemetry.histogram(
            "server.tick_seconds", _TICK_BUCKETS
        )

    # -- introspection -------------------------------------------------------

    @property
    def slot(self) -> int:
        return self._slot

    @property
    def n_workers(self) -> int:
        return self.pool.n_workers

    @property
    def placement(self) -> dict[int, int]:
        """shard → worker-process map (consistent-hash, stable)."""
        return dict(self.pool.placement)

    @property
    def queue_depth_total(self) -> int:
        return sum(q.depth for q in self.queues)

    def worker_busy(self, output_fiber: int) -> list[int]:
        """The owning worker process's live ``busy[]`` for one shard
        (crosses the process boundary; tests and debugging)."""
        owner = self.pool.placement[output_fiber]
        return self.pool.call(owner, "busy")[output_fiber]

    # -- submission ----------------------------------------------------------

    def submit_nowait(
        self,
        request: SlotRequest,
        timeout: float | None = None,
        *,
        timeout_ticks: int | None = None,
        request_id: str | None = None,
    ) -> "asyncio.Future[ServiceGrant | Rejected]":
        """Enqueue ``request``; same contract as the in-process service
        (validation, wall-clock and slot deadlines, dedup, overflow
        policy)."""
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
        future: "asyncio.Future[ServiceGrant | Rejected]" = loop.create_future()
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
        pending = PendingRequest(
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
            self.edge.resolve_rejected(
                pending, RejectReason.RATE_LIMITED, self._slot
            )
            return future
        if self.breakers is not None and not self.breakers[
            request.output_fiber
        ].allow(self._slot):
            self.edge.resolve_rejected(pending, RejectReason.CIRCUIT_OPEN)
            return future
        queue = self.queues[request.output_fiber]
        shed = queue.policy is OverflowPolicy.SHED
        offer = queue.offer(pending)
        if offer.evicted is not None:
            self.edge.resolve_rejected(
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
            self.edge.resolve_rejected(pending, reason)
        return future

    async def submit(
        self, request: SlotRequest, timeout: float | None = None
    ) -> "ServiceGrant | Rejected":
        return await self.submit_nowait(request, timeout)

    # -- one slot tick -------------------------------------------------------

    async def tick(self) -> int:
        """Run one slot tick across the worker processes; returns grants."""
        if self._closed:
            raise SimulationError("service is stopped")
        loop = asyncio.get_running_loop()
        now = loop.time()
        slot = self._slot

        # 1 + 2: drain + admission, shards in fiber order (identical code
        # path to the in-process service: repro/service/tickloop.py).
        work: dict[int, list[PendingRequest]] = {}
        seen_inputs = self._admission.begin_tick()
        for o in range(self.n_fibers):
            drained = self.queues[o].drain(self.max_batch_per_tick)
            survivors, expired, blocked = self._admission.admit(
                drained, now, seen_inputs, slot
            )
            for p in expired:
                self.edge.resolve_rejected(p, RejectReason.TIMED_OUT, slot)
            for p in blocked:
                self.edge.resolve_rejected(p, RejectReason.SOURCE_BLOCKED, slot)
            if survivors:
                work[o] = survivors

        # 3: fan out to the worker processes (every *active* worker runs
        # the tick — workers advance their owned shards' channel clocks
        # even with no requests this slot; the physical clock never
        # skips).  Stateful mode serializes contended shards instead.
        # A worker that stays unreachable through the pool's respawn
        # budget (an edge↔worker partition) degrades gracefully: its
        # shards' requests resolve UNAVAILABLE this tick instead of
        # blowing up the whole tick, its breakers count the failure, and
        # the worker's clocks catch up by journaled ADVANCE replay once
        # it heals (see worker_main's missed-slot catch-up).
        # A shard whose scheduling crashed in its worker (a kernel row
        # that failed the feasibility check, a scheduler that raised)
        # comes back as (None, reason): its requests resolve SHARD_DOWN
        # and only that shard loses the tick.
        by_shard: dict[int, tuple[list | None, list | str]] = {}
        unavailable: set[int] = set()
        if self._stateful:
            # One call per contended shard, global fiber order, policy
            # state threaded through the replies (module docstring).  A
            # failed call leaves the canonical pre-draw state in place,
            # so the next reachable shard draws exactly what it would
            # have drawn had the dead shard never been contended.
            for o in sorted(work):
                wire = [request_tuple(p.request) for p in work[o]]
                try:
                    grant_tuples, rejected_pairs, new_state = (
                        await self.pool.call_async(
                            loop,
                            self.pool.placement[o],
                            "run_shard",
                            slot,
                            o,
                            wire,
                            self._policy_state,
                        )
                    )
                except WorkerProcessError:
                    unavailable.add(o)
                    continue
                self._policy_state = new_state
                by_shard[o] = (grant_tuples, rejected_pairs)
            # End of tick: every active worker advances its shards,
            # carrying the tick's grants for crash self-healing.  An
            # unreachable worker misses its advance and catches up later.
            grants_by_worker: dict[int, dict[int, list]] = {
                w: {} for w in self.pool.active_workers()
            }
            for o, (grant_tuples, _rej) in by_shard.items():
                grants_by_worker[self.pool.placement[o]][o] = grant_tuples
            finish_replies = await asyncio.gather(
                *(
                    self.pool.call_async(loop, w, "finish_tick", slot, grants)
                    for w, grants in grants_by_worker.items()
                ),
                return_exceptions=True,
            )
            for reply in finish_replies:
                if isinstance(reply, BaseException) and not isinstance(
                    reply, WorkerProcessError
                ):
                    raise reply
        else:
            payloads: dict[int, list[tuple[int, list[tuple]]]] = {
                w: [] for w in self.pool.active_workers()
            }
            for o, survivors in work.items():
                payloads[self.pool.placement[o]].append(
                    (o, [request_tuple(p.request) for p in survivors])
                )
            calls = list(payloads.items())
            replies = await asyncio.gather(
                *(
                    self.pool.call_async(loop, w, "run_tick", slot, payload)
                    for w, payload in calls
                ),
                return_exceptions=True,
            )
            for (_w, payload), reply in zip(calls, replies):
                if isinstance(reply, WorkerProcessError):
                    unavailable.update(o for o, _wire in payload)
                    continue
                if isinstance(reply, BaseException):
                    raise reply
                for o, grant_tuples, rejected_pairs in reply:
                    by_shard[o] = (grant_tuples, rejected_pairs)

        # 4: commit in fiber order (resolution order matches the
        # in-process service, so counters and futures line up exactly).
        n_granted = 0
        for o in sorted(work):
            survivors = work[o]
            breaker = self.breakers[o] if self.breakers is not None else None
            grant_tuples, rejected_pairs = by_shard.get(o, (None, None))
            if grant_tuples is None:
                if o in unavailable:
                    reason = RejectReason.UNAVAILABLE
                else:
                    reason = RejectReason.SHARD_DOWN
                    self._c_shard_crashes.inc()
                for p in survivors:
                    self.edge.resolve_rejected(p, reason, slot)
                    if breaker is not None:
                        breaker.record_failure(slot)
                continue
            by_input = {
                (p.request.input_fiber, p.request.wavelength): p
                for p in survivors
            }
            for in_f, wl, channel, _dur in grant_tuples:
                p = by_input[(in_f, wl)]
                self._admission.hold(p.request)
                self.edge.note_granted(p.request)
                self.edge.resolve(p, ServiceGrant(p.request, channel, slot))
                if breaker is not None:
                    breaker.record_success(slot)
                n_granted += 1
            for in_f, wl in rejected_pairs:
                self.edge.resolve_rejected(
                    by_input[(in_f, wl)], RejectReason.CONTENTION, slot
                )
                if breaker is not None:
                    # Losing contention is a healthy outcome — the worker
                    # answered; it counts toward closing, not opening.
                    breaker.record_success(slot)

        # 5: advance the input-side clock (workers advanced theirs in 3).
        self._admission.decay()
        if self.rate_limiter is not None:
            self.rate_limiter.advance()
        self._slot += 1
        self._c_ticks.inc()
        self._g_slot.set(self._slot)
        self._g_depth.set(self.queue_depth_total)
        self._h_tick.observe(loop.time() - now)
        return n_granted

    # -- run modes -----------------------------------------------------------

    async def run_ticks(self, n: int) -> int:
        check_positive_int(n, "n")
        return sum([await self.tick() for _ in range(n)])

    async def drain(self, max_ticks: int = 10_000) -> None:
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
            self._timer_loop(), name="repro-procservice-ticks"
        )

    async def _timer_loop(self) -> None:
        while True:
            await self.tick()
            await asyncio.sleep(self.tick_interval)

    # -- live resharding / elasticity ---------------------------------------

    def active_workers(self) -> list[int]:
        """Ascending ids of workers currently accepting shards."""
        return self.pool.active_workers()

    def worker_queue_depth(self, worker_id: int) -> int:
        """Parent-side queued requests bound for ``worker_id``'s shards
        (the autoscaler's hotspot signal — no cross-process call)."""
        return sum(
            self.queues[o].depth for o in self.pool.shards_of(worker_id)
        )

    def migrate_shard(
        self,
        shard: int,
        destination: int,
        *,
        crashpoints: "CrashPoints | None" = None,
    ) -> MigrationReport:
        """Live-migrate one shard to ``destination`` at this tick boundary.

        Call between ticks (never concurrently with :meth:`tick` — the
        quiesce phase of :mod:`repro.service.resharding` is the tick
        boundary itself).  Blocks until the handoff verifies; the
        placement flip is atomic, so the next tick routes the shard to
        its new owner and redelivered grants replay from the transferred
        journal exactly once.
        """
        return self._migrator.migrate(
            shard, destination, crashpoints=crashpoints
        )

    def rebalance(
        self,
        moves: "list[ShardMove] | None" = None,
        *,
        target: dict[int, int] | None = None,
        crashpoints: "CrashPoints | None" = None,
    ) -> list[MigrationReport]:
        """Run many migrations, planned into conflict-free waves.

        Pass explicit ``moves`` or a ``target`` placement (the engine
        diffs it against the live map).  Same tick-boundary contract as
        :meth:`migrate_shard`.
        """
        if (moves is None) == (target is None):
            raise InvalidParameterError(
                "pass exactly one of moves= or target="
            )
        if target is not None:
            moves = self._migrator.moves_to(target)
        return self._migrator.execute(moves, crashpoints=crashpoints)

    def add_worker(self) -> int:
        """Spawn a fresh, empty worker process; returns its id."""
        return self.pool.add_worker()

    def remove_worker(
        self, worker_id: int, *, drain: bool = True
    ) -> list[MigrationReport]:
        """Retire a worker; with ``drain`` (default) its shards are first
        live-migrated to the remaining active workers, least-loaded
        first (deterministic).  Returns the drain's migration reports."""
        reports: list[MigrationReport] = []
        if drain:
            owned = self.pool.shards_of(worker_id)
            others = [
                w for w in self.pool.active_workers() if w != worker_id
            ]
            if owned and not others:
                raise InvalidParameterError(
                    "cannot drain the last active worker"
                )
            load = {w: len(self.pool.shards_of(w)) for w in others}
            moves = []
            for o in owned:
                dest = min(others, key=lambda w: (load[w], w))
                load[dest] += 1
                moves.append(
                    ShardMove(shard=o, source=worker_id, destination=dest)
                )
            reports = self._migrator.execute(moves)
        self.pool.remove_worker(worker_id)
        return reports

    # -- chaos (tests) -------------------------------------------------------

    def kill_worker(self, worker_id: int) -> None:
        """SIGKILL one worker process; the next tick respawns and recovers
        it from its journals (needs ``journal_dir`` for kill durability)."""
        self.pool.kill_worker(worker_id)

    async def stop(self) -> None:
        """Stop ticking, flush queued requests as SHUTDOWN, stop workers."""
        if self._timer_task is not None:
            self._timer_task.cancel()
            try:
                await self._timer_task
            except asyncio.CancelledError:
                pass
            self._timer_task = None
        if not self._closed:
            self._closed = True
            for queue in self.queues:
                for p in queue.drain():
                    self.edge.resolve_rejected(p, RejectReason.SHUTDOWN)
            self.pool.stop()
