"""The multi-process scheduling service: shards in worker processes.

:class:`ProcessShardedService` is the shared service front
(:class:`~repro.service.tickloop.ServiceFront`: the same submission path,
bounded queues, submission edge, admission, outcome resolution and run
modes as the in-process :class:`~repro.service.server.SchedulingService`)
placed over OS worker processes chosen by consistent-hash placement
(:mod:`repro.net.procpool`).  The only step it supplies is step 3: each
worker holds the shards it owns as
:class:`~repro.service.shard.ShardWorker` objects and runs the shard tick
(:func:`~repro.service.shard.tick_shards`) over them — the same shard
class and the same function the in-process service ticks with — then
advances their channel clocks and replies in the outcome format the front
resolves (grant tuples and rejected pairs).  A shard whose scheduling
crashes (a kernel row that fails the feasibility check, a scheduler that
raises) loses that tick only: its requests resolve ``SHARD_DOWN``,
``server.shard_crashes`` counts it, and its clock lives on in the worker.

Because the per-output decision is a pure function of (scheme,
scheduler, the output's policy slice, requests, busy[]) — the paper's
decomposition — moving it across a process boundary cannot change any
grant: the slot-by-slot equivalence gate against
:class:`~repro.sim.engine.SlottedSimulator` holds bit-identically, and
``tests/test_net_equivalence.py`` enforces it, kills included.

What the parent keeps in-process: queues (requests not yet drained),
futures, dedup, admission, and the live grant policy.  What each worker
owns: its shards' ``busy[]`` clocks and their write-ahead journals (its
own directory, snapshotted and compacted like the in-process
journals).  Every policy keeps its state per output fiber, so the
parent sends each contended shard's slice with its ``run_tick`` row and
absorbs the slice the worker hands back; workers hold no policy state
between ticks.  A killed worker is respawned by the pool, rebuilds
``busy[]`` from each shard's latest snapshot plus its journal since, and
the in-flight tick is re-delivered with the same slices — a tick the dead
worker had already completed is run again from the same inputs, so its
grants come out bit-identical.

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
from typing import TYPE_CHECKING

from repro.core.policies import GrantPolicy
from repro.errors import InvalidParameterError, WorkerProcessError
from repro.net.procpool import ProcessShardPool
from repro.service.breaker import BreakerConfig
from repro.service.edge import PendingRequest, RejectReason
from repro.service.journal import request_tuple
from repro.service.queue import OverflowPolicy, TenantAdmission
from repro.service.ratelimit import RateLimitConfig
from repro.service.resharding import (
    MigrationReport,
    ShardMigrator,
    ShardMove,
)
from repro.service.telemetry import Telemetry
from repro.service.tickloop import ServiceFront, ShardOutcome

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.base import Scheduler
    from repro.faults.crashpoints import CrashPoints
    from repro.graphs.conversion import ConversionScheme

__all__ = ["ProcessShardedService"]


class ProcessShardedService(ServiceFront):
    """Sharded scheduling service with multi-process shard placement.

    The submission/tick surface is the shared service front
    (:class:`~repro.service.tickloop.ServiceFront`: ``submit_nowait`` /
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
            dedup_capacity=dedup_capacity,
        )
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
        self._migrator = ShardMigrator(self.pool, self.telemetry)

    # -- introspection -------------------------------------------------------

    @property
    def n_workers(self) -> int:
        return self.pool.n_workers

    @property
    def placement(self) -> dict[int, int]:
        """shard → worker-process map (consistent-hash, stable)."""
        return dict(self.pool.placement)

    def worker_busy(self, output_fiber: int) -> list[int]:
        """The owning worker process's live ``busy[]`` for one shard
        (crosses the process boundary; tests and debugging)."""
        owner = self.pool.placement[output_fiber]
        return self.pool.call(owner, "busy")[output_fiber]

    # -- step 3: the worker fan-out -----------------------------------------

    async def _run_shards(
        self,
        slot: int,
        work: "list[tuple[int, list[PendingRequest]]]",
        _context: object,
    ) -> list[ShardOutcome]:
        """Schedule and commit ``work`` in the worker processes.

        Every *active* worker runs the tick — workers advance their owned
        shards' channel clocks even with no requests this slot; the
        physical clock never skips.  Each contended shard's policy slice
        rides with its row, and the slice each reply carries back replaces
        the front's.  A worker that stays unreachable through the
        pool's respawn budget (an edge↔worker partition) degrades
        gracefully: its shards' requests resolve UNAVAILABLE this tick
        instead of blowing up the whole tick, its shards keep their
        pre-tick policy slices, and the worker's clocks
        catch up by journaled ADVANCE replay once it heals (see
        worker_main's missed-slot catch-up).  A shard whose scheduling
        crashed in its worker (a kernel row that failed the feasibility
        check, a scheduler that raised) comes back as ``(None, reason)``:
        its requests resolve SHARD_DOWN and only that shard loses the tick.
        """
        loop = asyncio.get_running_loop()
        pool = self.pool
        policy = self.policy
        payloads: dict[int, list[tuple[int, list[tuple], object]]] = {
            w: [] for w in pool.active_workers()
        }
        for o, survivors in work:
            payloads[pool.placement[o]].append(
                (
                    o,
                    [request_tuple(p.request) for p in survivors],
                    policy.export_output_state(o),
                )
            )
        results = await asyncio.gather(
            *(
                pool.call_async(loop, w, "run_tick", slot, payload)
                for w, payload in payloads.items()
            ),
            return_exceptions=True,
        )
        replies: dict[int, tuple[list | None, list | str]] = {}
        for result in results:
            if isinstance(result, WorkerProcessError):
                continue
            if isinstance(result, BaseException):
                raise result
            for o, grants, rejected, policy_slice in result:
                policy.absorb_output_state(o, policy_slice)
                replies[o] = (grants, rejected)
        outcomes: list[ShardOutcome] = []
        for o, _survivors in work:
            reply = replies.get(o)
            if reply is None:
                outcomes.append(RejectReason.UNAVAILABLE)
            elif reply[0] is None:
                self._c_shard_crashes.inc()
                outcomes.append(RejectReason.SHARD_DOWN)
            else:
                outcomes.append(reply)
        return outcomes

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
        its new owner, which rebuilt its ``busy[]`` from the transferred
        snapshot and journal.  The shard's policy slice never moves: the
        front owns it.
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

    def _close(self) -> None:
        self.pool.stop()
