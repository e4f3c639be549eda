"""The shard: one per output fiber, owning scheduler and channel state.

The paper's structural result — requests partition by destination fiber and
the per-output decisions are independent — makes the output fiber the
natural service shard.  Each :class:`ShardWorker` owns

* its per-output scheduler instance (``first_available`` /
  ``break_first_available`` / any :class:`~repro.core.base.Scheduler`),
* its channel-availability state across slot ticks: ``busy[b]`` counts the
  remaining slots output channel ``b`` is held by a granted multi-slot
  connection (paper Section V non-disturb mode — exactly the
  :class:`~repro.sim.engine.SlottedSimulator` bookkeeping, per shard),
* its write-ahead journal and snapshots, kept by its placement's
  :class:`~repro.service.durability.DurabilityManager` (none with
  durability off) and, in process, its bounded request queue (see
  :mod:`repro.service.queue`).

It is the shard of both placements: the in-process
:class:`~repro.service.server.SchedulingService` and every worker process
of :class:`~repro.net.procservice.ProcessShardedService` tick their shards
with :func:`tick_shards` — one batch-kernel call for all of them
(:func:`repro.core.distributed.schedule_tick`), with
:meth:`ShardWorker.schedule` for the rows that call cannot express (through
:func:`repro.core.distributed.schedule_output_fiber`, the batch
simulator's code path).  The simulator's independent per-fiber decisions
are what make service-vs-simulator grant equivalence testable instead of
aspirational.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from repro.core.base import Scheduler
from repro.core.distributed import (
    FiberRow,
    GrantedRequest,
    SlotRequest,
    schedule_output_fiber,
    schedule_tick,
)
from repro.core.policies import GrantPolicy
from repro.errors import ShardDownError, SimulationError
from repro.graphs.conversion import ConversionScheme
from repro.service.journal import ShardJournal, request_tuple
from repro.types import ScheduleResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.durability import DurabilityManager
    from repro.service.queue import BoundedQueue
    from repro.service.telemetry import Telemetry

__all__ = ["ShardWorker", "tick_shards"]


class ShardWorker:
    """Per-output-fiber shard: scheduler + channel occupancy + journal."""

    def __init__(
        self,
        output_fiber: int,
        scheme: ConversionScheme,
        scheduler: Scheduler,
        policy: GrantPolicy,
        queue: "BoundedQueue | None",
        telemetry: "Telemetry",
    ) -> None:
        self.output_fiber = output_fiber
        self.scheme = scheme
        self.scheduler = scheduler
        self.policy = policy
        self.queue = queue  # None in a worker process
        #: Installed by :meth:`attach`; None = durability off.
        self.durability: "DurabilityManager | None" = None
        self.journal: ShardJournal | None = None
        self.next_tick = 0  # the slot the clock enters next
        self._busy = [0] * scheme.k
        #: Dark output channels this tick (fault injection); None = none.
        self._dark: list[bool] | None = None
        #: A down shard refuses every operation with ShardDownError until
        #: the supervisor restores it (see repro.service.supervisor).
        self.down = False
        self._crash_cause: BaseException | None = None
        prefix = f"shard.{output_fiber}"
        self._granted = telemetry.counter(f"{prefix}.granted")
        self._rejected = telemetry.counter(f"{prefix}.rejected")
        self._occupancy_gauge = telemetry.gauge(f"{prefix}.occupancy")

    # -- state views --------------------------------------------------------

    @property
    def k(self) -> int:
        return self.scheme.k

    @property
    def occupancy(self) -> int:
        """Output channels currently held by ongoing connections."""
        return sum(1 for b in self._busy if b > 0)

    def busy_snapshot(self) -> list[int]:
        """Copy of ``busy[]``: the supervisor's checkpoints, a worker's
        ``busy`` reply, and the clock a migration export sends for the
        parent to check the adopted replica against."""
        return list(self._busy)

    def availability(self) -> list[bool]:
        """Free-channel mask for the current slot tick.

        Dark channels (injected outages) read as unavailable, exactly like
        Section-V occupied channels, so the scheduler routes around them;
        connections already holding a channel that goes dark complete
        normally.
        """
        if self._dark is None:
            return [b == 0 for b in self._busy]
        return [
            b == 0 and not dark for b, dark in zip(self._busy, self._dark)
        ]

    def set_dark(self, dark: Sequence[bool] | None) -> None:
        """Install this tick's dark-channel row (None = fully lit)."""
        self._dark = None if dark is None else list(dark)

    # -- crash / restore (see repro.service.supervisor) ----------------------

    def crash(self, cause: BaseException | None = None) -> None:
        """Kill the worker: its in-memory channel state is lost.

        ``busy[]`` is wiped — that is the whole point of the supervisor's
        checkpoints — and every later operation raises
        :class:`~repro.errors.ShardDownError` until :meth:`restore`.
        """
        self.down = True
        self._busy = [0] * self.k
        self._crash_cause = cause

    def restore(self, busy: Sequence[int]) -> None:
        """Bring the worker back up with ``busy`` (the supervisor's aged
        checkpoint, or a journal rebuild)."""
        if len(busy) != self.k:
            raise SimulationError(
                f"shard {self.output_fiber}: restore vector has length "
                f"{len(busy)}, expected k={self.k}"
            )
        self._busy = [int(b) for b in busy]
        self.down = False
        self._crash_cause = None
        self._occupancy_gauge.set(self.occupancy)

    # -- durability ---------------------------------------------------------

    def attach(self, durability: "DurabilityManager") -> None:
        """Keep this shard's journal and snapshots in ``durability`` (its
        placement's manager)."""
        self.durability = durability
        self.journal = durability.journal(self.output_fiber)

    def resume(self) -> None:
        """Rebuild after a process start, stripping the records after the
        last ADVANCE: the write-ahead of a tick the parent never saw
        complete, which it will re-send."""
        self.rewind(self.durability.clock(self.output_fiber))

    def rewind(self, slot: int) -> None:
        """Rebuild from the latest snapshot at or before ``slot`` plus the
        journal records since, dropping everything of ``slot`` onward: the
        shard is back up at the start of ``slot``."""
        state = self.durability.recover(self.output_fiber, before_tick=slot)
        self.next_tick = state.tick
        self.restore(state.busy)

    def _check_up(self) -> None:
        if self.down:
            raise ShardDownError(
                f"shard {self.output_fiber} is down"
            ) from self._crash_cause

    # -- one slot tick ------------------------------------------------------

    def schedule(
        self,
        requests: Sequence[SlotRequest],
        degradations: "dict[int, tuple[int, int]] | None" = None,
    ) -> tuple[ScheduleResult | None, list[GrantedRequest], list[SlotRequest]]:
        """Resolve this tick's contention; does NOT commit (pure read).

        Fails fast with a typed :class:`~repro.errors.ShardDownError` when
        the worker is down, and wraps any defect raised by the underlying
        scheduler in the same type (``raise ... from`` keeps the original
        on the chain), marking the worker down — a broken scheduler is a
        crashed shard, not a silent wrong answer.
        """
        self._check_up()
        if not requests:
            return None, [], []
        try:
            result, granted, rejected = schedule_output_fiber(
                self.scheme,
                self.scheduler,
                self.policy,
                self.output_fiber,
                requests,
                self.availability(),
                degradations,
            )
        except ShardDownError:
            raise
        except Exception as exc:
            self.crash(exc)
            raise ShardDownError(
                f"shard {self.output_fiber} crashed while scheduling: {exc}"
            ) from exc
        return result, granted, rejected

    def commit(self, granted: Sequence[GrantedRequest]) -> None:
        """Hold each granted channel for the connection's duration."""
        self._check_up()
        for g in granted:
            if self._busy[g.channel] > 0:
                raise SimulationError(
                    f"shard {self.output_fiber}: channel {g.channel} granted "
                    "while occupied"
                )
            if self._dark is not None and self._dark[g.channel]:
                raise SimulationError(
                    f"shard {self.output_fiber}: channel {g.channel} granted "
                    "while dark"
                )
            self._busy[g.channel] = g.request.duration
        self._granted.inc(len(granted))
        self._occupancy_gauge.set(self.occupancy)

    def record_rejected(self, n: int) -> None:
        self._rejected.inc(n)

    def advance(self, slot: int, defer: bool = False) -> None:
        """End of ``slot``: journal its ADVANCE (``defer``: see
        :meth:`~repro.service.journal.ShardJournal.defer_advance`), then
        age ongoing connections by one slot.  A down shard's clock is
        journaled too — its connections live on in the interconnect —
        which is what makes recovery pure replay with no aging.

        Every ``snapshot_interval`` slots an up shard then snapshots its
        state entering ``slot + 1`` — ``busy[]``, its queue and its own
        policy slice — and its journal is compacted
        (:meth:`~repro.service.durability.DurabilityManager.take_snapshot`).
        In a worker process the queue is the front's and the slice is
        ``None``: the worker holds no policy state between ticks."""
        journal = self.journal
        if journal is not None:
            if defer:
                journal.defer_advance(slot)
            else:
                journal.advance(slot)
        self.next_tick = slot + 1
        if self.down:
            return
        self._busy = [b - 1 if b > 0 else 0 for b in self._busy]
        self._occupancy_gauge.set(self.occupancy)
        durability = self.durability
        if durability is not None and durability.due_snapshot(slot + 1):
            o = self.output_fiber
            durability.take_snapshot(
                o,
                slot + 1,
                self._busy,
                ()
                if self.queue is None
                else [request_tuple(p.request) for p in self.queue],
                self.policy.export_output_state(o),
            )


def tick_shards(
    scheme: ConversionScheme,
    policy: GrantPolicy,
    shards: "Mapping[int, ShardWorker] | Sequence[ShardWorker]",
    slot: int,
    work: Sequence[tuple[int, Sequence[SlotRequest]]],
    degradations: "Mapping[int, tuple[int, int]] | None" = None,
) -> list:
    """Schedule, journal (write-ahead) and commit one tick of ``work``,
    ``(output_fiber, requests)`` entries, on ``shards[output_fiber]``.

    Returns one entry per ``work`` entry in the service front's outcome
    format — grant tuples ``(input, wavelength, channel, duration)`` and
    rejected ``(input, wavelength)`` pairs — or the
    :class:`~repro.errors.ShardDownError` its shard crashed with while
    scheduling (nothing is journaled or committed for it; reacting is the
    placement's).  Clocks advance separately (:meth:`ShardWorker.advance`).
    """
    scheduled = schedule_tick(
        scheme,
        policy,
        [
            FiberRow(
                o, requests, shards[o].availability(), shards[o].scheduler
            )
            for o, requests in work
        ],
        degradations,
        lambda row: shards[row.output_fiber].schedule(
            row.requests, degradations
        )[1:],
    )
    outcomes: list = []
    for (o, _requests), result in zip(work, scheduled):
        if isinstance(result, ShardDownError):
            outcomes.append(result)
            continue
        shard = shards[o]
        granted, rejected = result
        grants = [
            (
                g.request.input_fiber,
                g.request.wavelength,
                g.channel,
                g.request.duration,
            )
            for g in granted
        ]
        if shard.journal is not None and grants:
            # Write-ahead: one batched record before any commit.
            shard.journal.grant_batch(slot, grants)
        shard.commit(granted)
        shard.record_rejected(len(rejected))
        outcomes.append(
            (grants, [(r.input_fiber, r.wavelength) for r in rejected])
        )
    return outcomes
