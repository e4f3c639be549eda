"""Live shard migration: quiesce → export → adopt → flip → release.

The paper fixes each output fiber's scheduler in place; a production
service must move shards between workers **while traffic flows**.  This
module is that engine, built directly on the PR-5 durability substrate:
a shard's complete worker-side state is its latest snapshot plus its
write-ahead journal since (the grant policy lives in the service front,
never with a shard owner), and rebuilding from those is already proven
bit-identical to never having crashed — so a migration is nothing more
than handing both to a new owner and letting the same rebuild
(:meth:`~repro.service.durability.DurabilityManager.recover`) produce
the same ``busy[]`` clocks.

The migration state machine, driven between ticks (the quiesce point —
no tick is ever in flight when the engine runs)::

      QUIESCE          tick boundary reached; source still authoritative
        |
      EXPORT           source replies (next_tick, busy[], blob): the blob
        |                is DurabilityManager.export, one CRC frame of its
        |                latest snapshot and journal records
      ADOPT            destination's DurabilityManager.adopt checks the
        |                whole blob, installs it, rebuilds with recover and
        |                reports the rebuilt (tick, busy[], records)
      [verify]         this engine (parent side) checks the rebuilt
        |                (tick, busy[]) == the exported one
      FLIP             placement map now names the destination (atomic:
        |                a dict write between ticks; next tick routes there)
      RELEASE          source closes + deletes its copy (.wal + .snap)
        |                (cleanup only — destination is authoritative)
      DONE

Every arrow is a crash point (:class:`repro.faults.CrashPoints` names
``resharding.quiesce`` … ``resharding.release``), and the engine is
**re-drivable from any of them**: before the flip the source never
stopped being authoritative (a retry simply re-exports); after the flip
the destination is authoritative and a retry only re-runs the idempotent
release cleanup.  Snapshot and journal travel whole, so the new owner
rebuilds the same start-of-slot ``busy[]`` the old owner had, and a
redelivered tick re-runs there exactly as it would have on the old owner
— the redelivery contract of :mod:`repro.net.procpool`, preserved across
the move.

Simultaneous moves are planned as conflict-free **waves**
(:func:`plan_waves`): within one wave no worker appears in two moves at
all — in particular never as both a source and a destination — so a
wave's transfers never contend for one worker's pipe and a wave can be
executed in any order (or concurrently).  Greedy first-fit gives the
documented bound of ``2·Δ − 1`` waves, where ``Δ`` is the maximum number
of moves touching any single worker (each move conflicts with at most
``Δ − 1`` others at its source and ``Δ − 1`` at its destination;
property-tested in ``tests/test_wave_planner.py``).  The framing follows
the complex-coloring treatment of parallel switch scheduling (Wang & Ye,
arXiv:1606.07226): simultaneous moves are an edge-coloring problem, not
a serial queue.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import InvalidParameterError, MigrationError
from repro.faults.crashpoints import CrashPoints
from repro.service.telemetry import exponential_buckets

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.telemetry import Telemetry

__all__ = [
    "PHASE_QUIESCE",
    "PHASE_EXPORT",
    "PHASE_ADOPT",
    "PHASE_FLIP",
    "PHASE_RELEASE",
    "MIGRATION_PHASES",
    "ShardMove",
    "plan_waves",
    "max_move_degree",
    "wave_bound",
    "MigrationReport",
    "ShardMigrator",
]

#: Crash-point names, one per arrow of the migration state machine.
PHASE_QUIESCE = "resharding.quiesce"
PHASE_EXPORT = "resharding.export"
PHASE_ADOPT = "resharding.adopt"
PHASE_FLIP = "resharding.flip"
PHASE_RELEASE = "resharding.release"
MIGRATION_PHASES = (
    PHASE_QUIESCE,
    PHASE_EXPORT,
    PHASE_ADOPT,
    PHASE_FLIP,
    PHASE_RELEASE,
)

#: Migration-pause buckets: 100 µs … ~100 s.
_PAUSE_BUCKETS = exponential_buckets(100e-6, 2.0, 20)


# -- wave planning -----------------------------------------------------------


@dataclass(frozen=True, slots=True, order=True)
class ShardMove:
    """One planned migration: ``shard`` moves ``source`` → ``destination``."""

    shard: int
    source: int
    destination: int

    def __post_init__(self) -> None:
        if self.source == self.destination:
            raise InvalidParameterError(
                f"move of shard {self.shard} has source == destination "
                f"== {self.source}"
            )


def max_move_degree(moves: Sequence[ShardMove]) -> int:
    """``Δ``: the largest number of moves touching any single worker."""
    degree: dict[int, int] = {}
    for m in moves:
        degree[m.source] = degree.get(m.source, 0) + 1
        degree[m.destination] = degree.get(m.destination, 0) + 1
    return max(degree.values(), default=0)


def wave_bound(moves: Sequence[ShardMove]) -> int:
    """The planner's documented worst case: ``2·Δ − 1`` waves (0 for no
    moves).  First-fit cannot need more: when a move is placed, only the
    ``Δ − 1`` other moves at its source and ``Δ − 1`` at its destination
    can have filled earlier waves."""
    d = max_move_degree(moves)
    return 2 * d - 1 if d else 0


def plan_waves(moves: Iterable[ShardMove]) -> list[list[ShardMove]]:
    """Color ``moves`` into conflict-free waves.

    Within a wave every worker participates in **at most one** move —
    stronger than the minimum requirement (no worker as both source and
    destination), and operationally right: one transfer at a time per
    worker keeps each worker's migration pause bounded by a single
    handoff.  Deterministic: moves are processed in ``(shard, source,
    destination)`` order and first-fit placed, so every caller plans the
    identical waves.  At most :func:`wave_bound` waves are produced.
    """
    ordered = sorted(moves)
    seen_shards: set[int] = set()
    for m in ordered:
        if m.shard in seen_shards:
            raise InvalidParameterError(
                f"shard {m.shard} appears in two moves of one plan"
            )
        seen_shards.add(m.shard)
    waves: list[list[ShardMove]] = []
    participants: list[set[int]] = []
    for m in ordered:
        for wave, busy in zip(waves, participants):
            if m.source not in busy and m.destination not in busy:
                wave.append(m)
                busy.add(m.source)
                busy.add(m.destination)
                break
        else:
            waves.append([m])
            participants.append({m.source, m.destination})
    return waves


# -- the engine --------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class MigrationReport:
    """What one completed migration did.

    ``resumed`` is True when the engine found the flip already done (a
    prior attempt crashed between FLIP and RELEASE) and only re-ran the
    cleanup.  ``pause_seconds`` is the wall-clock span the service could
    not tick — the number ``bench_reshard`` divides by the baseline tick
    time to gate "ticks stalled per move".
    """

    shard: int
    source: int
    destination: int
    payload_bytes: int
    journal_records: int
    next_tick: int
    pause_seconds: float
    resumed: bool = False
    wave: int | None = None


class ShardMigrator:
    """Drives live migrations over a worker pool.

    ``pool`` is duck-typed (so this module never imports
    :mod:`repro.net`): it must offer ``placement`` (a live ``shard →
    worker`` dict), ``set_owner(shard, worker)``, ``active_workers()``,
    and ``call(worker, op, *args)`` speaking the ``export_shard`` /
    ``adopt_shard`` / ``release_shard`` worker ops of
    :func:`repro.net.procpool.worker_main`.  The caller must invoke the
    engine **between ticks** — the quiesce phase is free because nothing
    is ever in flight at that boundary.
    """

    def __init__(self, pool, telemetry: "Telemetry | None" = None) -> None:
        self.pool = pool
        if telemetry is not None:
            self._c_migrations = telemetry.counter("reshard.migrations")
            self._c_resumed = telemetry.counter("reshard.resumed")
            self._c_waves = telemetry.counter("reshard.waves")
            self._c_bytes = telemetry.counter("reshard.bytes_transferred")
            self._h_pause = telemetry.histogram(
                "reshard.pause_seconds", _PAUSE_BUCKETS
            )
        else:
            self._c_migrations = self._c_resumed = None
            self._c_waves = self._c_bytes = self._h_pause = None

    # -- one move ------------------------------------------------------------

    def migrate(
        self,
        shard: int,
        destination: int,
        *,
        crashpoints: CrashPoints | None = None,
        wave: int | None = None,
    ) -> MigrationReport:
        """Move ``shard`` to ``destination``; re-drivable after any crash.

        Raises :class:`MigrationError` when the move is ill-formed or the
        adopted replica does not verify; raises
        :class:`~repro.errors.CrashPointError` when an armed crash point
        fires (re-invoke to resume — every phase is safe to die at).
        """
        cp = crashpoints if crashpoints is not None else CrashPoints()
        t0 = time.perf_counter()
        active = set(self.pool.active_workers())
        if destination not in active:
            raise MigrationError(
                f"destination worker {destination} is not active"
            )
        source = self.pool.placement.get(shard)
        if source is None:
            raise MigrationError(f"shard {shard} is not placed")
        if source == destination:
            # A prior attempt died between FLIP and RELEASE: the
            # destination is already authoritative, only the cleanup can
            # be outstanding.  Release everywhere else (idempotent no-op
            # on workers that never held the shard).
            for w in sorted(active - {destination}):
                self.pool.call(w, "release_shard", shard)
            cp.reached(PHASE_RELEASE)
            report = MigrationReport(
                shard=shard,
                source=source,
                destination=destination,
                payload_bytes=0,
                journal_records=0,
                next_tick=-1,
                pause_seconds=time.perf_counter() - t0,
                resumed=True,
                wave=wave,
            )
            self._count(report)
            return report

        cp.reached(PHASE_QUIESCE)
        # The blob is the source's own durable bytes for the shard
        # (DurabilityManager.export); the engine passes it on unread and
        # checks only what the destination rebuilt from it.
        next_tick, busy, blob = self.pool.call(source, "export_shard", shard)
        cp.reached(PHASE_EXPORT)

        adopted_tick, adopted_busy, adopted_records = self.pool.call(
            destination, "adopt_shard", shard, blob
        )
        if (adopted_tick, tuple(adopted_busy)) != (next_tick, tuple(busy)):
            raise MigrationError(
                f"shard {shard} replica on worker {destination} replayed "
                f"to (tick={adopted_tick}, busy={tuple(adopted_busy)}), "
                f"source exported (tick={next_tick}, "
                f"busy={tuple(busy)}) — placement NOT flipped"
            )
        cp.reached(PHASE_ADOPT)

        self.pool.set_owner(shard, destination)
        cp.reached(PHASE_FLIP)

        self.pool.call(source, "release_shard", shard)
        cp.reached(PHASE_RELEASE)

        report = MigrationReport(
            shard=shard,
            source=source,
            destination=destination,
            payload_bytes=len(blob),
            journal_records=adopted_records,
            next_tick=next_tick,
            pause_seconds=time.perf_counter() - t0,
            wave=wave,
        )
        self._count(report)
        return report

    # -- many moves ----------------------------------------------------------

    def execute(
        self,
        moves: Iterable[ShardMove],
        *,
        crashpoints: CrashPoints | None = None,
    ) -> list[MigrationReport]:
        """Plan ``moves`` into waves and run them wave by wave.

        Moves inside one wave touch disjoint workers, so their order is
        immaterial; the engine runs them in planner order for
        determinism.  A crash point or verification failure propagates
        with earlier moves already durable — re-invoking with the same
        moves resumes (completed moves collapse to the resumed-cleanup
        path because their placement already names the destination).
        """
        reports: list[MigrationReport] = []
        for i, wave in enumerate(plan_waves(moves)):
            if self._c_waves is not None:
                self._c_waves.inc()
            for m in wave:
                reports.append(
                    self.migrate(
                        m.shard,
                        m.destination,
                        crashpoints=crashpoints,
                        wave=i,
                    )
                )
        return reports

    def moves_to(self, target: dict[int, int]) -> list[ShardMove]:
        """The move list that turns the live placement into ``target``."""
        current = self.pool.placement
        return [
            ShardMove(shard=o, source=current[o], destination=w)
            for o, w in sorted(target.items())
            if current.get(o) is not None and current[o] != w
        ]

    def _count(self, report: MigrationReport) -> None:
        if self._c_migrations is None:
            return
        self._c_migrations.inc()
        if report.resumed:
            self._c_resumed.inc()
        self._c_bytes.inc(report.payload_bytes)
        self._h_pause.observe(report.pause_seconds)
