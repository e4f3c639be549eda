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
      EXPORT           source serializes shard → HandoffPayload
        |                (snapshot + journal records + busy/tick)
      ADOPT            destination installs the snapshot and journal,
        |                rebuilds, reports the rebuilt (tick, busy[])
      [verify]         engine cross-checks replica == exported state
        |
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

import struct
import time
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import InvalidParameterError, MigrationError
from repro.faults.crashpoints import CrashPoints
from repro.service.journal import JournalRecord, decode_records, encode_record
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
    "HandoffPayload",
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


# -- handoff payload ---------------------------------------------------------

_MAGIC = b"RHND"
_VERSION = 2
_HEADER = struct.Struct("!HIIQ")  # version, shard, k, next_tick
_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")


@dataclass(frozen=True, slots=True)
class HandoffPayload:
    """Everything a new owner needs to *become* the shard.

    ``journal`` is the shard's write-ahead journal as its exporter holds
    it, compacted to the oldest retained snapshot (encoded record stream,
    :func:`repro.service.journal.encode_record` framing); ``snapshot`` is
    the exporter's latest encoded
    :class:`~repro.service.snapshot.ShardSnapshot`, ``None`` before the
    shard's first one (its journal then still starts at tick 0).  The
    adopter rebuilds from the two with the one rebuild path,
    :meth:`~repro.service.durability.DurabilityManager.recover`;
    ``busy``/``next_tick`` are the exporter's live state, carried so the
    adopter can prove its rebuild reconstructed the identical replica.
    """

    shard: int
    k: int
    next_tick: int
    busy: tuple[int, ...]
    journal: bytes
    snapshot: bytes | None = None

    def records(self) -> list[JournalRecord]:
        """Decode the journal stream (a torn tail here is corruption —
        the exporter serialized from memory, not from a crashed file)."""
        records, _consumed, torn = decode_records(self.journal)
        if torn:
            raise MigrationError(
                f"handoff payload for shard {self.shard} carries a torn "
                "journal stream"
            )
        return records

    @classmethod
    def from_records(
        cls,
        shard: int,
        k: int,
        next_tick: int,
        busy: Sequence[int],
        records: Iterable[JournalRecord],
        snapshot: bytes | None = None,
    ) -> "HandoffPayload":
        return cls(
            shard=shard,
            k=k,
            next_tick=next_tick,
            busy=tuple(int(b) for b in busy),
            journal=b"".join(encode_record(r) for r in records),
            snapshot=snapshot,
        )

    # -- codec (the bytes that cross a wire or land in a CI artifact) -------

    def encode(self) -> bytes:
        if len(self.busy) != self.k:
            raise InvalidParameterError(
                f"busy has {len(self.busy)} entries for k={self.k}"
            )
        parts = [
            _HEADER.pack(_VERSION, self.shard, self.k, self.next_tick),
            struct.pack(f"!{self.k}Q", *self.busy),
            _U64.pack(len(self.journal)),
            self.journal,
        ]
        if self.snapshot is None:
            parts.append(b"\x00")
        else:
            parts.append(b"\x01" + _U64.pack(len(self.snapshot)) + self.snapshot)
        body = b"".join(parts)
        return _MAGIC + body + _U32.pack(zlib.crc32(body))

    @classmethod
    def decode(cls, data: bytes) -> "HandoffPayload":
        if len(data) < len(_MAGIC) + _HEADER.size + _U32.size:
            raise MigrationError(
                f"handoff payload truncated at {len(data)} bytes"
            )
        if data[:4] != _MAGIC:
            raise MigrationError(
                f"bad handoff magic {data[:4]!r} (want {_MAGIC!r})"
            )
        body, (crc,) = data[4:-4], _U32.unpack(data[-4:])
        if zlib.crc32(body) != crc:
            raise MigrationError("handoff payload CRC mismatch")
        try:
            version, shard, k, next_tick = _HEADER.unpack_from(body, 0)
            if version != _VERSION:
                raise MigrationError(
                    f"handoff payload version {version} not supported "
                    f"(this build speaks {_VERSION})"
                )
            off = _HEADER.size
            busy = struct.unpack_from(f"!{k}Q", body, off)
            off += 8 * k
            (journal_len,) = _U64.unpack_from(body, off)
            off += _U64.size
            journal = body[off : off + journal_len]
            if len(journal) != journal_len:
                raise MigrationError("handoff journal stream truncated")
            off += journal_len
            snapshot = None
            if body[off]:
                (snap_len,) = _U64.unpack_from(body, off + 1)
                snapshot = body[off + 1 + _U64.size : off + 1 + _U64.size + snap_len]
                if len(snapshot) != snap_len:
                    raise MigrationError("handoff snapshot truncated")
                off += 1 + _U64.size + snap_len
            else:
                off += 1
            if off != len(body):
                raise MigrationError(
                    f"{len(body) - off} bytes of trailing garbage in "
                    "handoff payload"
                )
        except (struct.error, ValueError, IndexError) as exc:
            raise MigrationError(f"malformed handoff payload: {exc}") from exc
        return cls(
            shard=shard,
            k=k,
            next_tick=next_tick,
            busy=busy,
            journal=journal,
            snapshot=snapshot,
        )


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
        blob = self.pool.call(source, "export_shard", shard)
        payload = HandoffPayload.decode(blob)
        if payload.shard != shard:
            raise MigrationError(
                f"worker {source} exported shard {payload.shard}, "
                f"asked for {shard}"
            )
        cp.reached(PHASE_EXPORT)

        adopted_tick, adopted_busy = self.pool.call(
            destination, "adopt_shard", shard, blob
        )
        if (adopted_tick, tuple(adopted_busy)) != (
            payload.next_tick,
            payload.busy,
        ):
            raise MigrationError(
                f"shard {shard} replica on worker {destination} replayed "
                f"to (tick={adopted_tick}, busy={tuple(adopted_busy)}), "
                f"source exported (tick={payload.next_tick}, "
                f"busy={payload.busy}) — placement NOT flipped"
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
            journal_records=len(payload.records()),
            next_tick=payload.next_tick,
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
