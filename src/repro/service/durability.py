"""Crash-consistent shard durability: snapshot + journal-suffix replay.

:class:`DurabilityManager` owns one write-ahead journal
(:mod:`repro.service.journal`) and one snapshot store
(:mod:`repro.service.snapshot`) for the shards of one placement: the
in-process service holds one for all of its shards, and every worker
process of the multi-process service holds one for the shards it owns.
It implements the recovery contract the kill-at-every-tick test gates on
(``tests/test_durability.py``):

    load the latest valid snapshot, replay every journal record from the
    snapshot's tick onward in append order, and the rebuilt shard is
    **bit-identical** to one that never crashed.  ``EVICT`` records (the
    per-tenant admission shed) replay as a delete at the journaled queue
    index, so mid-queue sheds recover exactly like front-of-queue drains.

Replay is exact — unlike PR 4's aged checkpoints — because the server
journals an ``ADVANCE`` for *every* shard each tick, down ones included:
the optical connections ``busy[]`` tracks live in the interconnect, so the
physical clock keeps ticking while a worker is dead, and recovery is pure
redo with no aging formula.

The shard drives the cadence: :meth:`ShardWorker.advance
<repro.service.shard.ShardWorker.advance>` asks :meth:`due_snapshot` and
calls :meth:`take_snapshot`.  Every rebuild is one call,
:meth:`DurabilityManager.recover` — the latest snapshot at or before a
target tick plus the journal records since — whether it serves an
in-process restart, a worker start-up, a rewind or a migration adopt.
A migration moves those same bytes: :meth:`DurabilityManager.export`
frames a shard's latest snapshot and journal, and
:meth:`DurabilityManager.adopt` checks and installs them on the new
owner for :meth:`~DurabilityManager.recover` to rebuild.
The manager never touches worker objects: callers apply the
:class:`RecoveredShardState` it returns.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import (
    DurabilityError,
    InvalidParameterError,
    MigrationError,
)
from repro.service.journal import (
    FileJournal,
    JournalBackend,
    JournalRecord,
    MemoryJournal,
    RecordType,
    ShardJournal,
    decode_records,
)
from repro.service.snapshot import (
    FileSnapshotStore,
    MemorySnapshotStore,
    ShardSnapshot,
    SnapshotStore,
    decode_snapshot,
    encode_snapshot,
)
from repro.service.telemetry import exponential_buckets
from repro.util.framing import FRAME_HEADER_SIZE, decode_frames, encode_frame
from repro.util.validation import check_nonnegative_int, check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.telemetry import Telemetry

__all__ = [
    "DurabilityConfig",
    "RecoveredShardState",
    "DurabilityManager",
    "replay_journal",
]

#: Recovery-time buckets: 1 µs … ~1 s.
_RECOVERY_BUCKETS = exponential_buckets(1e-6, 2.0, 20)


@dataclass(frozen=True)
class DurabilityConfig:
    """Tuning for the durability layer.

    ``snapshot_interval`` — snapshot every shard's state entering every
    multiple of this tick (1 = every tick; snapshots bound journal growth
    and replay length, they are never needed for correctness).
    ``backend`` — ``"memory"`` (default: survives worker crashes, cheap
    enough for the hot path, the <10% ``bench_journal`` budget) or
    ``"file"`` (survives process death; requires ``directory``).
    ``fsync`` — file backend only: fsync after every journal append
    (power-loss durability at a large latency cost).
    ``retain_snapshots`` — snapshots kept per shard; the journal is
    compacted up to the oldest retained one.
    ``dedup_capacity`` — bound on the server's request-id dedup table for
    exactly-once grant semantics (0 disables deduplication).
    """

    snapshot_interval: int = 16
    backend: str = "memory"
    directory: str | os.PathLike | None = None
    fsync: bool = False
    retain_snapshots: int = 2
    dedup_capacity: int = 4096

    def __post_init__(self) -> None:
        check_positive_int(self.snapshot_interval, "snapshot_interval")
        check_positive_int(self.retain_snapshots, "retain_snapshots")
        check_nonnegative_int(self.dedup_capacity, "dedup_capacity")
        if self.backend not in ("memory", "file"):
            raise InvalidParameterError(
                f"backend must be 'memory' or 'file', got {self.backend!r}"
            )
        if self.backend == "file" and self.directory is None:
            raise InvalidParameterError(
                "the file backend needs directory= for its .wal and .snap files"
            )


@dataclass(frozen=True, slots=True)
class RecoveredShardState:
    """What recovery rebuilt, and how.

    ``source`` is ``"snapshot+journal"`` (a snapshot anchored the replay),
    ``"journal"`` (no snapshot yet — replayed from tick 0), or ``"cold"``
    (no durable state at all: the shard is genuinely fresh).  ``tick`` is
    the tick the state is valid *entering*; ``queue`` holds request
    6-tuples (:func:`repro.service.journal.request_tuple` form) in FIFO
    order, which the server cross-checks against the surviving live queue.
    """

    shard: int
    tick: int
    busy: tuple[int, ...]
    queue: tuple[tuple[int, int, int, int, int, int], ...]
    policy_state: object | None
    source: str
    snapshot_tick: int | None
    replayed_records: int
    torn_tail: bool


def replay_journal(
    records: Iterable[JournalRecord],
    snapshot: ShardSnapshot | None,
    k: int,
) -> tuple[list[int], tuple[tuple[int, ...], ...], int, int]:
    """Deterministically apply the journal suffix on top of ``snapshot``.

    Returns ``(busy, queue, tick, replayed_count)``.  Records older than
    the snapshot's tick are skipped (their effects are inside the
    snapshot); ``FAULT`` and ``SNAPSHOT`` records are audit-only.  The
    function is pure redo: ``GRANT`` books a channel, ``ADVANCE`` ages
    every channel by one slot and moves the tick forward, ``ACCEPT`` /
    ``DEQUEUE`` rebuild the queue.  An ``ACCEPT`` that does not carry
    exactly the six :func:`~repro.service.journal.request_tuple` values
    raises :class:`~repro.errors.DurabilityError`.

    A batched ``ADVANCE`` (``values = (count,)``, written by
    :meth:`~repro.service.journal.ShardJournal.flush_deferred`) ages every
    channel by ``count`` slots.  One that *spans* the snapshot tick —
    compaction keeps the whole record when any covered tick is at or past
    the cutoff — is clipped: only the ticks from the snapshot onward are
    applied, since the earlier ones are already inside the snapshot.
    """
    if snapshot is not None:
        busy = list(snapshot.busy)
        queue: deque[tuple[int, ...]] = deque(snapshot.queue)
        tick = start = snapshot.tick
    else:
        busy = [0] * k
        queue = deque()
        tick = start = 0
    replayed = 0
    for rec in records:
        if rec.type is RecordType.ADVANCE:
            # () advances one tick; (count,) advances count consecutive
            # ticks from rec.tick.  Clip to the suffix past the snapshot.
            count = rec.values[0] if rec.values else 1
            end = rec.tick + count
            if end <= start:
                continue
            replayed += 1
            eff = end - max(rec.tick, start)
            busy = [b - eff if b > eff else 0 for b in busy]
            tick = end
            continue
        if rec.tick < start:
            continue
        replayed += 1
        if rec.type is RecordType.GRANT:
            # One or more (input, wavelength, channel, duration) 4-tuples
            # back to back (the server batches a tick's grants per shard).
            vals = rec.values
            for i in range(0, len(vals), 4):
                busy[vals[i + 2]] = vals[i + 3]
        elif rec.type is RecordType.ACCEPT:
            if len(rec.values) != 6:
                raise DurabilityError(
                    f"ACCEPT record at tick {rec.tick} carries "
                    f"{len(rec.values)} values, expected 6"
                )
            queue.append(rec.values)
        elif rec.type is RecordType.DEQUEUE:
            for _ in range(rec.values[0]):
                if queue:
                    queue.popleft()
        elif rec.type is RecordType.EVICT:
            idx = rec.values[0]
            if 0 <= idx < len(queue):
                del queue[idx]
        # FAULT / SNAPSHOT: no state effect.
    return busy, tuple(queue), tick, replayed


class DurabilityManager:
    """One placement's shard journals + snapshot store + the rebuild path.

    ``n_shards`` journals (shards ``0 .. n_shards - 1``) open at
    construction; :meth:`journal` opens any other shard's on first use —
    a worker process starts with none and opens the shards it owns.  With
    the file backend every shard keeps ``shard-NNNN.wal`` and its
    ``shard-NNNN.tick-*.snap`` files in ``config.directory``.
    """

    def __init__(
        self,
        config: DurabilityConfig,
        n_shards: int,
        k: int,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self.config = config
        self.k = k
        self._telemetry = telemetry
        self._journals: dict[int, ShardJournal] = {}
        directory = config.directory if config.backend == "file" else None
        self._directory = None if directory is None else Path(directory)
        self.store: SnapshotStore = (
            MemorySnapshotStore()
            if self._directory is None
            else FileSnapshotStore(self._directory)
        )
        for o in range(n_shards):
            self.journal(o)
        if telemetry is not None:
            self._c_snapshots = telemetry.counter("durability.snapshots")
            self._c_recoveries = telemetry.counter("durability.recoveries")
            self._c_torn = telemetry.counter("durability.torn_tails")
            self._h_recovery = telemetry.histogram(
                "durability.recovery_seconds", _RECOVERY_BUCKETS
            )
            self._g_replay = telemetry.gauge("durability.replay_records")
        else:
            self._c_snapshots = self._c_recoveries = self._c_torn = None
            self._h_recovery = self._g_replay = None

    def journal(self, shard: int) -> ShardJournal:
        """``shard``'s journal, opened (over any bytes already durable
        for it) on first use."""
        journal = self._journals.get(shard)
        if journal is None:
            if self._directory is None:
                backend: JournalBackend = MemoryJournal()
            else:
                backend = FileJournal(
                    self._wal_path(shard), fsync=self.config.fsync
                )
            journal = self._journals[shard] = ShardJournal(
                backend, self._telemetry
            )
        return journal

    def _wal_path(self, shard: int) -> Path:
        assert self._directory is not None  # file backend only
        return self._directory / f"shard-{shard:04d}.wal"

    # -- snapshots -----------------------------------------------------------

    def due_snapshot(self, entering_tick: int) -> bool:
        """True when shard state entering ``entering_tick`` should be
        snapshotted (never tick 0 — that state is the known all-free one)."""
        return (
            entering_tick > 0
            and entering_tick % self.config.snapshot_interval == 0
        )

    def take_snapshot(
        self,
        shard: int,
        entering_tick: int,
        busy: Sequence[int],
        queue: Iterable[tuple[int, int, int, int, int, int]],
        policy_state: object | None,
    ) -> None:
        """Persist one shard's state entering ``entering_tick``, prune old
        snapshots, and compact the journal up to the oldest retained one.

        The all-free state entering tick 0 counts as retained until
        ``retain_snapshots`` real snapshots exist, so the journal always
        reaches back to the snapshot *before* the latest: a rewind of the
        slot that took the latest snapshot still finds its start state.
        """
        self.store.save(
            ShardSnapshot(
                shard,
                entering_tick,
                tuple(int(b) for b in busy),
                tuple(tuple(entry) for entry in queue),
                policy_state,
            )
        )
        self.store.prune(shard, self.config.retain_snapshots)
        journal = self.journal(shard)
        journal.snapshot_mark(entering_tick)
        retained = self.store.ticks(shard)
        if len(retained) >= self.config.retain_snapshots:
            journal.compact(retained[0])
        if self._c_snapshots is not None:
            self._c_snapshots.inc()

    # -- rebuilds ------------------------------------------------------------

    def clock(self, shard: int) -> int:
        """The tick ``shard``'s last complete slot left its clock entering:
        the end of its journal's last ``ADVANCE``, or its latest snapshot's
        tick if that is later, or 0.  Records at or past it are the
        write-ahead of a slot that never completed."""
        tick = 0
        for rec in self.journal(shard).records():
            if rec.type is RecordType.ADVANCE:
                tick = rec.tick + (rec.values[0] if rec.values else 1)
        retained = self.store.ticks(shard)
        return max(tick, retained[-1]) if retained else tick

    def recover(
        self, shard: int, before_tick: int | None = None
    ) -> RecoveredShardState:
        """Rebuild ``shard``'s state from durable bytes only.

        The one rebuild path: the latest valid snapshot at or before
        ``before_tick``, plus the journal records since.  With
        ``before_tick`` the shard is *rewound* to the start of that slot:
        journal records of ``before_tick`` onward are stripped and newer
        snapshots are discarded, so the durable state and the rebuilt
        state agree.  ``None`` keeps everything.

        Reads the snapshot store and re-decodes the journal's durable
        bytes (not the in-memory mirror), so the result is exactly what a
        restarted process would reconstruct — including tolerance of a
        torn record at the journal tail, which is cut off (the journal is
        rewritten) so that later appends stay readable.
        """
        t0 = time.perf_counter()
        journal = self.journal(shard)
        records, torn = journal.reload()
        kept = records
        if before_tick is not None:
            kept = [rec for rec in records if rec.tick < before_tick]
            self.store.discard(shard, after=before_tick)
        if torn or len(kept) != len(records):
            journal.rewrite_records(kept)
            records = kept
        snapshot = self.store.latest(shard)
        busy, queue, tick, replayed = replay_journal(
            records, snapshot, self.k
        )
        if snapshot is not None:
            source = "snapshot+journal"
        elif records:
            source = "journal"
        else:
            source = "cold"
        if self._c_recoveries is not None:
            self._c_recoveries.inc()
            if torn:
                self._c_torn.inc()
            self._h_recovery.observe(time.perf_counter() - t0)
            self._g_replay.set(replayed)
        return RecoveredShardState(
            shard=shard,
            tick=tick,
            busy=tuple(busy),
            queue=queue,
            policy_state=snapshot.policy_state if snapshot is not None else None,
            source=source,
            snapshot_tick=snapshot.tick if snapshot is not None else None,
            replayed_records=replayed,
            torn_tail=torn,
        )

    # -- hand-off between placements -----------------------------------------

    def export(self, shard: int) -> bytes:
        """``shard``'s durable state as one migration handoff.

        One :func:`~repro.util.framing.encode_frame` frame (length +
        CRC32) around the bytes :meth:`recover` reads: the latest snapshot
        in a frame of its own (empty when the shard has none), then the
        journal's record frames.  :meth:`adopt` is the inverse."""
        journal = self.journal(shard)
        journal.flush_deferred()
        snapshot = self.store.latest(shard)
        head = b"" if snapshot is None else encode_snapshot(snapshot)
        return encode_frame(encode_frame(head) + journal.backend.load())

    def adopt(self, shard: int, blob: bytes) -> int:
        """Replace whatever this manager holds for ``shard`` with an
        :meth:`export` of it; returns the journal records installed.

        The whole handoff is checked before any state is touched: one
        CRC-valid frame and nothing after it, a journal with no torn tail,
        and a snapshot (if any) that decodes, names ``shard`` and has this
        manager's ``k`` channels.  A failed check raises
        :class:`~repro.errors.MigrationError` and installs nothing.
        Idempotent: a retried adopt installs the same state again.
        :meth:`recover` rebuilds it."""
        frames, _consumed, torn = decode_frames(blob)
        if torn or len(frames) != 1:
            raise MigrationError(
                f"handoff for shard {shard} is not one CRC-valid frame "
                f"({len(blob)} bytes)"
            )
        payload = frames[0]
        parts, _consumed, _torn = decode_frames(payload)
        if not parts:
            raise MigrationError(
                f"handoff for shard {shard} has no snapshot frame"
            )
        records, _consumed, torn = decode_records(
            payload[FRAME_HEADER_SIZE + len(parts[0]) :]
        )
        if torn:
            raise MigrationError(
                f"handoff for shard {shard} carries a torn journal"
            )
        snapshot = None
        if parts[0]:
            try:
                snapshot = decode_snapshot(parts[0])
            except DurabilityError as exc:
                raise MigrationError(
                    f"handoff for shard {shard}: {exc}"
                ) from exc
            if snapshot.shard != shard or len(snapshot.busy) != self.k:
                raise MigrationError(
                    f"handoff for shard {shard} carries a snapshot of shard "
                    f"{snapshot.shard} with {len(snapshot.busy)} channels "
                    f"(k={self.k} here)"
                )
        self.release(shard)
        if snapshot is not None:
            self.store.save(snapshot)
        self.journal(shard).rewrite_records(records)
        return len(records)

    def release(self, shard: int) -> None:
        """Close ``shard``'s journal and delete its journal and snapshots
        (idempotent; a no-op for a shard this manager never held)."""
        journal = self._journals.pop(shard, None)
        if journal is not None:
            journal.close()
        if self._directory is not None:
            self._wal_path(shard).unlink(missing_ok=True)
        self.store.discard(shard)

    def close(self) -> None:
        for journal in self._journals.values():
            journal.close()
        self.store.close()
