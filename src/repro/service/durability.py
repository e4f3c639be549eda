"""Crash-consistent shard durability: snapshot + journal-suffix replay.

:class:`DurabilityManager` owns one write-ahead journal
(:mod:`repro.service.journal`) and one snapshot store
(:mod:`repro.service.snapshot`) per shard and implements the recovery
contract the kill-at-every-tick test gates on
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

The manager never touches worker objects (symmetry with
:class:`~repro.service.supervisor.ShardSupervisor`): the server journals
events, asks :meth:`DurabilityManager.maybe_snapshot` at tick boundaries,
and applies :meth:`DurabilityManager.recover`'s result to a fresh worker.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import DurabilityError, InvalidParameterError
from repro.service.journal import (
    FileJournal,
    JournalRecord,
    MemoryJournal,
    RecordType,
    ShardJournal,
)
from repro.service.snapshot import (
    FileSnapshotStore,
    MemorySnapshotStore,
    ShardSnapshot,
    SnapshotStore,
)
from repro.service.telemetry import exponential_buckets
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
    """Per-shard journals + snapshot store + the recovery path."""

    def __init__(
        self,
        config: DurabilityConfig,
        n_shards: int,
        k: int,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self.config = config
        self.k = k
        if config.backend == "file":
            directory = Path(config.directory)  # type: ignore[arg-type]
            self._journals = [
                ShardJournal(
                    FileJournal(
                        directory / f"shard-{o:04d}.wal", fsync=config.fsync
                    ),
                    telemetry,
                )
                for o in range(n_shards)
            ]
            self.store: SnapshotStore = FileSnapshotStore(directory)
        else:
            self._journals = [
                ShardJournal(MemoryJournal(), telemetry) for _ in range(n_shards)
            ]
            self.store = MemorySnapshotStore()
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
        return self._journals[shard]

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
        snapshots, and compact the journal up to the oldest retained one."""
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
        journal = self._journals[shard]
        journal.snapshot_mark(entering_tick)
        retained = self.store.ticks(shard)
        if retained:
            journal.compact(retained[0])
        if self._c_snapshots is not None:
            self._c_snapshots.inc()

    # -- recovery ------------------------------------------------------------

    def recover(self, shard: int) -> RecoveredShardState:
        """Rebuild ``shard``'s state from durable bytes only.

        Reads the snapshot store and re-decodes the journal's durable
        bytes (not the in-memory mirror), so the result is exactly what a
        restarted process would reconstruct — including tolerance of a
        torn record at the journal tail.
        """
        t0 = time.perf_counter()
        snapshot = self.store.latest(shard)
        records, torn = self._journals[shard].reload()
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

    def close(self) -> None:
        for journal in self._journals:
            journal.close()
        self.store.close()
