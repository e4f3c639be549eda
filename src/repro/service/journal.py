"""Per-shard write-ahead journal: append-only, CRC-checked, torn-tolerant.

The durability layer's ground truth.  Every state-changing event on a shard
— a request accepted into its queue, requests dequeued, a grant committed,
the slot clock advancing, a fault — is journaled *before* the effect is
applied, so a crash at any instant leaves a journal from which the exact
pre-crash state can be rebuilt (``docs/ROBUSTNESS.md``, "Durability &
recovery").

Wire format
-----------
One record is::

    +----------------+----------------+--------------------------------+
    | body length u32| CRC32(body) u32| body                           |
    +----------------+----------------+--------------------------------+
    body = type u8 | tick i64 | n_values u16 | values (n_values × i64)

all big-endian.  The ``length + CRC32`` envelope is the shared frame codec
:mod:`repro.util.framing` (also the wire protocol's envelope — one codec,
one test suite); the body layout is :data:`_BODY_HEAD`.  Decoding walks the
buffer record by record and **stops at the first short or CRC-failing
record**: a torn tail (power loss mid-write) costs at most the record being
written, never the prefix.  :func:`decode_records` reports the torn tail
explicitly so recovery telemetry can count it.

Record types and their replay semantics (see
:func:`repro.service.durability.replay_journal`):

==========  ==============================================  =============
type        values                                          replay effect
==========  ==============================================  =============
ACCEPT      (input, wavelength, output, duration,           queue.append
            priority, tenant)
DEQUEUE     (count,)                                        pop ``count``
GRANT       (input, wavelength, channel, duration) × n      busy[ch] = dur
ADVANCE     () or (count,)                                  busy decays 1
                                                            (or ``count``)
FAULT       (kind, a, b)                                    none (audit)
SNAPSHOT    (snapshot tick,)                                none (marker)
EVICT       (index,)                                        del queue[idx]
==========  ==============================================  =============

Every journal is written by this package, so ``ACCEPT`` has one form: the
six :func:`request_tuple` values.  Replay raises
:class:`~repro.errors.DurabilityError` on any other count.  ``EVICT`` is the
admission-control shed: unlike ``DEQUEUE`` (which only pops the front),
it removes the victim at an arbitrary queue index chosen by the
per-tenant shed policy (:meth:`repro.service.queue.BoundedQueue.plan_admit`).

``GRANT`` records hold one *or more* grant 4-tuples back to back — the
server journals a whole tick's grants for a shard as one record
(:meth:`ShardJournal.grant_batch`), which keeps the write-ahead step off
the tick-latency budget (``bench_journal``'s <10% gate).

``ADVANCE`` likewise batches: a record with no values advances one tick
(the historical form), while ``values = (count,)`` advances ``count``
consecutive ticks starting at ``record.tick``.  The tick-window server
defers idle-tick advances (:meth:`ShardJournal.defer_advance`) and
coalesces a run into one record; any other append — or an explicit
:meth:`ShardJournal.flush_deferred` — flushes the run first, so batches
only ever span ticks where *nothing else happened* on the shard and the
write-ahead ordering is preserved record for record.

Backends are duck-typed byte sinks (:class:`MemoryJournal`,
:class:`FileJournal`); :class:`repro.faults.TornWriter` wraps one to sever
an append mid-record for the torn-write tests.
"""

from __future__ import annotations

import os
import struct
import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import InvalidParameterError
from repro.util.framing import FRAME_HEADER, decode_frames

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.distributed import SlotRequest
    from repro.service.telemetry import Telemetry

__all__ = [
    "RecordType",
    "JournalRecord",
    "encode_record",
    "decode_records",
    "JournalBackend",
    "MemoryJournal",
    "FileJournal",
    "ShardJournal",
    "FAULT_CRASH",
    "FAULT_OUTAGE",
    "FAULT_DEGRADATION",
    "request_tuple",
    "request_from_tuple",
]


class RecordType(IntEnum):
    """Journal record discriminator (the ``type`` byte on the wire)."""

    ACCEPT = 1
    DEQUEUE = 2
    GRANT = 3
    ADVANCE = 4
    FAULT = 5
    SNAPSHOT = 6
    EVICT = 7


#: ``FAULT`` record kinds (first value).
FAULT_CRASH = 0
FAULT_OUTAGE = 1
FAULT_DEGRADATION = 2

#: The record envelope is the shared frame codec (repro.util.framing).
_HEADER = FRAME_HEADER
_BODY_HEAD = struct.Struct("!BqH")  # record type, tick, n_values
_MAX_VALUES = 0xFFFF

#: Whole-body structs keyed by value count: one ``pack`` per record on the
#: hot path instead of two packs plus a concat.
_BODY_STRUCTS: dict[int, struct.Struct] = {}


def _body_struct(n_values: int) -> struct.Struct:
    s = _BODY_STRUCTS.get(n_values)
    if s is None:
        s = _BODY_STRUCTS[n_values] = struct.Struct(f"!BqH{n_values}q")
    return s


@dataclass(frozen=True, slots=True)
class JournalRecord:
    """One decoded journal record: ``(type, tick, values)``."""

    type: RecordType
    tick: int
    values: tuple[int, ...] = ()


def encode_record(record: JournalRecord) -> bytes:
    """Serialize one record (length + CRC header, then the body)."""
    values = record.values
    n = len(values)
    if n > _MAX_VALUES:
        raise InvalidParameterError(
            f"journal record has {n} values, max {_MAX_VALUES}"
        )
    body = _body_struct(n).pack(int(record.type), record.tick, n, *values)
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def _decode_body(body: bytes) -> JournalRecord:
    rtype, tick, n_values = _BODY_HEAD.unpack_from(body)
    if len(body) != _BODY_HEAD.size + 8 * n_values:
        raise ValueError("journal body length disagrees with its value count")
    values = (
        struct.unpack_from(f"!{n_values}q", body, _BODY_HEAD.size)
        if n_values
        else ()
    )
    return JournalRecord(RecordType(rtype), tick, tuple(values))


def decode_records(buf: bytes) -> tuple[list[JournalRecord], int, bool]:
    """Decode every valid record from ``buf``'s start.

    Returns ``(records, consumed_bytes, torn)``: ``torn`` is True when
    trailing bytes remain that do not form a complete, CRC-valid record —
    the signature of a write severed by a crash.  Decoding never raises on
    bad input; a corrupt record simply ends the valid prefix.

    The frame walk is the shared tolerant decoder
    (:func:`repro.util.framing.decode_frames`); this function adds only the
    journal-body decode, treating an undecodable body exactly like a torn
    frame (the walk stops, the prefix survives).
    """
    bodies, consumed, torn = decode_frames(buf, min_payload=_BODY_HEAD.size)
    records: list[JournalRecord] = []
    off = 0
    for body in bodies:
        try:
            records.append(_decode_body(body))
        except (struct.error, ValueError):
            return records, off, True
        off += _HEADER.size + len(body)
    return records, consumed, torn


def _entry_key(record: JournalRecord) -> int:
    """The compaction key of a record: the *last* tick its effect covers.

    For a batched ``ADVANCE`` (``values = (count,)``) that is the end tick
    ``tick + count - 1``; for everything else it is ``record.tick``.  Keying
    the in-memory mirror on the end tick means :meth:`ShardJournal.compact`
    can never drop a batch whose run spans the snapshot cutoff — replay
    handles the partially-covered record instead
    (:func:`repro.service.durability.replay_journal`).
    """
    if record.type is RecordType.ADVANCE and record.values:
        return record.tick + record.values[0] - 1
    return record.tick


def request_tuple(request: "SlotRequest") -> tuple[int, int, int, int, int, int]:
    """The journal/snapshot encoding of a request (6 small ints)."""
    return (
        request.input_fiber,
        request.wavelength,
        request.output_fiber,
        request.duration,
        request.priority,
        request.tenant,
    )


def request_from_tuple(values: Sequence[int]) -> "SlotRequest":
    """Inverse of :func:`request_tuple` (exactly six values)."""
    from repro.core.distributed import SlotRequest

    i, w, o, duration, priority, tenant = values
    return SlotRequest(
        int(i), int(w), int(o), int(duration), int(priority), int(tenant)
    )


# -- backends ----------------------------------------------------------------


class JournalBackend(ABC):
    """A durable append-only byte sink.

    ``append`` buffers, ``flush`` makes the bytes durable (for the file
    backend: OS write, plus ``fsync`` when configured), ``load`` reads back
    exactly the durable bytes, ``rewrite`` atomically replaces the whole
    journal (compaction).  :class:`repro.faults.TornWriter` duck-types this
    interface to sever appends mid-record.
    """

    @abstractmethod
    def append(self, data: bytes) -> None: ...

    @abstractmethod
    def flush(self) -> None: ...

    @abstractmethod
    def load(self) -> bytes: ...

    @abstractmethod
    def rewrite(self, data: bytes) -> None: ...

    def close(self) -> None:  # pragma: no cover - trivial default
        pass


class MemoryJournal(JournalBackend):
    """In-memory backend: survives worker crashes (the server outlives its
    workers, like the queues do), not process death.  The default — and the
    backend the <10% tick-latency budget in ``bench_journal`` is for."""

    def __init__(self) -> None:
        self._buf = bytearray()
        self.flushes = 0

    def append(self, data: bytes) -> None:
        self._buf += data

    def flush(self) -> None:
        self.flushes += 1

    def load(self) -> bytes:
        return bytes(self._buf)

    def rewrite(self, data: bytes) -> None:
        self._buf = bytearray(data)

    def __len__(self) -> int:
        return len(self._buf)


class FileJournal(JournalBackend):
    """Append-only file backend (``fsync=True`` for power-loss durability).

    ``rewrite`` goes through a temp file + :func:`os.replace` so compaction
    is atomic: a crash leaves either the old or the new journal, never a
    mix.
    """

    def __init__(self, path: str | os.PathLike, fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = bool(fsync)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "ab")

    def append(self, data: bytes) -> None:
        self._fh.write(data)

    def flush(self) -> None:
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def load(self) -> bytes:
        self.flush()
        return self.path.read_bytes()

    def rewrite(self, data: bytes) -> None:
        self._fh.close()
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_bytes(data)
        os.replace(tmp, self.path)
        self._fh = open(self.path, "ab")

    def close(self) -> None:
        self._fh.close()


# -- the per-shard journal ---------------------------------------------------


class ShardJournal:
    """One shard's write-ahead journal over a :class:`JournalBackend`.

    Every append is encoded, handed to the backend, and flushed before the
    caller applies the corresponding effect — write-ahead in the literal
    order.  An in-memory mirror of ``(tick, encoded bytes)`` pairs serves
    compaction without re-encoding; :meth:`reload` re-decodes the
    *durable* bytes, which is what recovery uses (so torn tails are
    observed exactly as a restarted process would see them).

    The per-type appenders pack their record in a single precompiled
    ``struct`` call and batch the telemetry counters (flushed once per
    tick from :meth:`advance`, and on :meth:`close`): this class sits on
    the service's tick path and is what the <10% ``bench_journal``
    latency budget is spent on.

    Opening a journal over a backend with existing bytes (a restarted
    process reopening its ``.wal`` file) adopts the decodable prefix.
    """

    def __init__(
        self,
        backend: JournalBackend,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self._backend = backend
        self._entries: list[tuple[int, bytes]] = []
        existing = backend.load()
        if existing:
            adopted, _, _ = decode_records(existing)
            self._entries = [(_entry_key(r), encode_record(r)) for r in adopted]
        self._pending_records = 0
        self._pending_bytes = 0
        # Deferred-ADVANCE run: [start, start + count) not yet journaled.
        self._deferred_start = 0
        self._deferred_count = 0
        if telemetry is not None:
            self._c_records = telemetry.counter("durability.journal.records")
            self._c_bytes = telemetry.counter("durability.journal.bytes")
        else:
            self._c_records = None
            self._c_bytes = None

    @property
    def backend(self) -> JournalBackend:
        return self._backend

    def _append_bytes(self, tick: int, data: bytes) -> None:
        """The WAL step: durable first, mirror and accounting after."""
        self._backend.append(data)
        self._backend.flush()
        self._entries.append((tick, data))
        self._pending_records += 1
        self._pending_bytes += len(data)

    def _flush_counters(self) -> None:
        if self._c_records is not None and self._pending_records:
            self._c_records.inc(self._pending_records)
            self._c_bytes.inc(self._pending_bytes)
            self._pending_records = 0
            self._pending_bytes = 0

    def append(self, record: JournalRecord) -> None:
        """Encode, append, and flush ``record`` (the WAL step)."""
        if self._deferred_count:
            self.flush_deferred()
        self._append_bytes(_entry_key(record), encode_record(record))

    # Convenience appenders, one per record type.

    def accept(self, tick: int, request: "SlotRequest") -> None:
        if self._deferred_count:
            self.flush_deferred()
        body = _body_struct(6).pack(
            _T_ACCEPT,
            tick,
            6,
            request.input_fiber,
            request.wavelength,
            request.output_fiber,
            request.duration,
            request.priority,
            request.tenant,
        )
        self._append_bytes(
            tick, _HEADER.pack(len(body), zlib.crc32(body)) + body
        )

    def dequeue(self, tick: int, count: int) -> None:
        if self._deferred_count:
            self.flush_deferred()
        body = _body_struct(1).pack(_T_DEQUEUE, tick, 1, count)
        self._append_bytes(
            tick, _HEADER.pack(len(body), zlib.crc32(body)) + body
        )

    def evict(self, tick: int, index: int) -> None:
        """Journal an admission-control shed of ``queue[index]`` (the
        write-ahead step of :data:`RecordType.EVICT`)."""
        if self._deferred_count:
            self.flush_deferred()
        body = _body_struct(1).pack(_T_EVICT, tick, 1, index)
        self._append_bytes(
            tick, _HEADER.pack(len(body), zlib.crc32(body)) + body
        )

    def grant(
        self, tick: int, input_fiber: int, wavelength: int, channel: int,
        duration: int,
    ) -> None:
        self.grant_batch(tick, ((input_fiber, wavelength, channel, duration),))

    def grant_batch(
        self,
        tick: int,
        grants: Iterable[tuple[int, int, int, int]],
    ) -> None:
        """Journal a whole tick's grants for this shard as one ``GRANT``
        record of back-to-back ``(input, wavelength, channel, duration)``
        4-tuples."""
        if self._deferred_count:
            self.flush_deferred()
        values: list[int] = []
        for g in grants:
            values.extend(g)
        n = len(values)
        body = _body_struct(n).pack(_T_GRANT, tick, n, *values)
        self._append_bytes(
            tick, _HEADER.pack(len(body), zlib.crc32(body)) + body
        )

    def advance(self, tick: int) -> None:
        if self._deferred_count:
            self.flush_deferred()
        body = _body_struct(0).pack(_T_ADVANCE, tick, 0)
        self._append_bytes(
            tick, _HEADER.pack(len(body), zlib.crc32(body)) + body
        )
        self._flush_counters()

    def defer_advance(self, tick: int) -> None:
        """Buffer tick ``tick``'s ADVANCE for coalescing.

        Consecutive deferred ticks accumulate into one run; the run is
        journaled as a single batched ``ADVANCE`` record by
        :meth:`flush_deferred` — which every *other* appender calls first,
        so a run only ever spans ticks where nothing else happened on this
        shard and the journal's record order still equals the event order.
        A non-consecutive tick flushes the old run and starts a new one.

        Callers (the tick-window server loop) must ensure a deferred tick's
        effect is applied exactly like :meth:`advance`'s; the write-ahead
        guarantee weakens only for *idle* ticks: a crash between deferral
        and flush loses at most the pure clock advances of the open window,
        which recovery re-derives from the resume tick.
        """
        if (
            self._deferred_count
            and tick == self._deferred_start + self._deferred_count
        ):
            self._deferred_count += 1
            return
        if self._deferred_count:
            self.flush_deferred()
        self._deferred_start = tick
        self._deferred_count = 1

    def flush_deferred(self) -> None:
        """Journal the pending deferred-ADVANCE run (no-op when empty).

        A run of one is written in the historical no-values form; a longer
        run becomes one ``ADVANCE`` record with ``values = (count,)`` at
        the run's start tick, mirrored under its *end* tick
        (:func:`_entry_key`) so compaction keeps spanning batches.
        """
        count = self._deferred_count
        if not count:
            return
        self._deferred_count = 0
        start = self._deferred_start
        if count == 1:
            body = _body_struct(0).pack(_T_ADVANCE, start, 0)
        else:
            body = _body_struct(1).pack(_T_ADVANCE, start, 1, count)
        self._append_bytes(
            start + count - 1, _HEADER.pack(len(body), zlib.crc32(body)) + body
        )
        self._flush_counters()

    def fault(self, tick: int, kind: int, a: int = 0, b: int = 0) -> None:
        self.append(JournalRecord(RecordType.FAULT, tick, (kind, a, b)))

    def snapshot_mark(self, tick: int) -> None:
        self.append(JournalRecord(RecordType.SNAPSHOT, tick, (tick,)))

    # Reads and maintenance.

    def records(self) -> tuple[JournalRecord, ...]:
        """The in-memory mirror, decoded (tests and introspection)."""
        if self._deferred_count:
            self.flush_deferred()
        decoded, _, _ = decode_records(
            b"".join(data for _tick, data in self._entries)
        )
        return tuple(decoded)

    def reload(self) -> tuple[list[JournalRecord], bool]:
        """Decode the durable bytes; returns ``(records, torn_tail)``.

        This — not the mirror — is what recovery replays: it proves the
        state was actually journaled, and it observes torn tails.
        """
        if self._deferred_count:
            self.flush_deferred()
        self._flush_counters()
        records, _, torn = decode_records(self._backend.load())
        return records, torn

    def compact(self, before_tick: int) -> int:
        """Drop records with ``tick < before_tick`` (covered by a retained
        snapshot); atomically rewrites the backend.  Returns records kept.

        The mirror is keyed on each record's *last* covered tick
        (:func:`_entry_key`), so a batched ``ADVANCE`` whose run spans
        ``before_tick`` is retained and replay clips it."""
        if self._deferred_count:
            self.flush_deferred()
        kept = [e for e in self._entries if e[0] >= before_tick]
        if len(kept) != len(self._entries):
            self._backend.rewrite(b"".join(data for _tick, data in kept))
            self._entries = kept
        return len(kept)

    def rewrite_records(self, records: "Iterable[JournalRecord]") -> None:
        """Atomically replace the whole journal with ``records``.

        Recovery-time surgery: the multi-process shard workers use this to
        strip the write-ahead of an in-flight tick (trailing GRANTs with
        no ADVANCE) after a process kill, so replay and the parent's
        redelivered tick cannot double-apply them."""
        if self._deferred_count:
            self.flush_deferred()
        entries = [(_entry_key(r), encode_record(r)) for r in records]
        self._backend.rewrite(b"".join(data for _tick, data in entries))
        self._entries = entries

    def close(self) -> None:
        if self._deferred_count:
            self.flush_deferred()
        self._flush_counters()
        self._backend.close()


#: Plain-int record types for the hot appenders (skips IntEnum coercion).
_T_ACCEPT = int(RecordType.ACCEPT)
_T_DEQUEUE = int(RecordType.DEQUEUE)
_T_GRANT = int(RecordType.GRANT)
_T_ADVANCE = int(RecordType.ADVANCE)
_T_EVICT = int(RecordType.EVICT)
