"""Periodic shard snapshots: the journal's compaction anchor.

A :class:`ShardSnapshot` captures everything a shard needs to resume —
the cross-slot ``busy[]`` residuals, the tick the state is valid
*entering*, the queued request tuples, and the grant policy's RNG state —
so recovery is ``latest valid snapshot + deterministic journal replay``
instead of an unbounded replay from tick 0.

Encoding is a single CRC-guarded blob::

    magic "RSNP" | version u16 | body length u32 | CRC32(body) u32 | body
    body = shard i64 | tick i64 | k u32 | n_queue u32 | policy_len u32
           | busy (k × i64) | queue (n_queue × 6 i64) | policy JSON bytes

Every snapshot is written by this package, so the decoder reads exactly
one version (2; queue entries carry the tenant as the sixth int).  Any
other version, v1's 5-int entries included, raises
:class:`~repro.errors.DurabilityError`.

Corruption anywhere raises :class:`~repro.errors.DurabilityError` on
decode; stores therefore *skip* invalid snapshots when asked for the
latest one (a half-written snapshot must never beat an older valid one).
The file store additionally writes via temp-file + :func:`os.replace`, so
a crash mid-snapshot leaves no partially visible file at the final name.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path

from repro.errors import DurabilityError, InvalidParameterError

__all__ = [
    "ShardSnapshot",
    "encode_snapshot",
    "decode_snapshot",
    "SnapshotStore",
    "MemorySnapshotStore",
    "FileSnapshotStore",
]

_MAGIC = b"RSNP"
_VERSION = 2
_ENTRY = struct.Struct("!6q")  # one queue entry (request_tuple form)
_PREFIX = struct.Struct("!4sHII")  # magic, version, body length, CRC32(body)
_BODY_HEAD = struct.Struct("!qqIII")  # shard, tick, k, n_queue, policy_len


@dataclass(frozen=True, slots=True)
class ShardSnapshot:
    """One shard's full durable state entering ``tick``.

    ``queue`` holds request 6-tuples (input, wavelength, output, duration,
    priority, tenant) in FIFO order; ``policy_state`` is the grant policy's
    JSON-encodable export (``None`` for stateless policies).  Deadlines and
    submit timestamps are deliberately *not* durable: they are wall-clock
    quantities that do not survive a process, and the idempotency contract
    (``docs/SERVICE.md``) covers the callers they belonged to.
    """

    shard: int
    tick: int
    busy: tuple[int, ...]
    queue: tuple[tuple[int, int, int, int, int, int], ...] = ()
    policy_state: object | None = None


def encode_snapshot(snapshot: ShardSnapshot) -> bytes:
    """Serialize with magic, version, length, and CRC."""
    k = len(snapshot.busy)
    policy = json.dumps(snapshot.policy_state).encode("utf-8")
    body = _BODY_HEAD.pack(
        snapshot.shard, snapshot.tick, k, len(snapshot.queue), len(policy)
    )
    if k:
        body += struct.pack(f"!{k}q", *snapshot.busy)
    for entry in snapshot.queue:
        body += _ENTRY.pack(*entry)
    body += policy
    return _PREFIX.pack(_MAGIC, _VERSION, len(body), zlib.crc32(body)) + body


def decode_snapshot(data: bytes) -> ShardSnapshot:
    """Inverse of :func:`encode_snapshot`; raises
    :class:`~repro.errors.DurabilityError` on any corruption."""
    try:
        magic, version, length, crc = _PREFIX.unpack_from(data)
    except struct.error as exc:
        raise DurabilityError(f"snapshot too short: {len(data)} bytes") from exc
    if magic != _MAGIC:
        raise DurabilityError(f"bad snapshot magic {magic!r}")
    if version != _VERSION:
        raise DurabilityError(f"unsupported snapshot version {version}")
    body = data[_PREFIX.size : _PREFIX.size + length]
    if len(body) != length or zlib.crc32(body) != crc:
        raise DurabilityError("snapshot body truncated or CRC mismatch")
    try:
        shard, tick, k, n_queue, policy_len = _BODY_HEAD.unpack_from(body)
        off = _BODY_HEAD.size
        busy = struct.unpack_from(f"!{k}q", body, off) if k else ()
        off += 8 * k
        queue = []
        for _ in range(n_queue):
            queue.append(_ENTRY.unpack_from(body, off))
            off += _ENTRY.size
        policy_bytes = body[off : off + policy_len]
        if len(policy_bytes) != policy_len:
            raise DurabilityError("snapshot policy state truncated")
        policy_state = json.loads(policy_bytes.decode("utf-8"))
    except (struct.error, ValueError) as exc:
        raise DurabilityError(f"snapshot body undecodable: {exc}") from exc
    return ShardSnapshot(shard, tick, tuple(busy), tuple(queue), policy_state)


# -- stores ------------------------------------------------------------------


class SnapshotStore(ABC):
    """Keeps the encoded snapshots per shard.

    Both stores keep *encoded* bytes and decode on read — the codec (and
    its corruption detection) is exercised on every recovery, not just in
    codec unit tests.
    """

    @abstractmethod
    def save(self, snapshot: ShardSnapshot) -> None: ...

    @abstractmethod
    def latest(self, shard: int) -> ShardSnapshot | None:
        """Newest snapshot for ``shard`` that decodes cleanly (corrupt
        ones are skipped, falling back to older snapshots)."""

    @abstractmethod
    def ticks(self, shard: int) -> tuple[int, ...]:
        """Ticks of the retained snapshots for ``shard``, ascending."""

    @abstractmethod
    def prune(self, shard: int, retain: int) -> None:
        """Keep only the newest ``retain`` snapshots for ``shard``."""

    @abstractmethod
    def discard(self, shard: int, after: int | None = None) -> None:
        """Delete ``shard``'s snapshots taken after tick ``after`` (every
        one of them when ``None``)."""

    def close(self) -> None:  # pragma: no cover - trivial default
        pass


class MemorySnapshotStore(SnapshotStore):
    """Dict-of-bytes store (default; pairs with :class:`MemoryJournal`)."""

    def __init__(self) -> None:
        self._blobs: dict[int, list[tuple[int, bytes]]] = {}

    def save(self, snapshot: ShardSnapshot) -> None:
        blobs = self._blobs.setdefault(snapshot.shard, [])
        blobs.append((snapshot.tick, encode_snapshot(snapshot)))
        blobs.sort(key=lambda entry: entry[0])

    def latest(self, shard: int) -> ShardSnapshot | None:
        for _tick, blob in reversed(self._blobs.get(shard, [])):
            try:
                return decode_snapshot(blob)
            except DurabilityError:
                continue
        return None

    def ticks(self, shard: int) -> tuple[int, ...]:
        return tuple(t for t, _ in self._blobs.get(shard, []))

    def prune(self, shard: int, retain: int) -> None:
        blobs = self._blobs.get(shard)
        if blobs is not None and len(blobs) > retain:
            del blobs[: len(blobs) - retain]

    def discard(self, shard: int, after: int | None = None) -> None:
        if after is None:
            self._blobs.pop(shard, None)
        elif shard in self._blobs:
            self._blobs[shard] = [
                entry for entry in self._blobs[shard] if entry[0] <= after
            ]


class FileSnapshotStore(SnapshotStore):
    """One file per snapshot: ``shard-SSSS.tick-TTTTTTTTTTTT.snap``.

    Writes go to a temp file first and are moved into place atomically, so
    ``latest`` never sees a half-written snapshot at a final name — and if
    it somehow did (torn disk), the CRC check skips it.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, shard: int, tick: int) -> Path:
        return self.directory / f"shard-{shard:04d}.tick-{tick:012d}.snap"

    def _paths(self, shard: int) -> list[Path]:
        return sorted(self.directory.glob(f"shard-{shard:04d}.tick-*.snap"))

    def save(self, snapshot: ShardSnapshot) -> None:
        final = self._path(snapshot.shard, snapshot.tick)
        tmp = final.with_suffix(".tmp")
        tmp.write_bytes(encode_snapshot(snapshot))
        os.replace(tmp, final)

    def latest(self, shard: int) -> ShardSnapshot | None:
        for path in reversed(self._paths(shard)):
            try:
                return decode_snapshot(path.read_bytes())
            except (DurabilityError, OSError):
                continue
        return None

    def _ticked(self, shard: int) -> list[tuple[int, Path]]:
        """``(tick, path)`` of every snapshot file whose name parses."""
        out = []
        for path in self._paths(shard):
            try:
                out.append((int(path.stem.rsplit("tick-", 1)[1]), path))
            except (IndexError, ValueError):
                continue
        return out

    def ticks(self, shard: int) -> tuple[int, ...]:
        return tuple(tick for tick, _path in self._ticked(shard))

    def prune(self, shard: int, retain: int) -> None:
        if retain < 0:
            raise InvalidParameterError(f"retain must be >= 0, got {retain}")
        paths = self._paths(shard)
        for path in paths[: max(0, len(paths) - retain)]:
            path.unlink(missing_ok=True)

    def discard(self, shard: int, after: int | None = None) -> None:
        for tick, path in self._ticked(shard):
            if after is None or tick > after:
                path.unlink(missing_ok=True)
