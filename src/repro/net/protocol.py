"""Typed binary messages for the scheduling service's TCP front door.

Every message is one frame (:mod:`repro.util.framing`) whose payload is a
one-byte type tag followed by a big-endian body.  The codec is
deliberately tiny: :func:`encode_message` produces the *payload* (the
transport frames it), :func:`decode_message` parses one payload back and
raises a typed :class:`~repro.errors.ProtocolError` on anything it cannot
act on — an unknown tag, a short body, trailing garbage.  Arbitrary bytes
must never surface as a bare ``struct.error`` or hang a reader.

Connection lifecycle::

    client                                server
      | -- HELLO [versions I speak] -------> |
      | <-- WELCOME [version, n_fibers, k] - |   (or ERROR + close)
      | -- SUBMIT_BATCH [seq=1..n rows] ---> |   (one per loop turn)
      | -- TICK_ADVANCE -------------------> |
      | <-- OUTCOMES [seq=1..n rows] ------- |   (one per loop turn)
      | <-- TICK_DONE slot ... ------------- |   (after that tick's OUTCOMES)
      | -- BYE ----------------------------> |   (clean shutdown)

A slot's requests travel as rows, not messages: the client queues every
request of one event-loop turn into one SUBMIT_BATCH, and the server
answers every request resolved in one loop turn with one OUTCOMES.  A
batch that would exceed :data:`MAX_MESSAGE` is split into several
(:func:`submit_batches`, :func:`outcome_batches`).

``seq`` is a per-connection client-chosen correlation id (> 0) carried by
each SUBMIT_BATCH row; the server echoes it on that request's OUTCOMES
row (or ERROR), so outcomes can arrive in any order.  ``seq == 0`` on an
ERROR means the error is connection-level (handshake violation, corrupt
frame) and the server will close.

Every client and server is built from this package, so there is exactly
one message set, :data:`PROTOCOL_VERSION`.  HELLO carries a list of
versions so that a peer whose list lacks :data:`PROTOCOL_VERSION` (any
pre-v6 build) still decodes cleanly and is answered ERROR
``NO_COMMON_VERSION``, then closed.

The message set:

* ``HELLO`` / ``WELCOME`` / ``ERROR`` / ``BYE`` — handshake, typed
  failures, clean shutdown.
* ``SUBMIT_BATCH`` (0x0F) — a u16 row count, then that many
  :class:`Submit` rows (one slot request each; every row carries the
  ``tenant`` u32 after ``priority`` and its own ``request_id``).
* ``OUTCOMES`` (0x10) — a u16 row count, then that many fixed rows, one
  per resolved ``seq``: a :class:`Grant`'s channel and slot, or a
  :class:`Reject`'s :class:`~repro.service.server.RejectReason` code
  (verbatim) and slot.
* ``TICK_ADVANCE`` / ``TICK_DONE`` — drive ticks, report the next slot.
* ``MIGRATE`` (0x0B) / ``MIGRATED`` (0x0C) — admin: live-migrate one
  shard to a destination worker and receive the migration report (see
  :mod:`repro.service.resharding`); servers whose backing service cannot
  migrate answer ERROR ``BAD_REQUEST``.
* ``PING`` (0x0D) / ``PONG`` (0x0E) — liveness heartbeat; the PONG
  echoes the PING's token and carries the server's current slot, so a
  reconnecting client resyncs its logical clock from it.

Retired tags are never reused and decode as unknown: 0x05–0x07 (one
SUBMIT, GRANT or REJECT per frame, before rows were batched) and 0x0A (a
tenant-only submit).

``timeout_ticks`` on a SUBMIT row is a deterministic deadline: ``submit
slot + timeout_ticks`` on the *server's* logical clock, so an expired
request resolves ``TIMED_OUT`` instead of waiting out a partition.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from repro.core.distributed import SlotRequest
from repro.errors import ProtocolError
from repro.service.server import RejectReason

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_MESSAGE",
    "MsgType",
    "ErrorCode",
    "Hello",
    "Welcome",
    "ErrorMsg",
    "Bye",
    "Submit",
    "SubmitBatch",
    "Grant",
    "Reject",
    "Outcomes",
    "TickAdvance",
    "TickDone",
    "Migrate",
    "Migrated",
    "Ping",
    "Pong",
    "Message",
    "encode_message",
    "decode_message",
    "encode_submit_row",
    "submit_batches",
    "outcome_batches",
    "reject_reason_code",
    "reject_reason_from_code",
]

#: The one protocol version this build speaks.
PROTOCOL_VERSION = 6

#: Upper bound on one message payload; a protocol frame beyond this is
#: corruption, not a big message.  SUBMIT_BATCH and OUTCOMES are split to
#: fit (one PERF-D slot is about 9 KB of SUBMIT rows).
MAX_MESSAGE = 65536


class MsgType(enum.IntEnum):
    """One-byte message tags (never renumber or reuse; append only).

    Retired: 0x05–0x07 carried one SUBMIT, GRANT or REJECT per frame
    before SUBMIT_BATCH and OUTCOMES; 0x0A carried a tenant-only submit
    before SUBMIT always had a tenant."""

    HELLO = 0x01
    WELCOME = 0x02
    ERROR = 0x03
    BYE = 0x04
    TICK_ADVANCE = 0x08
    TICK_DONE = 0x09
    #: Admin request — live-migrate one shard.
    MIGRATE = 0x0B
    #: The MIGRATE's report.
    MIGRATED = 0x0C
    #: Liveness probe (client → server).
    PING = 0x0D
    #: Heartbeat reply — echoes the token, carries the server's current
    #: slot (the reconnect clock-resync source).
    PONG = 0x0E
    #: Every SUBMIT row one client loop turn queued.
    SUBMIT_BATCH = 0x0F
    #: One GRANT/REJECT row per request resolved in one server loop turn.
    OUTCOMES = 0x10


class ErrorCode(enum.IntEnum):
    """Stable codes carried by :class:`ErrorMsg` (append only)."""

    #: HELLO did not list :data:`PROTOCOL_VERSION`.
    NO_COMMON_VERSION = 1
    #: A message arrived before (or instead of) the HELLO handshake.
    HANDSHAKE_REQUIRED = 2
    #: The message body failed validation (bad fiber/wavelength/seq).
    BAD_REQUEST = 3
    #: The server is shutting down; in-flight work resolves SHUTDOWN.
    SHUTTING_DOWN = 4
    #: Anything else the server could not act on.
    INTERNAL = 5
    #: The byte *stream* is corrupt (CRC mismatch / absurd length): the
    #: connection dies, but the peer said nothing wrong — clients treat
    #: this as connection loss (reconnect), not a protocol violation.
    BAD_FRAME = 6


# -- stable RejectReason <-> u8 codes ---------------------------------------

#: Wire codes for :class:`~repro.service.server.RejectReason` (append only;
#: the enum's *names* are the contract, not its definition order).
_REASON_CODES: dict[RejectReason, int] = {
    RejectReason.CONTENTION: 1,
    RejectReason.SOURCE_BLOCKED: 2,
    RejectReason.QUEUE_FULL: 3,
    RejectReason.DROPPED: 4,
    RejectReason.TIMED_OUT: 5,
    RejectReason.SHUTDOWN: 6,
    RejectReason.SHARD_DOWN: 7,
    RejectReason.CIRCUIT_OPEN: 8,
    RejectReason.DUPLICATE: 9,
    RejectReason.ADMISSION_SHED: 10,
    RejectReason.RATE_LIMITED: 11,
    RejectReason.UNAVAILABLE: 12,
}
_CODE_REASONS = {code: reason for reason, code in _REASON_CODES.items()}
assert len(_REASON_CODES) == len(RejectReason), "unmapped RejectReason"


def reject_reason_code(reason: RejectReason) -> int:
    return _REASON_CODES[reason]


def reject_reason_from_code(code: int) -> RejectReason:
    try:
        return _CODE_REASONS[code]
    except KeyError:
        raise ProtocolError(f"unknown reject-reason code {code}") from None


# -- messages ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Hello:
    """Client's opener: the protocol versions it speaks."""

    versions: tuple[int, ...] = (PROTOCOL_VERSION,)


@dataclass(frozen=True, slots=True)
class Welcome:
    """Server's handshake reply: its version + interconnect shape."""

    version: int
    n_fibers: int
    k: int


@dataclass(frozen=True, slots=True)
class ErrorMsg:
    """A typed failure.  ``seq == 0`` means connection-level (the server
    closes after sending); otherwise it resolves that submission."""

    seq: int
    code: int
    message: str


@dataclass(frozen=True, slots=True)
class Bye:
    """Clean shutdown: no more messages will follow from the sender."""


@dataclass(frozen=True, slots=True)
class Submit:
    """One SUBMIT_BATCH row: a slot request.  ``seq`` (> 0) correlates
    its OUTCOMES row; ``timeout_ticks < 0`` means no deadline;
    ``request_id`` is the optional idempotency key (empty = none);
    ``tenant`` is the traffic owner (0 = default)."""

    seq: int
    input_fiber: int
    wavelength: int
    output_fiber: int
    duration: int = 1
    priority: int = 0
    timeout_ticks: int = -1
    request_id: str = ""
    tenant: int = 0

    def to_request(self) -> SlotRequest:
        return SlotRequest(
            self.input_fiber,
            self.wavelength,
            self.output_fiber,
            duration=self.duration,
            priority=self.priority,
            tenant=self.tenant,
        )


@dataclass(frozen=True, slots=True)
class SubmitBatch:
    """Every SUBMIT row a client queued in one loop turn (1..65535
    rows, in submission order).  To encode, a row is a :class:`Submit` or
    its bytes already packed by :func:`encode_submit_row` (what
    :class:`~repro.net.client.NetClient` queues); decoding always yields
    :class:`Submit` rows."""

    rows: tuple[Submit, ...] | tuple[bytes, ...]


@dataclass(frozen=True, slots=True)
class Grant:
    """An OUTCOMES row: the submission ``seq`` was granted ``channel``
    at ``slot``."""

    seq: int
    channel: int
    slot: int


@dataclass(frozen=True, slots=True)
class Reject:
    """An OUTCOMES row: the submission ``seq`` resolved without a channel.
    ``slot == -1`` means the rejection predates any tick."""

    seq: int
    reason: RejectReason
    slot: int = -1


@dataclass(frozen=True, slots=True)
class Outcomes:
    """One :class:`Grant` or :class:`Reject` row per submission the
    server resolved in one loop turn (1..65535 rows)."""

    rows: tuple[Grant | Reject, ...]


@dataclass(frozen=True, slots=True)
class TickAdvance:
    """Run ``count`` slot ticks, then answer one TICK_DONE."""

    count: int = 1


@dataclass(frozen=True, slots=True)
class TickDone:
    """Ticks completed; ``slot`` is the next slot index,
    ``granted`` the number of grants those ticks issued."""

    slot: int
    granted: int


@dataclass(frozen=True, slots=True)
class Migrate:
    """Admin request: live-migrate ``shard`` to worker
    ``destination`` at the next tick boundary.  ``seq`` (> 0) correlates
    the MIGRATED (or ERROR) reply."""

    seq: int
    shard: int
    destination: int


@dataclass(frozen=True, slots=True)
class Migrated:
    """The MIGRATE ``seq`` completed: the shard now lives on
    ``destination`` (moved from ``source``), ``next_tick`` is its verified
    resume slot, ``payload_bytes``/``journal_records`` size the handoff,
    and ``resumed`` flags a re-driven (post-flip recovery) migration."""

    seq: int
    shard: int
    source: int
    destination: int
    next_tick: int
    payload_bytes: int
    journal_records: int
    resumed: bool = False


@dataclass(frozen=True, slots=True)
class Ping:
    """Liveness probe.  ``token`` correlates the PONG (the
    client's liveness detector matches replies to probes, so a stale
    PONG from before a stall never masks a fresh miss)."""

    token: int


@dataclass(frozen=True, slots=True)
class Pong:
    """The PING ``token``'s heartbeat reply; ``slot`` is the server's
    current (next-to-run) slot index — a reconnecting client resyncs its
    logical clock from this before redelivering in-flight requests."""

    token: int
    slot: int


Message = (
    Hello
    | Welcome
    | ErrorMsg
    | Bye
    | SubmitBatch
    | Outcomes
    | TickAdvance
    | TickDone
    | Migrate
    | Migrated
    | Ping
    | Pong
)


# -- codec -------------------------------------------------------------------

_WELCOME = struct.Struct("!HII")
_ERROR_HEAD = struct.Struct("!QHH")
_ROW_COUNT = struct.Struct("!H")
#: A SUBMIT row before its request_id bytes.
_SUBMIT_HEAD = struct.Struct("!QIIIIiIqH")
#: An OUTCOMES row: seq, code (0 = grant, else the reject-reason code),
#: channel (0 on a reject), slot.
_OUTCOME = struct.Struct("!QBIq")
_TICK_ADVANCE = struct.Struct("!I")
_TICK_DONE = struct.Struct("!qI")
_MIGRATE = struct.Struct("!QII")
_MIGRATED = struct.Struct("!QIIIQQQB")
_PING = struct.Struct("!Q")
_PONG = struct.Struct("!Qq")

_MAX_ERROR_TEXT = 1024
_MAX_REQUEST_ID = 256
_MAX_VERSIONS = 64
_MAX_ROWS = 0xFFFF
_BATCH_HEAD = 1 + _ROW_COUNT.size
_MAX_OUTCOME_ROWS = (MAX_MESSAGE - _BATCH_HEAD) // _OUTCOME.size


def encode_submit_row(
    seq: int,
    request: "SlotRequest | Submit",
    timeout_ticks: int = -1,
    request_id: str = "",
) -> bytes:
    """One SUBMIT_BATCH row's bytes: ``request``'s fields behind ``seq``.

    Raises :class:`~repro.errors.ProtocolError` on a row the wire cannot
    carry (a request_id over 256 bytes, a field out of its range)."""
    rid = request_id.encode("utf-8") if request_id else b""
    if len(rid) > _MAX_REQUEST_ID:
        raise ProtocolError(
            f"cannot encode SUBMIT row: request_id of {len(rid)} bytes "
            f"exceeds {_MAX_REQUEST_ID}"
        )
    try:
        head = _SUBMIT_HEAD.pack(
            seq,
            request.input_fiber,
            request.wavelength,
            request.output_fiber,
            request.duration,
            request.priority,
            request.tenant,
            timeout_ticks,
            len(rid),
        )
    except struct.error as exc:
        raise ProtocolError(f"cannot encode SUBMIT row: {exc}") from None
    return head + rid if rid else head


def submit_batches(rows: "list[bytes]") -> "list[SubmitBatch]":
    """Split packed rows (:func:`encode_submit_row`, in order) into
    SUBMIT_BATCH messages that each encode within :data:`MAX_MESSAGE`."""
    batches: list[SubmitBatch] = []
    start, size = 0, _BATCH_HEAD
    for i, row in enumerate(rows):
        if size + len(row) > MAX_MESSAGE:
            batches.append(SubmitBatch(tuple(rows[start:i])))
            start, size = i, _BATCH_HEAD
        size += len(row)
    batches.append(SubmitBatch(tuple(rows[start:])))
    return batches


def outcome_batches(rows: "list[Grant | Reject]") -> "list[Outcomes]":
    """Split ``rows`` (in order) into OUTCOMES messages that each encode
    within :data:`MAX_MESSAGE`."""
    step = _MAX_OUTCOME_ROWS
    return [Outcomes(tuple(rows[i : i + step])) for i in range(0, len(rows), step)]


def _encode_submit_batch(rows: "tuple[Submit | bytes, ...]") -> bytes:
    parts = [bytes([MsgType.SUBMIT_BATCH]), _row_count(len(rows), "SUBMIT_BATCH")]
    for row in rows:
        if not isinstance(row, bytes):
            row = encode_submit_row(row.seq, row, row.timeout_ticks, row.request_id)
        parts.append(row)
    return _within_limit(b"".join(parts), "SUBMIT_BATCH")


def _encode_outcomes(rows: "tuple[Grant | Reject, ...]") -> bytes:
    parts = [bytes([MsgType.OUTCOMES]), _row_count(len(rows), "OUTCOMES")]
    pack = _OUTCOME.pack
    for row in rows:
        if isinstance(row, Grant):
            parts.append(pack(row.seq, 0, row.channel, row.slot))
        else:
            parts.append(pack(row.seq, _REASON_CODES[row.reason], 0, row.slot))
    return _within_limit(b"".join(parts), "OUTCOMES")


def _row_count(n: int, name: str) -> bytes:
    if not 0 < n <= _MAX_ROWS:
        raise ProtocolError(f"{name} must carry 1..{_MAX_ROWS} rows, got {n}")
    return _ROW_COUNT.pack(n)


def _within_limit(payload: bytes, name: str) -> bytes:
    if len(payload) > MAX_MESSAGE:
        raise ProtocolError(
            f"{name} of {len(payload)} bytes exceeds {MAX_MESSAGE}; "
            "split it first"
        )
    return payload


def _decode_submit_batch(payload: bytes) -> SubmitBatch:
    n = _decode_row_count(payload, "SUBMIT_BATCH")
    unpack_from = _SUBMIT_HEAD.unpack_from
    head = _SUBMIT_HEAD.size
    end = len(payload)
    off = _BATCH_HEAD
    rows = []
    for _ in range(n):
        if off + head > end:
            raise ProtocolError("SUBMIT_BATCH row cut mid-body")
        (seq, inf, wl, outf, dur, prio, tenant, timeout, rid_len) = unpack_from(
            payload, off
        )
        off += head
        if seq == 0:
            raise ProtocolError("SUBMIT row seq must be > 0")
        rid = ""
        if rid_len:
            if off + rid_len > end:
                raise ProtocolError("SUBMIT_BATCH row cut mid-body")
            rid = payload[off : off + rid_len].decode("utf-8", "replace")
            off += rid_len
        rows.append(Submit(seq, inf, wl, outf, dur, prio, timeout, rid, tenant))
    if off != end:
        raise ProtocolError("SUBMIT_BATCH has bytes after its last row")
    return SubmitBatch(tuple(rows))


def _decode_outcomes(payload: bytes) -> Outcomes:
    n = _decode_row_count(payload, "OUTCOMES")
    if len(payload) != _BATCH_HEAD + n * _OUTCOME.size:
        raise ProtocolError(
            f"OUTCOMES body is {len(payload) - _BATCH_HEAD} bytes for {n} "
            f"rows of {_OUTCOME.size}"
        )
    rows: list[Grant | Reject] = []
    for seq, code, channel, slot in _OUTCOME.iter_unpack(
        memoryview(payload)[_BATCH_HEAD:]
    ):
        if seq == 0:
            raise ProtocolError("OUTCOMES row seq must be > 0")
        if not code:
            rows.append(Grant(seq, channel, slot))
        elif channel:
            raise ProtocolError("OUTCOMES reject row carries a channel")
        else:
            rows.append(Reject(seq, reject_reason_from_code(code), slot))
    return Outcomes(tuple(rows))


def _decode_row_count(payload: bytes, name: str) -> int:
    if len(payload) < _BATCH_HEAD:
        raise ProtocolError(f"{name} missing its row count")
    (n,) = _ROW_COUNT.unpack_from(payload, 1)
    if n == 0:
        raise ProtocolError(f"{name} carries no rows")
    return n


def encode_message(msg: Message) -> bytes:
    """Serialize ``msg`` to one frame payload (tag byte + body)."""
    if isinstance(msg, SubmitBatch):
        return _encode_submit_batch(msg.rows)
    if isinstance(msg, Outcomes):
        return _encode_outcomes(msg.rows)
    if isinstance(msg, Hello):
        if not msg.versions or len(msg.versions) > _MAX_VERSIONS:
            raise ProtocolError(
                f"HELLO must list 1..{_MAX_VERSIONS} versions, "
                f"got {len(msg.versions)}"
            )
        return (
            bytes([MsgType.HELLO, len(msg.versions)])
            + struct.pack(f"!{len(msg.versions)}H", *msg.versions)
        )
    if isinstance(msg, Welcome):
        return bytes([MsgType.WELCOME]) + _WELCOME.pack(
            msg.version, msg.n_fibers, msg.k
        )
    if isinstance(msg, ErrorMsg):
        text = msg.message.encode("utf-8")[:_MAX_ERROR_TEXT]
        return (
            bytes([MsgType.ERROR])
            + _ERROR_HEAD.pack(msg.seq, msg.code, len(text))
            + text
        )
    if isinstance(msg, Bye):
        return bytes([MsgType.BYE])
    if isinstance(msg, TickAdvance):
        return bytes([MsgType.TICK_ADVANCE]) + _TICK_ADVANCE.pack(msg.count)
    if isinstance(msg, TickDone):
        return bytes([MsgType.TICK_DONE]) + _TICK_DONE.pack(msg.slot, msg.granted)
    if isinstance(msg, Migrate):
        return bytes([MsgType.MIGRATE]) + _MIGRATE.pack(
            msg.seq, msg.shard, msg.destination
        )
    if isinstance(msg, Migrated):
        return bytes([MsgType.MIGRATED]) + _MIGRATED.pack(
            msg.seq,
            msg.shard,
            msg.source,
            msg.destination,
            msg.next_tick,
            msg.payload_bytes,
            msg.journal_records,
            1 if msg.resumed else 0,
        )
    if isinstance(msg, Ping):
        return bytes([MsgType.PING]) + _PING.pack(msg.token)
    if isinstance(msg, Pong):
        return bytes([MsgType.PONG]) + _PONG.pack(msg.token, msg.slot)
    raise ProtocolError(f"cannot encode {type(msg).__name__}")


def _exact(payload: bytes, fmt: struct.Struct, name: str) -> tuple:
    if len(payload) != 1 + fmt.size:
        raise ProtocolError(
            f"{name} body is {len(payload) - 1} bytes, expected {fmt.size}"
        )
    return fmt.unpack_from(payload, 1)


def decode_message(payload: bytes) -> Message:
    """Parse one frame payload back into a message.

    Raises :class:`~repro.errors.ProtocolError` on an unknown tag, a
    wrong-size body, or trailing garbage — never a bare ``struct.error``.
    """
    if not payload:
        raise ProtocolError("empty message payload")
    tag = payload[0]
    try:
        mtype = MsgType(tag)
    except ValueError:
        raise ProtocolError(f"unknown message tag 0x{tag:02x}") from None
    try:
        if mtype is MsgType.OUTCOMES:
            return _decode_outcomes(payload)
        if mtype is MsgType.SUBMIT_BATCH:
            return _decode_submit_batch(payload)
        if mtype is MsgType.HELLO:
            if len(payload) < 2:
                raise ProtocolError("HELLO missing version count")
            n = payload[1]
            if n == 0 or n > _MAX_VERSIONS:
                raise ProtocolError(f"HELLO version count {n} out of range")
            if len(payload) != 2 + 2 * n:
                raise ProtocolError("HELLO body length disagrees with count")
            return Hello(struct.unpack_from(f"!{n}H", payload, 2))
        if mtype is MsgType.WELCOME:
            return Welcome(*_exact(payload, _WELCOME, "WELCOME"))
        if mtype is MsgType.ERROR:
            if len(payload) < 1 + _ERROR_HEAD.size:
                raise ProtocolError("ERROR body too short")
            seq, code, text_len = _ERROR_HEAD.unpack_from(payload, 1)
            text = payload[1 + _ERROR_HEAD.size :]
            if len(text) != text_len:
                raise ProtocolError("ERROR text length disagrees with header")
            return ErrorMsg(seq, code, text.decode("utf-8", "replace"))
        if mtype is MsgType.BYE:
            if len(payload) != 1:
                raise ProtocolError("BYE carries no body")
            return Bye()
        if mtype is MsgType.TICK_ADVANCE:
            (count,) = _exact(payload, _TICK_ADVANCE, "TICK_ADVANCE")
            if count == 0:
                raise ProtocolError("TICK_ADVANCE count must be > 0")
            return TickAdvance(count)
        if mtype is MsgType.MIGRATE:
            seq, shard, destination = _exact(payload, _MIGRATE, "MIGRATE")
            if seq == 0:
                raise ProtocolError("MIGRATE seq must be > 0")
            return Migrate(seq, shard, destination)
        if mtype is MsgType.MIGRATED:
            (seq, shard, src, dst, tick, nbytes, nrecords, resumed) = _exact(
                payload, _MIGRATED, "MIGRATED"
            )
            if resumed > 1:
                raise ProtocolError(f"MIGRATED resumed flag {resumed} not 0/1")
            return Migrated(
                seq, shard, src, dst, tick, nbytes, nrecords, bool(resumed)
            )
        if mtype is MsgType.PING:
            return Ping(*_exact(payload, _PING, "PING"))
        if mtype is MsgType.PONG:
            return Pong(*_exact(payload, _PONG, "PONG"))
        # TICK_DONE
        return TickDone(*_exact(payload, _TICK_DONE, "TICK_DONE"))
    except struct.error as exc:  # defensive: any unpack slip is typed
        raise ProtocolError(f"malformed {mtype.name} body: {exc}") from exc

