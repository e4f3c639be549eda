"""The asyncio TCP front door for the scheduling service.

One :class:`NetServer` wraps any backend with the service surface
(``submit_nowait`` / ``tick`` / ``slot`` / ``n_fibers`` / ``scheme``) —
the in-process :class:`~repro.service.server.SchedulingService` or the
multi-process :class:`~repro.net.procservice.ProcessShardedService` —
and serves the wire protocol (:mod:`repro.net.protocol`) over length+CRC
frames (:mod:`repro.util.framing`).

Per-connection discipline:

* the first message must be HELLO; the server answers WELCOME with
  :data:`~repro.net.protocol.PROTOCOL_VERSION` and the interconnect
  shape, or — when the HELLO does not list that version — ERROR
  ``NO_COMMON_VERSION`` and closes;
* each SUBMIT_BATCH row goes straight to the service's
  ``submit_nowait``; a row that fails validation is answered ERROR
  ``BAD_REQUEST`` with its ``seq``;
* outcomes are batched: every row the service resolves in one loop turn
  is written in one OUTCOMES message per connection (split at
  :data:`~repro.net.protocol.MAX_MESSAGE`), so outcomes may interleave
  with later requests;
* TICK_ADVANCE runs ticks under one server-wide lock (ticks are global,
  connections must not interleave halves of them) and answers TICK_DONE
  at the end of that loop turn, behind the OUTCOMES of the requests the
  ticks resolved — every future the tick settled is resolved on the
  client before its ``tick()`` returns;
* PING answers PONG carrying the current slot — the
  heartbeat that feeds the client-side liveness detector and resyncs a
  reconnecting client's logical clock;
* corrupt frames or protocol violations get a best-effort ERROR with
  ``seq == 0`` and the connection dies — a reader is never left hanging.

Liveness discipline:

* ``handshake_timeout`` — a peer that connects and never completes the
  HELLO within the deadline is shed (best-effort ERROR
  ``HANDSHAKE_REQUIRED`` + close), so a half-open socket cannot pin a
  connection task forever;
* ``idle_timeout`` — a greeted connection that stays silent longer than
  the window is reaped (best-effort BYE + close).  Clients heartbeat
  (PING counts as traffic), so only dead or wedged peers are reaped.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING

from repro.errors import (
    FramingError,
    InvalidParameterError,
    MigrationError,
    ProtocolError,
    SimulationError,
)
from repro.net import protocol as proto
from repro.service.server import Rejected, ServiceGrant
from repro.util.framing import FrameDecoder, encode_frame

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.protocol import Message

__all__ = ["NetServer"]

_READ_CHUNK = 65536


class _Conn:
    """Per-connection state: the writer and this loop turn's outcomes.

    Outcome rows collect until the end of the loop turn (:meth:`flush`,
    one ``call_soon``) and leave as one OUTCOMES message; every other
    message is written behind the rows collected before it.  A tick
    schedules its futures' done callbacks before it returns, so a
    TICK_DONE sent with :meth:`send_after_outcomes` leaves behind the
    outcomes of every request that tick resolved.
    """

    __slots__ = ("writer", "closed", "outcomes", "flush_scheduled")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.closed = False
        self.outcomes: "list[proto.Grant | proto.Reject]" = []
        self.flush_scheduled = False

    def send(self, msg: "Message") -> None:
        """Write ``msg`` now, behind the outcomes collected so far."""
        if not self.closed:
            self.writer.write(self._outcome_frames() + _frame(msg))

    def send_after_outcomes(self, msg: "Message") -> None:
        """Write ``msg`` once every done callback scheduled so far has
        run, behind the outcomes they resolve."""
        asyncio.get_running_loop().call_soon(self.send, msg)

    def outcome(self, row: "proto.Grant | proto.Reject") -> None:
        self.outcomes.append(row)
        if not self.flush_scheduled:
            self.flush_scheduled = True
            asyncio.get_running_loop().call_soon(self.flush)

    def flush(self) -> None:
        self.flush_scheduled = False
        if self.outcomes and not self.closed:
            self.writer.write(self._outcome_frames())

    def _outcome_frames(self) -> bytes:
        if not self.outcomes:
            return b""
        rows, self.outcomes = self.outcomes, []
        return b"".join(_frame(m) for m in proto.outcome_batches(rows))


def _frame(msg: "Message") -> bytes:
    return encode_frame(proto.encode_message(msg))


class NetServer:
    """Serve a scheduling service over TCP (see module docstring).

    The server owns only the network edge; the backend service's
    lifecycle stays with the caller (``stop()`` closes sockets, not the
    service).  ``port=0`` binds an ephemeral port, readable from
    :attr:`port` after :meth:`start`.

    ``handshake_timeout`` (seconds) sheds peers that connect but never
    complete the HELLO; ``idle_timeout`` (seconds, default off) reaps
    greeted connections with no inbound traffic for that long — see the
    module docstring's liveness discipline.
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        handshake_timeout: float | None = 10.0,
        idle_timeout: float | None = None,
    ) -> None:
        if handshake_timeout is not None and handshake_timeout <= 0:
            raise InvalidParameterError(
                f"handshake_timeout must be > 0, got {handshake_timeout}"
            )
        if idle_timeout is not None and idle_timeout <= 0:
            raise InvalidParameterError(
                f"idle_timeout must be > 0, got {idle_timeout}"
            )
        self.service = service
        self.host = host
        self.handshake_timeout = handshake_timeout
        self.idle_timeout = idle_timeout
        self._requested_port = port
        self._server: asyncio.base_events.Server | None = None
        self._handlers: "set[asyncio.Task]" = set()
        self._tick_lock = asyncio.Lock()

    @property
    def port(self) -> int:
        if self._server is None:
            raise SimulationError("server not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        if self._server is not None:
            raise SimulationError("server already started")
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self._requested_port
        )

    async def stop(self) -> None:
        """Close the listener and every connection; idempotent."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        self._handlers.clear()

    async def __aenter__(self) -> "NetServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- connection handling -------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        conn = _Conn(writer)
        try:
            await self._serve_connection(conn, reader)
        except asyncio.CancelledError:
            pass
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            self._teardown(conn)
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError, asyncio.CancelledError):
                pass
            if task is not None:
                self._handlers.discard(task)

    def _teardown(self, conn: _Conn) -> None:
        """Close.  Submitted futures may resolve after this (the service
        still owns them); their done callbacks see ``closed`` and write
        nothing."""
        if conn.closed:
            return
        conn.closed = True
        if not conn.writer.is_closing():
            conn.writer.close()

    async def _serve_connection(
        self, conn: _Conn, reader: asyncio.StreamReader
    ) -> None:
        decoder = FrameDecoder(max_payload=proto.MAX_MESSAGE)
        greeted = False
        while True:
            read_timeout = (
                self.handshake_timeout if not greeted else self.idle_timeout
            )
            try:
                if read_timeout is None:
                    data = await reader.read(_READ_CHUNK)
                else:
                    data = await asyncio.wait_for(
                        reader.read(_READ_CHUNK), read_timeout
                    )
            except asyncio.TimeoutError:
                if not greeted:
                    # Half-open peer: never finished HELLO — shed it.
                    conn.send(
                        proto.ErrorMsg(
                            0,
                            proto.ErrorCode.HANDSHAKE_REQUIRED,
                            f"no HELLO within {self.handshake_timeout}s "
                            "handshake deadline",
                        )
                    )
                else:
                    # Idle reaping: a silent (non-heartbeating) peer.
                    conn.send(proto.Bye())
                await self._drain(conn)
                return
            if not data:
                return  # peer closed (mid-frame EOFs just die with it)
            try:
                payloads = decoder.feed(data)
            except FramingError as exc:
                conn.send(
                    proto.ErrorMsg(0, proto.ErrorCode.BAD_FRAME, str(exc))
                )
                break
            for payload in payloads:
                try:
                    msg = proto.decode_message(payload)
                except ProtocolError as exc:
                    conn.send(
                        proto.ErrorMsg(
                            0, proto.ErrorCode.BAD_REQUEST, str(exc)
                        )
                    )
                    await self._drain(conn)
                    return
                if isinstance(msg, proto.Bye):
                    return
                if not greeted:
                    if not await self._handshake(conn, msg):
                        return
                    greeted = True
                    continue
                if not await self._dispatch(conn, msg):
                    return
            await self._drain(conn)

    async def _drain(self, conn: _Conn) -> None:
        if not conn.closed and not conn.writer.is_closing():
            try:
                await conn.writer.drain()
            except (ConnectionError, BrokenPipeError):
                conn.closed = True

    async def _handshake(self, conn: _Conn, msg: "Message") -> bool:
        if not isinstance(msg, proto.Hello):
            conn.send(
                proto.ErrorMsg(
                    0,
                    proto.ErrorCode.HANDSHAKE_REQUIRED,
                    f"expected HELLO first, got {type(msg).__name__}",
                )
            )
            await self._drain(conn)
            return False
        if proto.PROTOCOL_VERSION not in msg.versions:
            conn.send(
                proto.ErrorMsg(
                    0,
                    proto.ErrorCode.NO_COMMON_VERSION,
                    f"server speaks version {proto.PROTOCOL_VERSION}, "
                    f"client offered {list(msg.versions)}",
                )
            )
            await self._drain(conn)
            return False
        conn.send(
            proto.Welcome(
                proto.PROTOCOL_VERSION,
                self.service.n_fibers,
                self.service.scheme.k,
            )
        )
        await self._drain(conn)
        return True

    async def _dispatch(self, conn: _Conn, msg: "Message") -> bool:
        """Handle one post-handshake message; False closes the connection."""
        if isinstance(msg, proto.SubmitBatch):
            for row in msg.rows:
                self._handle_submit(conn, row)
            return True
        if isinstance(msg, proto.TickAdvance):
            async with self._tick_lock:
                granted = 0
                for _ in range(msg.count):
                    granted += await self.service.tick()
            conn.send_after_outcomes(proto.TickDone(self.service.slot, granted))
            return True
        if isinstance(msg, proto.Migrate):
            await self._handle_migrate(conn, msg)
            return True
        if isinstance(msg, proto.Ping):
            conn.send(proto.Pong(msg.token, self.service.slot))
            return True
        conn.send(
            proto.ErrorMsg(
                0,
                proto.ErrorCode.BAD_REQUEST,
                f"{type(msg).__name__} is not a client message",
            )
        )
        await self._drain(conn)
        return False

    async def _handle_migrate(self, conn: _Conn, msg: proto.Migrate) -> None:
        """Admin op: live-migrate one shard, reply MIGRATED.

        Runs under the tick lock — the migration engine's quiesce phase
        *is* the tick boundary, so no tick may interleave with it.
        """
        migrate = getattr(self.service, "migrate_shard", None)
        if migrate is None:
            conn.send(
                proto.ErrorMsg(
                    msg.seq,
                    proto.ErrorCode.BAD_REQUEST,
                    "this server's backend does not support live migration",
                )
            )
            return
        try:
            async with self._tick_lock:
                report = migrate(msg.shard, msg.destination)
        except (InvalidParameterError, MigrationError) as exc:
            conn.send(
                proto.ErrorMsg(msg.seq, proto.ErrorCode.BAD_REQUEST, str(exc))
            )
            return
        conn.send(
            proto.Migrated(
                msg.seq,
                report.shard,
                report.source,
                report.destination,
                report.next_tick,
                report.payload_bytes,
                report.journal_records,
                report.resumed,
            )
        )

    def _handle_submit(self, conn: _Conn, msg: proto.Submit) -> None:
        # timeout_ticks is a deterministic slot deadline (submit slot +
        # timeout_ticks on the server's logical clock), not a wall-clock
        # conversion: the same schedule expires the same requests at the
        # same slots every run, partitions included.
        try:
            future = self.service.submit_nowait(
                msg.to_request(),
                timeout_ticks=(
                    None if msg.timeout_ticks < 0 else msg.timeout_ticks
                ),
                request_id=msg.request_id or None,
            )
        except (InvalidParameterError, SimulationError) as exc:
            conn.send(
                proto.ErrorMsg(msg.seq, proto.ErrorCode.BAD_REQUEST, str(exc))
            )
            return
        seq = msg.seq

        def _resolved(fut: "asyncio.Future") -> None:
            if conn.closed or fut.cancelled():
                return
            exc = fut.exception()
            if exc is not None:
                conn.send(
                    proto.ErrorMsg(seq, proto.ErrorCode.INTERNAL, str(exc))
                )
                return
            outcome = fut.result()
            if isinstance(outcome, ServiceGrant):
                conn.outcome(proto.Grant(seq, outcome.channel, outcome.slot))
            else:
                assert isinstance(outcome, Rejected)
                conn.outcome(
                    proto.Reject(
                        seq,
                        outcome.reason,
                        -1 if outcome.slot is None else outcome.slot,
                    )
                )

        future.add_done_callback(_resolved)
