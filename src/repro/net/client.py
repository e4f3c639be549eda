"""The TCP client for the scheduling service's wire protocol.

:class:`NetClient` speaks :mod:`repro.net.protocol` over the shared
frame codec: HELLO/WELCOME handshake at connect, pipelined SUBMITs
correlated by ``seq``, TICK_ADVANCE driving, BYE on close.  It is
the raw connection: it neither reconnects nor retries.
:class:`NetLink` is the TCP transport of
:class:`~repro.service.client.SchedulingClient` — a :class:`NetClient`
re-opened after a transport loss, a heartbeat, idempotent tick driving
— and the client's one submit loop does the redelivery.

Shutdown hygiene is a contract here, with a regression test
(``tests/test_net_server.py``): closing the client — or cancelling an
in-flight :meth:`submit` — must close transports cleanly and leave no
pending tasks behind (no "Task was destroyed but it is pending"
warnings, no leaked file descriptors under repeated connect/cancel
cycles).  Concretely: ``close()`` cancels and *awaits* the reader task,
cancelling a submit detaches its pending future before re-raising, and
abandoned futures are cancelled (never left with an unretrieved
exception).
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import TYPE_CHECKING

from repro.errors import (
    ConnectionLostError,
    FramingError,
    InvalidParameterError,
    ProtocolError,
)
from repro.net import protocol as proto
from repro.service.server import RejectReason
from repro.service.telemetry import Telemetry
from repro.util.framing import FrameDecoder, encode_frame

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.distributed import SlotRequest

__all__ = ["NetClient", "NetLink", "RETRYABLE_NET_ERRORS"]

_READ_CHUNK = 65536

#: Exception types that mean "the wire died, the request may still be
#: in doubt" — :class:`NetLink` reconnects and redelivers on these.  A
#: plain :class:`ProtocolError` (server-side ERROR reply) is deliberately
#: absent: the server answered, retrying would loop.
RETRYABLE_NET_ERRORS = (
    ConnectionLostError,
    FramingError,
    ConnectionError,
    asyncio.TimeoutError,
    OSError,
)


class NetClient:
    """One connection to a :class:`~repro.net.server.NetServer`.

    Build with :meth:`connect` (or ``async with NetClient.connect(...)``
    via :meth:`connect` + context manager).  After the handshake,
    :attr:`version`, :attr:`n_fibers` and :attr:`k` describe the server.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        welcome: proto.Welcome,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self.version = welcome.version
        self.n_fibers = welcome.n_fibers
        self.k = welcome.k
        self._seq = 0
        self._pending: "dict[int, asyncio.Future[proto.Grant | proto.Reject]]" = {}
        self._tick_waiters: "deque[asyncio.Future[proto.TickDone]]" = deque()
        self._ping_waiters: "dict[int, asyncio.Future[proto.Pong]]" = {}
        self._ping_token = 0
        #: The server's slot as last reported by TICK_DONE or PONG
        #: (``-1`` until either arrives).  A reconnecting client PINGs to
        #: resync this before re-driving ticks.
        self.server_slot = -1
        self._closing = False
        self._conn_error: Exception | None = None
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop(), name="repro-netclient-reader"
        )

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        timeout: float = 10.0,
    ) -> "NetClient":
        """Open a connection and complete the version handshake."""
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout
        )
        try:
            writer.write(
                encode_frame(proto.encode_message(proto.Hello()))
            )
            await writer.drain()
            decoder = FrameDecoder(max_payload=proto.MAX_MESSAGE)
            payloads: list[bytes] = []
            while not payloads:
                data = await asyncio.wait_for(reader.read(_READ_CHUNK), timeout)
                if not data:
                    raise ProtocolError("server closed during handshake")
                payloads = decoder.feed(data)
            msg = proto.decode_message(payloads[0])
            if isinstance(msg, proto.ErrorMsg):
                raise ProtocolError(
                    f"handshake refused (code {msg.code}): {msg.message}"
                )
            if not isinstance(msg, proto.Welcome):
                raise ProtocolError(
                    f"expected WELCOME, got {type(msg).__name__}"
                )
            if msg.version != proto.PROTOCOL_VERSION:
                raise ProtocolError(
                    f"server answered version {msg.version}, this client "
                    f"speaks {proto.PROTOCOL_VERSION}"
                )
        except BaseException:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass
            raise
        client = cls(reader, writer, msg)
        # Frames already buffered behind the WELCOME belong to the reader.
        for extra in payloads[1:]:
            client._dispatch(proto.decode_message(extra))
        return client

    async def __aenter__(self) -> "NetClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    @property
    def closed(self) -> bool:
        return self._closing

    @property
    def healthy(self) -> bool:
        """True while the connection is open and has seen no transport
        or protocol failure."""
        return not self._closing and self._conn_error is None

    def abort(self, reason: str = "connection aborted") -> None:
        """Kill the transport *now* (liveness failure, chaos).

        Unlike :meth:`close` this sends nothing: the reader wakes on the
        reset and every in-flight future fails with
        :class:`~repro.errors.ConnectionLostError` — the retryable kind —
        so :class:`NetLink` reconnects instead of surfacing the error.
        """
        if self._closing:
            return
        if self._conn_error is None:
            self._conn_error = ConnectionLostError(reason)
        transport = self._writer.transport
        if transport is not None:
            transport.abort()

    async def close(self) -> None:
        """Send BYE (best-effort), tear the connection down, reap the
        reader task, and cancel anything still pending.  Idempotent."""
        if self._closing:
            return
        self._closing = True
        try:
            self._writer.write(encode_frame(proto.encode_message(proto.Bye())))
            await self._writer.drain()
        except (ConnectionError, BrokenPipeError, OSError):
            pass
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, BrokenPipeError, OSError):
            pass
        self._fail_pending(None)

    def _fail_pending(self, error: Exception | None) -> None:
        """Resolve every in-flight future: with ``error`` when the
        connection died underneath us, by cancellation on clean close
        (cancelled futures never warn about unretrieved exceptions)."""
        pending = (
            list(self._pending.values())
            + list(self._tick_waiters)
            + list(self._ping_waiters.values())
        )
        self._pending.clear()
        self._tick_waiters.clear()
        self._ping_waiters.clear()
        for fut in pending:
            if fut.done():
                continue
            if error is None:
                fut.cancel()
            else:
                fut.set_exception(error)

    # -- requests ------------------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _check_open(self) -> None:
        if self._closing:
            raise ProtocolError("client is closed")
        if self._conn_error is not None:
            raise self._conn_error

    def _send(self, msg: "proto.Message") -> None:
        self._writer.write(encode_frame(proto.encode_message(msg)))

    def submit_nowait(
        self,
        request: "SlotRequest",
        *,
        timeout_ticks: int = -1,
        request_id: str = "",
    ) -> "asyncio.Future[proto.Grant | proto.Reject]":
        """Send one SUBMIT; the future resolves with the server's
        :class:`~repro.net.protocol.Grant` or
        :class:`~repro.net.protocol.Reject` (or raises ProtocolError on a
        server-side ERROR)."""
        self._check_open()
        seq = self._next_seq()
        fut: "asyncio.Future[proto.Grant | proto.Reject]" = (
            asyncio.get_running_loop().create_future()
        )
        self._pending[seq] = fut
        self._send(
            proto.Submit(
                seq,
                request.input_fiber,
                request.wavelength,
                request.output_fiber,
                duration=request.duration,
                priority=request.priority,
                timeout_ticks=timeout_ticks,
                request_id=request_id,
                tenant=request.tenant,
            )
        )
        return fut

    async def submit(
        self,
        request: "SlotRequest",
        *,
        timeout_ticks: int = -1,
        request_id: str = "",
    ) -> "proto.Grant | proto.Reject":
        """Submit and await the outcome.  Cancelling this coroutine
        detaches the in-flight future cleanly (hygiene contract)."""
        fut = self.submit_nowait(
            request, timeout_ticks=timeout_ticks, request_id=request_id
        )
        seq = self._seq
        try:
            await self._writer.drain()
            return await fut
        except asyncio.CancelledError:
            self._pending.pop(seq, None)
            fut.cancel()
            raise

    async def migrate(self, shard: int, destination: int) -> proto.Migrated:
        """Ask the server to live-migrate ``shard`` to worker
        ``destination`` (admin op); awaits the MIGRATED report.  Raises
        :class:`~repro.errors.ProtocolError` if the server refuses (bad
        move, backend without migration support)."""
        self._check_open()
        seq = self._next_seq()
        fut: "asyncio.Future[proto.Migrated]" = (
            asyncio.get_running_loop().create_future()
        )
        self._pending[seq] = fut
        self._send(proto.Migrate(seq, shard, destination))
        try:
            await self._writer.drain()
            return await fut
        except asyncio.CancelledError:
            self._pending.pop(seq, None)
            fut.cancel()
            raise

    async def ping(self) -> proto.Pong:
        """Heartbeat: awaits the PONG echoing our token.

        The PONG carries the server's slot, refreshing
        :attr:`server_slot` — reconnect logic pings before re-driving
        ticks so advancement stays idempotent."""
        self._check_open()
        self._ping_token += 1
        token = self._ping_token
        fut: "asyncio.Future[proto.Pong]" = (
            asyncio.get_running_loop().create_future()
        )
        self._ping_waiters[token] = fut
        self._send(proto.Ping(token))
        try:
            await self._writer.drain()
            return await fut
        except asyncio.CancelledError:
            self._ping_waiters.pop(token, None)
            fut.cancel()
            raise

    async def ticks_settled(self) -> None:
        """Wait until every TICK_ADVANCE sent on this connection has been
        answered or failed.  :attr:`server_slot` is then the slot the
        server runs this client's next message at, as long as no other
        connection drives ticks."""
        while self._tick_waiters:
            await asyncio.wait(list(self._tick_waiters))

    async def tick(self, count: int = 1) -> proto.TickDone:
        """Ask the server to run ``count`` slot ticks; awaits TICK_DONE."""
        self._check_open()
        fut: "asyncio.Future[proto.TickDone]" = (
            asyncio.get_running_loop().create_future()
        )
        self._tick_waiters.append(fut)
        self._send(proto.TickAdvance(count))
        try:
            await self._writer.drain()
            return await fut
        except asyncio.CancelledError:
            try:
                self._tick_waiters.remove(fut)
            except ValueError:
                pass
            fut.cancel()
            raise

    # -- the reader task -----------------------------------------------------

    async def _read_loop(self) -> None:
        decoder = FrameDecoder(max_payload=proto.MAX_MESSAGE)
        error: Exception | None = None
        try:
            while True:
                data = await self._reader.read(_READ_CHUNK)
                if not data:
                    if not decoder.at_boundary:
                        error = ConnectionLostError("server closed mid-frame")
                    elif not self._closing:
                        error = ConnectionLostError("server closed")
                    break
                for payload in decoder.feed(data):
                    msg = proto.decode_message(payload)
                    if isinstance(msg, proto.Bye):
                        if not self._closing:
                            # Server-initiated goodbye (idle reap, drain):
                            # the connection is gone for all future calls,
                            # and retryably so — NetLink should
                            # reconnect, not surface an error.
                            error = ConnectionLostError(
                                "server closed the connection (BYE)"
                            )
                        return
                    self._dispatch(msg)
        except (FramingError, ProtocolError) as exc:
            error = exc
        except (ConnectionError, OSError) as exc:
            if not self._closing:
                error = ConnectionLostError(f"connection lost: {exc}")
        finally:
            # abort() may already have pinned a cause; keep the first.
            if error is None:
                error = self._conn_error if not self._closing else None
            elif self._conn_error is None:
                self._conn_error = error
            else:
                error = self._conn_error
            self._fail_pending(error)

    def _dispatch(self, msg: "proto.Message") -> None:
        if isinstance(msg, (proto.Grant, proto.Reject, proto.Migrated)):
            fut = self._pending.pop(msg.seq, None)
            if fut is not None and not fut.done():
                fut.set_result(msg)
        elif isinstance(msg, proto.TickDone):
            self.server_slot = max(self.server_slot, msg.slot)
            if self._tick_waiters:
                fut = self._tick_waiters.popleft()
                if not fut.done():
                    fut.set_result(msg)
        elif isinstance(msg, proto.Pong):
            self.server_slot = max(self.server_slot, msg.slot)
            fut = self._ping_waiters.pop(msg.token, None)
            if fut is not None and not fut.done():
                fut.set_result(msg)
        elif isinstance(msg, proto.ErrorMsg):
            if msg.seq == 0:
                if msg.code == proto.ErrorCode.BAD_FRAME:
                    # The server killed the connection because *our*
                    # bytes arrived corrupt — wire damage, retryable.
                    raise ConnectionLostError(
                        f"server dropped corrupt stream: {msg.message}"
                    )
                raise ProtocolError(
                    f"connection-level error {msg.code}: {msg.message}"
                )
            fut = self._pending.pop(msg.seq, None)
            if fut is not None and not fut.done():
                fut.set_exception(
                    ProtocolError(f"error {msg.code}: {msg.message}")
                )
        else:
            raise ProtocolError(
                f"unexpected {type(msg).__name__} from server"
            )


class NetLink:
    """The TCP transport of :class:`~repro.service.client.SchedulingClient`:
    one :class:`NetClient` at a time, re-opened when the wire dies.

    :meth:`connection` reconnects with the ``reconnect`` policy's delays
    and publishes a new connection only after its resync PING, so a
    concurrent :meth:`tick` never reads ``server_slot == -1`` and
    re-requests ticks the server already ran.  Past
    ``reconnect_deadline`` seconds it raises
    :class:`~repro.errors.ConnectionLostError`.  :meth:`tick` drives the
    server to an absolute slot, so a reconnect never doubles a tick.  An
    optional heartbeat aborts a connection whose PING goes unanswered
    for ``liveness_timeout``; the next operation reconnects.
    """

    #: Exceptions that mean "the wire died, redeliver".
    transient = RETRYABLE_NET_ERRORS

    def __init__(
        self, host, port, reconnect, reconnect_deadline,
        heartbeat_interval, liveness_timeout, rng,
    ) -> None:
        for name, value in (
            ("reconnect_deadline", reconnect_deadline),
            ("heartbeat_interval", heartbeat_interval),
        ):
            if value is not None and value <= 0:
                raise InvalidParameterError(f"{name} must be > 0, got {value}")
        self.host, self.port = host, port
        self.reconnect = reconnect
        self.reconnect_deadline = reconnect_deadline
        self.heartbeat_interval = heartbeat_interval
        if liveness_timeout is None and heartbeat_interval is not None:
            liveness_timeout = 2 * heartbeat_interval
        self.liveness_timeout = liveness_timeout
        self._rng = rng
        self.telemetry = Telemetry()
        self.n_fibers = self.k = 0
        #: Completed reconnects (0 while the first connection lives).
        self.reconnects = 0
        #: The live connection (None before the first and after close).
        self.conn: NetClient | None = None
        self._lock = asyncio.Lock()
        self._hb_task: asyncio.Task | None = None
        self._closed = False

    @classmethod
    async def open(cls, *args) -> "NetLink":
        """Connect (within the reconnect deadline), start the heartbeat."""
        link = cls(*args)
        await link.connection()
        if link.heartbeat_interval is not None:
            link._hb_task = asyncio.get_running_loop().create_task(
                link._heartbeat_loop(), name="repro-netclient-heartbeat"
            )
        return link

    @property
    def slot(self) -> int:
        return -1 if self.conn is None else self.conn.server_slot

    async def close(self) -> None:
        """Reap the heartbeat task and close the connection."""
        if self._closed:
            return
        self._closed = True
        if self._hb_task is not None:
            self._hb_task.cancel()
            try:
                await self._hb_task
            except (asyncio.CancelledError, Exception):
                pass
        async with self._lock:
            if self.conn is not None:
                await self.conn.close()
                self.conn = None

    async def connection(self) -> NetClient:
        """A healthy connection, re-opened with backoff if needed."""
        c = self.conn
        if c is not None and c.healthy:
            return c
        async with self._lock:
            if self._closed:
                raise ProtocolError("client is closed")
            c = self.conn
            if c is not None and c.healthy:
                return c
            loop = asyncio.get_running_loop()
            start = loop.time()
            attempts = 0
            while True:
                if self.conn is not None:
                    old, self.conn = self.conn, None
                    await old.close()
                c = None
                try:
                    c = await NetClient.connect(self.host, self.port)
                    await c.ping()  # resync server_slot, then publish
                    self.conn = c
                except (ProtocolError, *RETRYABLE_NET_ERRORS) as exc:
                    delay = self.reconnect.delay(attempts, self._rng)
                    attempts += 1
                    if loop.time() - start + delay > self.reconnect_deadline:
                        raise ConnectionLostError(
                            f"reconnect to {self.host}:{self.port} failed for "
                            f"{self.reconnect_deadline}s ({attempts} attempts): "
                            f"{exc}"
                        ) from exc
                    await asyncio.sleep(delay)
                    continue
                finally:
                    if c is not None and self.conn is not c:
                        await c.close()
                if self.n_fibers:  # set by the first connection
                    self.reconnects += 1
                self.n_fibers, self.k = c.n_fibers, c.k
                return c

    async def _heartbeat_loop(self) -> None:
        while not self._closed:
            await asyncio.sleep(self.heartbeat_interval)
            c = self.conn
            if c is None or not c.healthy:
                continue
            try:
                await asyncio.wait_for(c.ping(), self.liveness_timeout)
            except (ProtocolError, *RETRYABLE_NET_ERRORS):
                c.abort(
                    f"no PONG within {self.liveness_timeout}s liveness window"
                )

    async def settled_slot(self, conn: NetClient) -> int:
        """The slot the server runs ``conn``'s next message at: wait for
        every TICK_ADVANCE already sent on it, or a deadline converted
        now lands a slot late."""
        await conn.ticks_settled()
        return max(conn.server_slot, 0)

    @staticmethod
    def reject(request, reason: RejectReason) -> proto.Reject:
        return proto.Reject(0, reason, slot=-1)

    async def tick(self, count: int) -> int:
        """Drive the server ``count`` ticks past its current slot."""
        target = max((await self.connection()).server_slot, 0) + count
        while True:
            conn = await self.connection()
            if conn.server_slot >= target:
                return conn.server_slot
            try:
                await conn.tick(target - conn.server_slot)
            except RETRYABLE_NET_ERRORS:
                pass
