"""A fault-injecting TCP proxy for the wire protocol (the net chaos rig).

:class:`ChaosProxy` sits between a :class:`~repro.net.client.NetClient`
and a :class:`~repro.net.server.NetServer` and executes a seeded
:class:`~repro.faults.net.NetFaultPlan` against the byte stream — added
latency, slow-loris write stalls, mid-frame connection resets,
single-byte corruption, duplicate SUBMIT delivery, and full partitions —
so the liveness machinery (heartbeats, reconnect/redelivery, strict
framing, exactly-once dedup, ``UNAVAILABLE`` degradation) can be drilled
through the *real* TCP stack, deterministically.

Design notes:

* The proxy splits the stream on **frame boundaries** using only the
  length header (:data:`~repro.util.framing.FRAME_HEADER`) — it never
  verifies CRCs, so a corruption it injects reaches the endpoint's
  strict decoder intact.
* **Slot time** is tracked by decoding clean server→client frames
  (TICK_DONE / PONG carry the server slot) *before* faults are applied.
  One-shot events fire at the first eligible frame at-or-after their
  trigger slot, which keeps a plan meaningful even when wall-clock
  timing wobbles.
* Duplicate delivery is restricted to SUBMIT frames: duplicating
  a TICK_ADVANCE would genuinely double-tick the service, which is a
  *different* experiment than "the network delivered a request twice".
* A partition starts at its trigger slot but heals after ``seconds`` of
  wall time, because slot time stops flowing while the link is down.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import TYPE_CHECKING

from repro.net import protocol as proto
from repro.util.framing import FRAME_HEADER, FRAME_HEADER_SIZE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.net import NetFaultPlan

__all__ = ["ChaosProxy", "FrameSplitter"]

_READ_CHUNK = 65536
_SUBMIT_TAG = int(proto.MsgType.SUBMIT)


class FrameSplitter:
    """Split a byte stream on frame boundaries without validating CRCs.

    Unlike :class:`~repro.util.framing.FrameDecoder` this never raises
    and never strips the envelope: :meth:`feed` yields complete frames
    (header + payload) verbatim, and :attr:`partial` exposes the
    unfinished tail so a proxy can forward a torn frame on EOF.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    @property
    def partial(self) -> bytes:
        """Bytes of the frame still being assembled (may be empty)."""
        return bytes(self._buf)

    def feed(self, data: bytes) -> list[bytes]:
        self._buf.extend(data)
        frames: list[bytes] = []
        while len(self._buf) >= FRAME_HEADER_SIZE:
            length, _crc = FRAME_HEADER.unpack_from(self._buf)
            end = FRAME_HEADER_SIZE + length
            if len(self._buf) < end:
                break
            frames.append(bytes(self._buf[:end]))
            del self._buf[:end]
        return frames


class _Link:
    """One proxied connection pair (client↔proxy↔server)."""

    __slots__ = ("client_writer", "server_writer", "tasks")

    def __init__(self, client_writer, server_writer) -> None:
        self.client_writer = client_writer
        self.server_writer = server_writer
        self.tasks: list[asyncio.Task] = []

    def abort(self) -> None:
        for w in (self.client_writer, self.server_writer):
            transport = w.transport
            if transport is not None:
                transport.abort()


class ChaosProxy:
    """A TCP proxy that injects a :class:`~repro.faults.net.NetFaultPlan`.

    Usage::

        proxy = ChaosProxy("127.0.0.1", server.port, plan)
        await proxy.start()
        client = await SchedulingClient.connect("127.0.0.1", proxy.port)

    :attr:`stats` counts every fault actually fired; ``trace_path`` (a
    JSONL file, one line per relayed frame / fired fault) is the frame
    trace CI uploads when a chaos run fails.
    """

    def __init__(
        self,
        target_host: str,
        target_port: int,
        plan: "NetFaultPlan",
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        trace_path: str | None = None,
    ) -> None:
        plan.validate()
        self.target_host = target_host
        self.target_port = target_port
        self.plan = plan
        self.host = host
        self._requested_port = port
        self._server: asyncio.AbstractServer | None = None
        self._links: set[_Link] = set()
        #: Server slot as last observed on the wire (TICK_DONE / PONG).
        self.slot = 0
        #: Wall-clock deadline of the active partition (0 = none).
        self._partition_until = 0.0
        self._started_at = 0.0
        # One-shot events, ascending by trigger slot; popped when fired.
        self._stalls = sorted(plan.stalls, key=lambda e: e.slot)
        self._resets = sorted(plan.resets, key=lambda e: e.slot)
        self._corruptions = sorted(plan.corruptions, key=lambda e: e.slot)
        self._duplicates = sorted(plan.duplicates, key=lambda e: e.slot)
        self._partitions = sorted(plan.partitions, key=lambda e: e.slot)
        self._frame_index = 0
        self.stats = {
            "frames": 0,
            "latency_delays": 0,
            "stalls": 0,
            "resets": 0,
            "corruptions": 0,
            "duplicates": 0,
            "partitions": 0,
            "refused_connects": 0,
        }
        self._trace_path = trace_path
        self._trace = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        assert self._server is not None, "proxy not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "ChaosProxy":
        if self._trace_path is not None:
            self._trace = open(self._trace_path, "w", encoding="utf-8")
        self._started_at = time.monotonic()
        self._server = await asyncio.start_server(
            self._handle, self.host, self._requested_port
        )
        return self

    async def close(self) -> None:
        """Stop accepting, abort live links, reap pump tasks. Idempotent."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for link in list(self._links):
            link.abort()
        tasks = [t for link in self._links for t in link.tasks]
        for t in tasks:
            t.cancel()
        for t in tasks:
            try:
                await t
            except (asyncio.CancelledError, Exception):
                pass
        self._links.clear()
        if self._trace is not None:
            self._trace.close()
            self._trace = None

    async def __aenter__(self) -> "ChaosProxy":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- tracing -------------------------------------------------------------

    def _log(self, kind: str, direction: str, **extra) -> None:
        if self._trace is None:
            return
        record = {
            "t": round(time.monotonic() - self._started_at, 6),
            "slot": self.slot,
            "dir": direction,
            "kind": kind,
            **extra,
        }
        self._trace.write(json.dumps(record) + "\n")
        self._trace.flush()

    # -- partition handling --------------------------------------------------

    def _partition_active(self) -> bool:
        return time.monotonic() < self._partition_until

    def _maybe_start_partition(self) -> bool:
        """Fire a due partition: sever every link, start the wall timer."""
        if not self._partitions or self.slot < self._partitions[0].slot:
            return False
        ev = self._partitions.pop(0)
        self._partition_until = time.monotonic() + ev.seconds
        self.stats["partitions"] += 1
        self._log("partition", "-", seconds=ev.seconds)
        for link in list(self._links):
            link.abort()
        return True

    # -- connection handling -------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        if self._partition_active():
            self.stats["refused_connects"] += 1
            self._log("refused_connect", "c2s")
            writer.transport.abort()
            return
        try:
            up_reader, up_writer = await asyncio.open_connection(
                self.target_host, self.target_port
            )
        except OSError:
            writer.transport.abort()
            return
        link = _Link(writer, up_writer)
        self._links.add(link)
        loop = asyncio.get_running_loop()
        link.tasks = [
            loop.create_task(
                self._pump(link, "c2s", reader, up_writer),
                name="repro-chaos-c2s",
            ),
            loop.create_task(
                self._pump(link, "s2c", up_reader, writer),
                name="repro-chaos-s2c",
            ),
        ]
        try:
            await asyncio.gather(*link.tasks, return_exceptions=True)
        finally:
            link.abort()
            self._links.discard(link)

    async def _pump(self, link: _Link, direction: str, reader, writer) -> None:
        splitter = FrameSplitter()
        try:
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    # Forward a torn tail so "closed mid-frame" is seen
                    # by the endpoint, not swallowed by the proxy.
                    if splitter.partial:
                        writer.write(splitter.partial)
                        await writer.drain()
                    break
                for frame in splitter.feed(data):
                    await self._relay(link, direction, frame, writer)
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            transport = writer.transport
            if transport is not None:
                try:
                    writer.write_eof()
                except (OSError, RuntimeError, AttributeError):
                    transport.abort()

    # -- fault application ---------------------------------------------------

    def _observe(self, direction: str, frame: bytes) -> int:
        """Track slot time from clean server→client traffic; returns the
        frame's message tag (or -1)."""
        if len(frame) <= FRAME_HEADER_SIZE:
            return -1
        tag = frame[FRAME_HEADER_SIZE]
        if direction == "s2c" and tag in (
            int(proto.MsgType.TICK_DONE), int(proto.MsgType.PONG),
        ):
            try:
                msg = proto.decode_message(frame[FRAME_HEADER_SIZE:])
            except Exception:
                return tag
            self.slot = max(self.slot, msg.slot)
        return tag

    @staticmethod
    def _due(events: list, slot: int) -> bool:
        return bool(events) and slot >= events[0].slot

    async def _relay(
        self, link: _Link, direction: str, frame: bytes, writer
    ) -> None:
        tag = self._observe(direction, frame)
        self.stats["frames"] += 1
        self._frame_index += 1
        if self._maybe_start_partition():
            return  # the link was just severed; drop the frame
        # Mid-frame reset: write half, abort both sides.
        if self._due(self._resets, self.slot) and (
            self._resets[0].direction == direction
        ):
            self._resets.pop(0)
            self.stats["resets"] += 1
            self._log("reset", direction, tag=tag)
            writer.write(frame[: max(1, len(frame) // 2)])
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            link.abort()
            return
        # Single-byte payload corruption (CRC must catch it downstream).
        if self._due(self._corruptions, self.slot) and (
            self._corruptions[0].direction == direction
            and len(frame) > FRAME_HEADER_SIZE
        ):
            ev = self._corruptions.pop(0)
            mutated = bytearray(frame)
            payload_len = len(frame) - FRAME_HEADER_SIZE
            pos = FRAME_HEADER_SIZE + (ev.offset % payload_len)
            mutated[pos] ^= ev.mask
            frame = bytes(mutated)
            self.stats["corruptions"] += 1
            self._log("corrupt", direction, tag=tag, pos=pos, mask=ev.mask)
        # Latency spike: hold the frame (delay + deterministic jitter).
        for ev in self.plan.latencies:
            if ev.active_at(self.slot):
                self.stats["latency_delays"] += 1
                jitter = ev.jitter * ((self._frame_index % 7) / 7.0)
                await asyncio.sleep(ev.delay + jitter)
                break
        # Slow-loris write stall: dribble the frame out byte-chunked.
        if self._due(self._stalls, self.slot) and (
            self._stalls[0].direction == direction
        ):
            ev = self._stalls.pop(0)
            self.stats["stalls"] += 1
            self._log("stall", direction, tag=tag, seconds=ev.seconds)
            n_chunks = min(len(frame), 8)
            step = -(-len(frame) // n_chunks)
            pause = ev.seconds / n_chunks
            for i in range(0, len(frame), step):
                writer.write(frame[i : i + step])
                await writer.drain()
                await asyncio.sleep(pause)
            self._log("frame", direction, tag=tag, len=len(frame))
            return
        # Duplicate delivery: only SUBMIT frames (duplicating a
        # TICK_ADVANCE would double-tick the service — a different bug).
        if (
            direction == "c2s"
            and tag == _SUBMIT_TAG
            and self._due(self._duplicates, self.slot)
        ):
            self._duplicates.pop(0)
            self.stats["duplicates"] += 1
            self._log("duplicate", direction, tag=tag)
            writer.write(frame)
        writer.write(frame)
        await writer.drain()
        self._log("frame", direction, tag=tag, len=len(frame))
