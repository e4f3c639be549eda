"""The TCP front door: handshake, submissions, ticks, shutdown hygiene.

The hygiene tests pin the satellite contract of PR 6: cancelled or
abandoned submissions must close their sockets/transports cleanly — no
"Task was destroyed but it is pending" warnings, no leaked file
descriptors under repeated connect/cancel cycles.
"""

import asyncio
import gc
import json
import os
import struct
import warnings

import pytest

pytestmark = pytest.mark.net

from repro.core.distributed import SlotRequest
from repro.core.first_available import FirstAvailableScheduler
from repro.core.policies import WeightedFairPolicy
from repro.errors import ConnectionLostError, ProtocolError
from repro.faults.net import NetFaultPlan
from repro.graphs.conversion import NonCircularConversion
from repro.net import protocol as proto
from repro.net.chaos import ChaosProxy
from repro.net.client import RETRYABLE_NET_ERRORS, NetClient
from repro.net.server import NetServer
from repro.service import OverflowPolicy, SchedulingService, TenantAdmission
from repro.service.server import Rejected, RejectReason
from repro.util.framing import FRAME_HEADER_SIZE, FrameDecoder, encode_frame

N_FIBERS, K = 4, 3


def _service() -> SchedulingService:
    return SchedulingService(
        N_FIBERS,
        NonCircularConversion(K, 1, 1),
        FirstAvailableScheduler(),
        durability=False,
    )


async def _stack():
    service = _service()
    server = NetServer(service)
    await server.start()
    return service, server


def run(coro):
    return asyncio.run(coro)


async def _raw_hello(port: int, versions: tuple[int, ...]):
    """Open a bare socket, send a hand-written HELLO offering ``versions``
    and return ``(reader, writer, reply)``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(encode_frame(proto.encode_message(proto.Hello(versions))))
    await writer.drain()
    data = await asyncio.wait_for(reader.read(4096), 5)
    return reader, writer, proto.decode_message(data[8:])  # one frame


class TestHandshake:
    def test_welcome_carries_shape(self):
        async def go():
            service, server = await _stack()
            client = await NetClient.connect("127.0.0.1", server.port)
            try:
                assert client.version == proto.PROTOCOL_VERSION == 6
                assert client.n_fibers == N_FIBERS
                assert client.k == K
            finally:
                await client.close()
                await server.stop()
                await service.stop()

        run(go())

    def _assert_refused(self, versions):
        async def go():
            service, server = await _stack()
            try:
                reader, writer, msg = await _raw_hello(server.port, versions)
                assert isinstance(msg, proto.ErrorMsg)
                assert msg.code == proto.ErrorCode.NO_COMMON_VERSION
                assert msg.seq == 0
                # ...and the server closes.
                assert await asyncio.wait_for(reader.read(4096), 5) == b""
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()
                await service.stop()

        run(go())

    def test_no_common_version_is_refused(self):
        self._assert_refused((99,))

    def test_pre_v5_hello_is_refused_then_closed(self):
        self._assert_refused((1, 2, 3, 4))

    def test_client_refuses_a_foreign_welcome_version(self):
        """WELCOME is outside input: a server answering another version
        fails the connect typed, rather than yielding a client."""

        async def go():
            async def fake_server(reader, writer):
                await reader.read(4096)
                writer.write(
                    encode_frame(
                        proto.encode_message(proto.Welcome(4, N_FIBERS, K))
                    )
                )
                await writer.drain()
                await reader.read(4096)
                writer.close()

            server = await asyncio.start_server(fake_server, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                with pytest.raises(ProtocolError, match="version 4"):
                    await NetClient.connect("127.0.0.1", port)
            finally:
                server.close()
                await server.wait_closed()

        run(go())

    def test_message_before_hello_is_refused(self):
        async def go():
            service, server = await _stack()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    encode_frame(proto.encode_message(proto.TickAdvance(1)))
                )
                await writer.drain()
                data = await asyncio.wait_for(reader.read(4096), 5)
                msg = proto.decode_message(data[8:])  # one frame
                assert isinstance(msg, proto.ErrorMsg)
                assert msg.code == proto.ErrorCode.HANDSHAKE_REQUIRED
                assert msg.seq == 0
                # ...and the server closes.
                assert await asyncio.wait_for(reader.read(4096), 5) == b""
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()
                await service.stop()

        run(go())

    def test_corrupt_frame_kills_the_connection(self):
        async def go():
            service, server = await _stack()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                frame = bytearray(
                    encode_frame(proto.encode_message(proto.Hello((1,))))
                )
                frame[-1] ^= 0xFF  # poison the payload: CRC now mismatches
                writer.write(bytes(frame))
                await writer.drain()
                # Server answers (best-effort ERROR) and closes; the reader
                # must see EOF, not hang.
                await asyncio.wait_for(reader.read(65536), 5)
                assert await asyncio.wait_for(reader.read(65536), 5) == b""
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()
                await service.stop()

        run(go())


class TestRequests:
    def test_submit_grant_reject_over_tcp(self):
        async def go():
            service, server = await _stack()
            client = await NetClient.connect("127.0.0.1", server.port)
            try:
                # Two requests race for the same (output, wavelength):
                # k=3 channels but only one converter-reachable channel
                # per wavelength under (1,1) — contention is possible.
                futs = [
                    client.submit_nowait(SlotRequest(i, 0, 0))
                    for i in range(3)
                ]
                done = await client.tick(1)
                outcomes = await asyncio.gather(*futs)
                assert done.slot == 1
                grants = [o for o in outcomes if isinstance(o, proto.Grant)]
                rejects = [o for o in outcomes if isinstance(o, proto.Reject)]
                assert len(grants) + len(rejects) == 3
                assert len(grants) == done.granted
                assert all(r.reason is RejectReason.CONTENTION for r in rejects)
            finally:
                await client.close()
                await server.stop()
                await service.stop()

        run(go())

    def test_bad_submit_gets_typed_error_not_hang(self):
        async def go():
            service, server = await _stack()
            client = await NetClient.connect("127.0.0.1", server.port)
            try:
                fut = client.submit_nowait(
                    SlotRequest(0, K + 5, 0)  # wavelength out of range
                )
                with pytest.raises(ProtocolError, match="BAD_REQUEST|error 3"):
                    await asyncio.wait_for(fut, 5)
            finally:
                await client.close()
                await server.stop()
                await service.stop()

        run(go())

    def test_unencodable_row_fails_alone(self):
        """A row the codec refuses raises at ``submit_nowait`` and queues
        nothing; the rest of its loop turn's batch still reaches the
        server."""

        async def go():
            service, server = await _stack()
            client = await NetClient.connect("127.0.0.1", server.port)
            try:
                good = client.submit_nowait(SlotRequest(0, 0, 0))
                with pytest.raises(ProtocolError, match="cannot encode"):
                    client.submit_nowait(SlotRequest(1, 1, 1), request_id="x" * 300)
                with pytest.raises(ProtocolError, match="cannot encode"):
                    client.submit_nowait(SlotRequest(-1, 0, 0))
                also_good = client.submit_nowait(SlotRequest(2, 2, 2))
                done = await client.tick(1)
                assert done.granted == 2
                assert isinstance(await good, proto.Grant)
                assert isinstance(await also_good, proto.Grant)
                assert client._pending == {}
            finally:
                await client.close()
                await server.stop()
                await service.stop()

        run(go())

    def test_tick_counts_multiple(self):
        async def go():
            service, server = await _stack()
            client = await NetClient.connect("127.0.0.1", server.port)
            try:
                done = await client.tick(5)
                assert done.slot == 5
            finally:
                await client.close()
                await server.stop()
                await service.stop()

        run(go())

    def test_two_clients_share_one_service(self):
        async def go():
            service, server = await _stack()
            a = await NetClient.connect("127.0.0.1", server.port)
            b = await NetClient.connect("127.0.0.1", server.port)
            try:
                fa = a.submit_nowait(SlotRequest(0, 0, 0))
                fb = b.submit_nowait(SlotRequest(1, 1, 1))
                # Cross-connection ordering is not guaranteed: b's submit
                # may still be in flight when a's first tick runs, so tick
                # until both resolve instead of assuming one is enough.
                for _ in range(20):
                    await a.tick(1)
                    if fa.done() and fb.done():
                        break
                ra, rb = await asyncio.wait_for(
                    asyncio.gather(fa, fb), 5
                )
                assert isinstance(ra, proto.Grant)
                assert isinstance(rb, proto.Grant)
            finally:
                await a.close()
                await b.close()
                await server.stop()
                await service.stop()

        run(go())


class TestRejectCodes:
    """Every reject reason reaches the client verbatim, and the retired
    tenant-only submit tag is refused like any unknown tag."""

    @staticmethod
    def _qos_service() -> SchedulingService:
        weights = {0: 1}
        return SchedulingService(
            N_FIBERS,
            NonCircularConversion(K, 1, 1),
            FirstAvailableScheduler(),
            policy=WeightedFairPolicy(weights),
            queue_capacity=2,
            overflow=OverflowPolicy.SHED,
            admission=TenantAdmission(weights),
            durability=False,
        )

    class _UnavailableService(SchedulingService):
        def submit_nowait(self, request, **kwargs):
            fut = asyncio.get_running_loop().create_future()
            fut.set_result(
                Rejected(request, RejectReason.UNAVAILABLE, slot=None)
            )
            return fut

    def test_retired_submit2_tag_is_refused(self):
        """A greeted peer that ships a tag-0x0A frame gets a typed
        connection-level BAD_REQUEST and the connection closes — no
        grant, no hang."""

        async def go():
            service, server = await _stack()
            try:
                reader, writer, welcome = await _raw_hello(
                    server.port, (proto.PROTOCOL_VERSION,)
                )
                assert isinstance(welcome, proto.Welcome)
                body = struct.pack("!QIIIIiIqH", 1, 0, 0, 0, 1, 0, 5, -1, 0)
                writer.write(encode_frame(b"\x0a" + body))
                await writer.drain()
                data = await asyncio.wait_for(reader.read(4096), 5)
                msg = proto.decode_message(data[8:])
                assert isinstance(msg, proto.ErrorMsg)
                assert msg.seq == 0
                assert msg.code == proto.ErrorCode.BAD_REQUEST
                assert await asyncio.wait_for(reader.read(4096), 5) == b""
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()
                await service.stop()

        run(go())

    def test_admission_shed_reported_verbatim(self):
        async def go():
            service = self._qos_service()
            server = NetServer(service)
            await server.start()
            client = await NetClient.connect("127.0.0.1", server.port)
            try:
                futs = [
                    client.submit_nowait(SlotRequest(i % N_FIBERS, 0, 0))
                    for i in range(6)
                ]
                await client.tick(1)
                outcomes = await asyncio.wait_for(asyncio.gather(*futs), 5)
            finally:
                await client.close()
                await server.stop()
                await service.stop()
            rejects = [o for o in outcomes if isinstance(o, proto.Reject)]
            # capacity 2, 6 submissions to one shard: sheds are certain.
            shed = [
                r
                for r in rejects
                if r.reason is RejectReason.ADMISSION_SHED
            ]
            assert len(shed) >= 1
            assert all(
                r.reason is not RejectReason.DROPPED for r in rejects
            )

        run(go())

    def test_unavailable_reported_verbatim(self):
        async def go():
            service = self._UnavailableService(
                N_FIBERS,
                NonCircularConversion(K, 1, 1),
                FirstAvailableScheduler(),
                durability=False,
            )
            server = NetServer(service)
            await server.start()
            client = await NetClient.connect("127.0.0.1", server.port)
            try:
                return await asyncio.wait_for(
                    client.submit_nowait(SlotRequest(0, 0, 0)), 5
                )
            finally:
                await client.close()
                await server.stop()
                await service.stop()

        reply = run(go())
        assert isinstance(reply, proto.Reject)
        assert reply.reason is RejectReason.UNAVAILABLE


def _slot_requests(n: int) -> list[SlotRequest]:
    return [
        SlotRequest(i % N_FIBERS, (i // N_FIBERS) % K, (i * 7) % N_FIBERS)
        for i in range(n)
    ]


class TestWireShape:
    """One frame per slot each way: a slot's submissions leave as one
    SUBMIT_BATCH and come back as one OUTCOMES, ahead of TICK_DONE."""

    _HANDSHAKE = {int(proto.MsgType.HELLO), int(proto.MsgType.WELCOME)}

    async def _one_slot(self, n: int, trace_path):
        """Submit ``n`` requests in one loop turn and tick once through a
        fault-free proxy; returns the futures, their state when ``tick()``
        returned, the relayed frames and the server's counters."""
        service = _service()
        server = NetServer(service)
        await server.start()
        proxy = await ChaosProxy(
            "127.0.0.1", server.port, NetFaultPlan(),
            trace_path=str(trace_path),
        ).start()
        client = await NetClient.connect("127.0.0.1", proxy.port)
        try:
            futs = [client.submit_nowait(r) for r in _slot_requests(n)]
            done = await client.tick()
            settled = [f.done() for f in futs]
            assert done.slot == 1
        finally:
            await client.close()
            await proxy.close()
            await server.stop()
            await service.stop()
        records = [json.loads(line) for line in trace_path.read_text().splitlines()]
        frames = [
            (r["dir"], r["tag"], r["len"])
            for r in records
            if r["kind"] == "frame"
            and r["tag"] not in self._HANDSHAKE
            and r["tag"] != proto.MsgType.BYE
        ]
        counters = service.telemetry.snapshot()["counters"]
        return futs, settled, frames, counters

    def test_a_slot_is_one_frame_each_way(self, tmp_path):
        futs, settled, frames, counters = run(
            self._one_slot(230, tmp_path / "frames.jsonl")
        )
        assert [(d, t) for d, t, _ in frames if d == "c2s"] == [
            ("c2s", proto.MsgType.SUBMIT_BATCH),
            ("c2s", proto.MsgType.TICK_ADVANCE),
        ]
        assert [(d, t) for d, t, _ in frames if d == "s2c"] == [
            ("s2c", proto.MsgType.OUTCOMES),
            ("s2c", proto.MsgType.TICK_DONE),
        ]
        # The OUTCOMES frame precedes TICK_DONE, so every future the tick
        # resolved is done by the time tick() returns.
        assert all(settled)
        outcomes = [f.result() for f in futs]
        assert sorted(o.seq for o in outcomes) == list(range(1, 231))
        assert counters["server.submitted"] == 230
        assert len([o for o in outcomes if isinstance(o, proto.Grant)]) == (
            counters["server.granted"]
        )

    def test_a_huge_slot_splits_within_max_message(self, tmp_path):
        futs, settled, frames, counters = run(
            self._one_slot(5000, tmp_path / "frames.jsonl")
        )
        batches = [f for f in frames if f[1] == proto.MsgType.SUBMIT_BATCH]
        outcomes = [f for f in frames if f[1] == proto.MsgType.OUTCOMES]
        assert len(batches) > 2 and len(outcomes) > 1
        for _d, _t, length in batches + outcomes:
            assert length - FRAME_HEADER_SIZE <= proto.MAX_MESSAGE
        # Every request is resolved once, and the server conserved them.
        assert all(settled)
        assert sorted(f.result().seq for f in futs) == list(range(1, 5001))
        resolved = counters.get("server.granted", 0) + sum(
            v for k, v in counters.items() if k.startswith("server.rejected.")
        )
        assert counters["server.submitted"] == resolved == 5000


class TestShutdownHygiene:
    def test_rows_queued_at_close_never_follow_bye(self):
        """Rows queued and then closed on in the same loop turn leave
        before the BYE, never after it; every future ends cancelled (or
        resolved) and no task is left pending."""

        async def go():
            service, server = await _stack()
            client = await NetClient.connect("127.0.0.1", server.port)
            written = []
            write = client._writer.write
            client._writer.write = lambda data: (
                written.append(bytes(data)), write(data)
            )[1]
            try:
                futs = [client.submit_nowait(r) for r in _slot_requests(20)]
                await client.close()
                # Let the loop-turn flush that submit_nowait scheduled run.
                for _ in range(3):
                    await asyncio.sleep(0)
                assert all(f.done() for f in futs)
                assert all(
                    f.cancelled() or f.exception() is None for f in futs
                )
            finally:
                await server.stop()
                await service.stop()
            decoder = FrameDecoder(max_payload=proto.MAX_MESSAGE)
            msgs = [
                proto.decode_message(p)
                for p in decoder.feed(b"".join(written))
            ]
            assert isinstance(msgs[-1], proto.Bye)
            sent = [row for m in msgs[:-1] for row in m.rows]
            assert [row.seq for row in sent] == list(range(1, 21))

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(go())
            gc.collect()
        assert [w for w in caught if "Task was destroyed" in str(w.message)] == []

    def test_rows_queued_on_a_dying_connection_fail_retryably(self):
        """A connection lost with rows still queued fails their futures
        with ConnectionLostError, the error SchedulingClient redelivers
        on, and never writes the rows."""

        async def go():
            service, server = await _stack()
            try:
                for kill in ("abort", "peer_reset"):
                    proxy = await ChaosProxy(
                        "127.0.0.1", server.port, NetFaultPlan()
                    ).start()
                    client = await NetClient.connect("127.0.0.1", proxy.port)
                    try:
                        futs = [
                            client.submit_nowait(r) for r in _slot_requests(5)
                        ]
                        if kill == "abort":
                            client.abort("liveness lost")
                        else:
                            for link in list(proxy._links):
                                link.abort()
                        results = await asyncio.wait_for(
                            asyncio.gather(*futs, return_exceptions=True), 5
                        )
                        for r in results:
                            assert isinstance(r, ConnectionLostError), kill
                            assert isinstance(r, RETRYABLE_NET_ERRORS)
                    finally:
                        await client.close()
                        await proxy.close()
                counters = service.telemetry.snapshot()["counters"]
                assert counters.get("server.submitted", 0) == 0
            finally:
                await server.stop()
                await service.stop()

        run(go())

    def test_no_pending_task_warnings_on_close(self):
        """Repeated connect/submit/abandon/close cycles leak nothing."""

        async def one_cycle(port):
            client = await NetClient.connect("127.0.0.1", port)
            # Submit and abandon (never tick, never await the future).
            client.submit_nowait(SlotRequest(0, 0, 0))
            await client.close()

        async def go():
            service, server = await _stack()
            try:
                for _ in range(10):
                    await one_cycle(server.port)
            finally:
                await server.stop()
                await service.stop()

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(go())
            gc.collect()
        destroyed = [
            w for w in caught if "Task was destroyed" in str(w.message)
        ]
        assert destroyed == []

    def test_cancelled_submit_detaches_cleanly(self):
        async def go():
            service, server = await _stack()
            client = await NetClient.connect("127.0.0.1", server.port)
            try:
                task = asyncio.ensure_future(
                    client.submit(SlotRequest(0, 0, 0))
                )
                await asyncio.sleep(0.01)
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                assert client._pending == {}
                # The connection stays usable after a cancelled submit.
                fut = client.submit_nowait(SlotRequest(1, 1, 1))
                await client.tick(1)
                assert isinstance(await fut, proto.Grant)
            finally:
                await client.close()
                await server.stop()
                await service.stop()

        run(go())

    def test_no_fd_leak_under_connect_cancel_cycles(self):
        fd_dir = f"/proc/{os.getpid()}/fd"
        if not os.path.isdir(fd_dir):  # pragma: no cover - non-Linux
            pytest.skip("needs /proc fd accounting")

        async def go():
            service, server = await _stack()
            try:
                # Warm-up (loop machinery opens a few fds lazily).
                for _ in range(3):
                    c = await NetClient.connect("127.0.0.1", server.port)
                    c.submit_nowait(SlotRequest(0, 0, 0))
                    await c.close()
                before = len(os.listdir(fd_dir))
                for _ in range(20):
                    c = await NetClient.connect("127.0.0.1", server.port)
                    task = asyncio.ensure_future(
                        c.submit(SlotRequest(0, 0, 0))
                    )
                    await asyncio.sleep(0)
                    task.cancel()
                    try:
                        await task
                    except asyncio.CancelledError:
                        pass
                    await c.close()
                # Let the server reap its side of the connections.
                await asyncio.sleep(0.05)
                after = len(os.listdir(fd_dir))
                assert after <= before + 2, (
                    f"fd count grew {before} -> {after}"
                )
            finally:
                await server.stop()
                await service.stop()

        run(go())

    def test_double_close_is_idempotent(self):
        async def go():
            service, server = await _stack()
            client = await NetClient.connect("127.0.0.1", server.port)
            await client.close()
            await client.close()
            with pytest.raises(ProtocolError, match="closed"):
                client.submit_nowait(SlotRequest(0, 0, 0))
            await server.stop()
            await service.stop()

        run(go())

    def test_server_stop_closes_live_connections(self):
        async def go():
            service, server = await _stack()
            client = await NetClient.connect("127.0.0.1", server.port)
            await server.stop()
            # The client notices: new work fails fast (either at submit,
            # once the reader has seen EOF, or via the future), close is
            # clean either way.
            with pytest.raises((ProtocolError, ConnectionError, OSError)):
                fut = client.submit_nowait(SlotRequest(0, 0, 0))
                await asyncio.wait_for(fut, 5)
            await client.close()
            await service.stop()

        run(go())


class TestLiveness:
    """Protocol-v4 liveness: handshake deadline, idle reaping (PR 10)."""

    def test_handshake_deadline_sheds_silent_peers(self):
        async def go():
            service = _service()
            server = NetServer(service, handshake_timeout=0.2)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                # Say nothing: the server must shed us, not hold the fd.
                data = await asyncio.wait_for(reader.read(65536), 5)
                msg = proto.decode_message(data[8:])  # one frame
                assert isinstance(msg, proto.ErrorMsg)
                assert msg.code == proto.ErrorCode.HANDSHAKE_REQUIRED
                assert "handshake deadline" in msg.message
                assert await asyncio.wait_for(reader.read(65536), 5) == b""
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()
                await service.stop()

        run(go())

    def test_handshake_within_deadline_is_unaffected(self):
        async def go():
            service = _service()
            server = NetServer(service, handshake_timeout=5.0)
            await server.start()
            client = await NetClient.connect("127.0.0.1", server.port)
            try:
                assert isinstance(await client.ping(), proto.Pong)
            finally:
                await client.close()
                await server.stop()
                await service.stop()

        run(go())

    def test_idle_timeout_reaps_greeted_connections(self):
        async def go():
            service = _service()
            server = NetServer(service, idle_timeout=0.2)
            await server.start()
            client = await NetClient.connect("127.0.0.1", server.port)
            try:
                # Go quiet after the handshake: the server sends BYE and
                # closes.  The client must observe the loss (retryably) —
                # a reaped connection that still looks healthy would trap
                # a resilient wrapper into submitting down a dead pipe.
                await asyncio.sleep(0.5)
                assert not client.healthy
                with pytest.raises(ProtocolError):
                    client._check_open()
            finally:
                await client.close()
                await server.stop()
                await service.stop()

        run(go())

    def test_heartbeats_keep_an_idle_connection_alive(self):
        async def go():
            service = _service()
            server = NetServer(service, idle_timeout=0.4)
            await server.start()
            client = await NetClient.connect("127.0.0.1", server.port)
            try:
                for _ in range(4):
                    await asyncio.sleep(0.2)
                    await asyncio.wait_for(client.ping(), 5)
                # Still greeted and serving after > idle_timeout of
                # wall time, because PINGs reset the idle clock.
                fut = client.submit_nowait(SlotRequest(0, 0, 0))
                await client.tick(1)
                assert isinstance(await asyncio.wait_for(fut, 5), proto.Grant)
            finally:
                await client.close()
                await server.stop()
                await service.stop()

        run(go())

    def test_invalid_timeouts_are_refused(self):
        from repro.errors import InvalidParameterError

        service = _service()
        try:
            with pytest.raises(InvalidParameterError):
                NetServer(service, handshake_timeout=0.0)
            with pytest.raises(InvalidParameterError):
                NetServer(service, idle_timeout=-1.0)
        finally:
            run(service.stop())


class TestTickDeadlines:
    """``timeout_ticks`` end-to-end over the wire: deterministic slot
    deadlines for tenant-0 and tenanted submissions alike."""

    def _deadline_service(self) -> SchedulingService:
        # One grant per tick: later queue entries are drained on later
        # slots, exceeding their tick deadline without any wall-clock
        # sleeping.
        return SchedulingService(
            N_FIBERS,
            NonCircularConversion(K, 1, 1),
            FirstAvailableScheduler(),
            durability=False,
            max_batch_per_tick=1,
            admission=TenantAdmission(default_weight=1),
        )

    def _run_deadline_drill(self, tenant: int):
        async def go():
            service = self._deadline_service()
            server = NetServer(service)
            await server.start()
            client = await NetClient.connect("127.0.0.1", server.port)
            try:
                # One output fiber: the per-shard batch cap (1) spreads
                # the drains over slots 0, 1, 2 — distinct inputs so
                # source admission never interferes.
                futs = [
                    client.submit_nowait(
                        SlotRequest(i, 0, 0, tenant=tenant),
                        timeout_ticks=1,
                    )
                    for i in range(3)
                ]
                for _ in range(4):
                    await client.tick(1)
                outcomes = await asyncio.wait_for(asyncio.gather(*futs), 5)
            finally:
                await client.close()
                await server.stop()
                await service.stop()
            return outcomes

        outcomes = run(go())
        grants = [o for o in outcomes if isinstance(o, proto.Grant)]
        timed_out = [
            o
            for o in outcomes
            if isinstance(o, proto.Reject)
            and o.reason is RejectReason.TIMED_OUT
        ]
        # Deadline slot is submit slot (0) + 1: the slot-0 drain grants
        # exactly one, the slot-1 drain happens at the deadline and every
        # later drain is past it — all deterministic, no wall clock.
        assert len(grants) == 1
        assert grants[0].slot == 0
        assert len(timed_out) == 2
        assert {o.slot for o in timed_out} <= {1, 2, 3}

    def test_submit_path_expires_on_slot_deadline(self):
        self._run_deadline_drill(tenant=0)

    def test_submit2_path_expires_on_slot_deadline(self):
        """Tenant != 0: the path the retired 0x0A tag once carried."""
        self._run_deadline_drill(tenant=7)

    def test_timeout_zero_expires_at_first_drain_after_backlog(self):
        async def go():
            service = self._deadline_service()
            server = NetServer(service)
            await server.start()
            client = await NetClient.connect("127.0.0.1", server.port)
            try:
                blocker = client.submit_nowait(SlotRequest(0, 0, 0))
                doomed = client.submit_nowait(
                    SlotRequest(1, 0, 1), timeout_ticks=0
                )
                await client.tick(2)
                b, d = await asyncio.wait_for(
                    asyncio.gather(blocker, doomed), 5
                )
                assert isinstance(b, proto.Grant)
                assert isinstance(d, proto.Reject)
                assert d.reason is RejectReason.TIMED_OUT
            finally:
                await client.close()
                await server.stop()
                await service.stop()

        run(go())
