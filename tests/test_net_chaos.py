"""The net chaos rig: seeded wire faults through the real TCP stack.

The acceptance drill of PR 10: a :class:`~repro.net.chaos.ChaosProxy`
executes a seeded :class:`~repro.faults.net.NetFaultPlan` (latency,
write stalls, mid-frame resets, single-byte corruption, duplicate
SUBMIT_BATCH delivery, a healed partition) between a
:class:`~repro.service.SchedulingClient` over TCP and a live
:class:`~repro.net.server.NetServer`, and the run must *converge*:

* every request the client observed as **granted** is bit-identical
  (channel and slot) to a fault-free reference run of the same workload;
* the conservation invariant holds server-side (``submitted == granted
  + Σ rejects``, ``UNAVAILABLE`` included);
* corruption is caught by the CRC (connection dies loudly) — a wrong
  grant is never delivered;
* no fd leaks and no destroyed-pending-task warnings at shutdown.

Determinism: the workload pins absolute ``deadline_slot`` values before
scheduling each submit, and every request has ``timeout_ticks=1`` with
``duration=1`` and at most one request per output fiber per slot — so a
request either joins exactly its reference batch (clean-slate channel
state each slot ⇒ the reference grant) or expires TIMED_OUT.  Fault
*timing* wobbles with the wall clock, but a grant at a wrong slot or
channel is impossible, which is the invariant that matters.
"""

import asyncio
import gc
import os
import warnings

import pytest

pytestmark = [pytest.mark.chaos, pytest.mark.net]

from repro.core.distributed import SlotRequest
from repro.core.first_available import FirstAvailableScheduler
from repro.errors import InvalidParameterError
from repro.faults.net import (
    ConnReset,
    CorruptByte,
    DuplicateFrame,
    LatencySpike,
    NetFaultPlan,
    Partition,
    WriteStall,
)
from repro.graphs.conversion import NonCircularConversion
from repro.net import protocol as proto
from repro.net.chaos import ChaosProxy, FrameSplitter
from repro.net.client import NetClient
from repro.net.server import NetServer
from repro.service import RetryPolicy, SchedulingClient, SchedulingService
from repro.service.server import RejectReason
from repro.util.framing import encode_frame

N_FIBERS, K = 4, 3
SOAK_SLOTS = 40
SOAK_SEED = 0xC0FFEE


def run(coro):
    return asyncio.run(coro)


def _service() -> SchedulingService:
    return SchedulingService(
        N_FIBERS,
        NonCircularConversion(K, 1, 1),
        FirstAvailableScheduler(),
        durability=False,
    )


def _workload(slot: int) -> list[tuple[str, SlotRequest]]:
    """1–3 single-slot requests, at most one per output fiber — grants
    are history-independent, so the bit-identity argument is airtight."""
    reqs = []
    for j in range(1 + (slot % 3)):
        reqs.append(
            (
                f"req-{slot}-{j}",
                SlotRequest(
                    (slot + 2 * j) % N_FIBERS,
                    (slot + j) % K,
                    (slot + j) % N_FIBERS,
                    duration=1,
                ),
            )
        )
    return reqs


async def _drive(rc: SchedulingClient) -> dict:
    """Run the soak workload; returns ``{request_id: Grant | Reject}``."""
    tasks: dict[str, asyncio.Task] = {}
    for slot in range(SOAK_SLOTS):
        base = max(rc.slot, 0)
        for rid, request in _workload(slot):
            tasks[rid] = asyncio.ensure_future(
                rc.submit(request, request_id=rid, deadline_slot=base + 1)
            )
        await asyncio.sleep(0.002)
        await rc.tick(1)
    # Keep ticking until redelivered stragglers expire: liveness means
    # this terminates; a hang here is exactly the bug the drill hunts.
    flushes = 0
    while any(not t.done() for t in tasks.values()) and flushes < 50:
        flushes += 1
        await rc.tick(1)
        await asyncio.sleep(0.02)
    return {
        rid: await asyncio.wait_for(t, 10) for rid, t in tasks.items()
    }


def _conservation(service: SchedulingService) -> None:
    counters = service.telemetry.snapshot()["counters"]
    resolved = counters.get("server.granted", 0)
    for name, value in counters.items():
        if name.startswith("server.rejected."):
            resolved += value
    for name in (
        "server.dropped", "server.timed_out",
        "server.shutdown", "server.duplicate",
    ):
        resolved += counters.get(name, 0)
    assert counters["server.submitted"] == resolved


class TestNetFaultPlan:
    def test_same_seed_same_plan(self):
        a = NetFaultPlan.random(7, 64)
        b = NetFaultPlan.random(7, 64)
        assert a == b
        assert NetFaultPlan.random(8, 64) != a

    def test_random_plan_validates_and_has_all_kinds(self):
        plan = NetFaultPlan.random(3, 32)
        assert plan.validate() is plan
        assert plan.latencies and plan.stalls and plan.resets
        assert plan.corruptions and plan.duplicates and plan.partitions
        assert not plan.is_empty
        assert plan.horizon() >= 1
        assert plan.meta["seed"] == 3

    def test_from_events_and_merge(self):
        a = NetFaultPlan.from_events(
            [ConnReset(5), DuplicateFrame(3), Partition(9, seconds=0.1)]
        )
        b = NetFaultPlan.from_events([ConnReset(2), CorruptByte(4)])
        merged = a.merge(b)
        assert merged.resets == (ConnReset(2), ConnReset(5))
        assert merged.corruptions == (CorruptByte(4),)
        assert merged.n_events == 5

    def test_validate_rejects_ill_formed_events(self):
        with pytest.raises(InvalidParameterError):
            NetFaultPlan(resets=(ConnReset(1, direction="up"),)).validate()
        with pytest.raises(InvalidParameterError):
            NetFaultPlan(partitions=(Partition(1, seconds=0.0),)).validate()
        with pytest.raises(InvalidParameterError):
            NetFaultPlan(
                corruptions=(CorruptByte(1, mask=0),)
            ).validate()
        with pytest.raises(InvalidParameterError):
            NetFaultPlan.from_events([object()])

    def test_horizon_and_latency_window(self):
        ev = LatencySpike(start=4, duration=3, delay=0.001)
        plan = NetFaultPlan(latencies=(ev,), stalls=(WriteStall(10),))
        assert plan.horizon() == 11
        assert ev.active_at(4) and ev.active_at(6) and not ev.active_at(7)


class TestFrameSplitter:
    def test_splits_on_boundaries_across_chunks(self):
        frames = [
            encode_frame(proto.encode_message(proto.Ping(i)))
            for i in range(1, 4)
        ]
        blob = b"".join(frames)
        splitter = FrameSplitter()
        got = []
        # Feed one byte at a time: reassembly must be exact.
        for i in range(len(blob)):
            got.extend(splitter.feed(blob[i : i + 1]))
        assert got == frames
        assert splitter.partial == b""

    def test_partial_tail_is_exposed(self):
        frame = encode_frame(proto.encode_message(proto.Bye()))
        splitter = FrameSplitter()
        assert splitter.feed(frame[:-2]) == []
        assert splitter.partial == frame[:-2]
        assert splitter.feed(frame[-2:]) == [frame]


class TestPingPong:
    def test_ping_resyncs_server_slot(self):
        async def go():
            service, server = _service(), None
            server = NetServer(service)
            await server.start()
            client = await NetClient.connect("127.0.0.1", server.port)
            try:
                assert client.server_slot == -1
                pong = await client.ping()
                assert pong.slot == 0 and client.server_slot == 0
                await client.tick(3)
                assert client.server_slot == 3
                assert (await client.ping()).slot == 3
            finally:
                await client.close()
                await server.stop()
                await service.stop()

        run(go())


class TestResilientClient:
    def test_reconnects_and_redelivers_through_aborted_link(self):
        async def go():
            service = _service()
            server = NetServer(service)
            await server.start()
            proxy = await ChaosProxy(
                "127.0.0.1", server.port, NetFaultPlan()
            ).start()
            rc = await SchedulingClient.connect(
                "127.0.0.1", proxy.port, reconnect_deadline=5.0
            )
            try:
                reply = await self._submit_and_tick(
                    rc, SlotRequest(0, 0, 1, duration=1), "first"
                )
                assert isinstance(reply, proto.Grant)
                for link in list(proxy._links):
                    link.abort()
                await asyncio.sleep(0.05)
                reply = await self._submit_and_tick(
                    rc, SlotRequest(1, 1, 2, duration=1), "second"
                )
                assert isinstance(reply, proto.Grant)
                assert rc.reconnects >= 1
            finally:
                await rc.close()
                await proxy.close()
                await server.stop()
                await service.stop()

        run(go())

    @staticmethod
    async def _submit_and_tick(rc, request, rid):
        task = asyncio.ensure_future(
            rc.submit(request, request_id=rid, timeout_ticks=2)
        )
        await asyncio.sleep(0.02)
        await rc.tick(1)
        return await asyncio.wait_for(task, 10)

    def test_degrades_to_unavailable_when_reconnect_exhausted(self):
        async def go():
            service = _service()
            server = NetServer(service)
            await server.start()
            rc = await SchedulingClient.connect(
                "127.0.0.1",
                server.port,
                reconnect=RetryPolicy(base_delay=0.02, max_delay=1.0),
                reconnect_deadline=0.3,
            )
            try:
                port = server.port
                await server.stop()  # hard partition: nobody listens
                reply = await asyncio.wait_for(
                    rc.submit(
                        SlotRequest(0, 0, 1), request_id="r", timeout_ticks=1
                    ),
                    10,
                )
                assert isinstance(reply, proto.Reject)
                assert reply.reason is RejectReason.UNAVAILABLE
                assert reply.slot == -1
                assert rc.unavailable_rejects == 1
                with pytest.raises(Exception):
                    await rc.tick(1)
                del port
            finally:
                await rc.close()
                await service.stop()

        run(go())

    def test_heartbeat_liveness_trips_on_stalled_server(self):
        # A proxy that relays the handshake then swallows everything
        # (accept-and-drop) must trip the liveness detector: the client
        # aborts the wedged connection instead of hanging.
        async def go():
            service = _service()
            server = NetServer(service)
            await server.start()
            proxy = await ChaosProxy(
                "127.0.0.1", server.port, NetFaultPlan()
            ).start()
            rc = await SchedulingClient.connect(
                "127.0.0.1",
                proxy.port,
                heartbeat_interval=0.05,
                liveness_timeout=0.2,
                reconnect_deadline=5.0,
            )
            try:
                inner = rc._link.conn
                # Freeze the proxy↔client pipe: heartbeats get no PONG.
                for link in list(proxy._links):
                    link.server_writer.transport.pause_reading()
                    link.client_writer.transport.pause_reading()
                deadline = asyncio.get_running_loop().time() + 5.0
                while (
                    inner.healthy
                    and asyncio.get_running_loop().time() < deadline
                ):
                    await asyncio.sleep(0.05)
                assert not inner.healthy  # liveness tripped, not hung
                # ...and the next operation self-heals via reconnect.
                for link in list(proxy._links):
                    link.abort()
                assert (await rc.tick(1)) >= 1
            finally:
                await rc.close()
                await proxy.close()
                await server.stop()
                await service.stop()

        run(go())


class TestCorruptionIsLoud:
    def test_corrupt_grant_never_reaches_the_application(self):
        # A single flipped byte in a server→client frame must kill that
        # connection (CRC) — the resilient client reconnects and the
        # outcome is replayed from dedup, never parsed from bad bytes.
        async def go():
            service = _service()
            server = NetServer(service)
            await server.start()
            plan = NetFaultPlan(
                corruptions=(CorruptByte(0, offset=3, mask=0x40),)
            )
            proxy = await ChaosProxy("127.0.0.1", server.port, plan).start()
            rc = await SchedulingClient.connect(
                "127.0.0.1", proxy.port, reconnect_deadline=5.0
            )
            try:
                task = asyncio.ensure_future(
                    rc.submit(
                        SlotRequest(0, 0, 1, duration=1),
                        request_id="c1",
                        timeout_ticks=3,
                    )
                )
                await asyncio.sleep(0.02)
                await rc.tick(1)
                # The corrupted frame killed a connection somewhere; keep
                # ticking so the redelivered request resolves.
                for _ in range(4):
                    if task.done():
                        break
                    await rc.tick(1)
                    await asyncio.sleep(0.02)
                reply = await asyncio.wait_for(task, 10)
                assert proxy.stats["corruptions"] == 1
                # Whatever the outcome type, it went through a *valid*
                # frame: a Grant must match the service's recorded grant.
                if isinstance(reply, proto.Grant):
                    counters = service.telemetry.snapshot()["counters"]
                    assert counters["server.granted"] == 1
            finally:
                await rc.close()
                await proxy.close()
                await server.stop()
                await service.stop()
            _conservation(service)

        run(go())


class TestChaosSoak:
    """The acceptance drill: seeded soak vs fault-free reference."""

    def _fd_count(self) -> int:
        return len(os.listdir(f"/proc/{os.getpid()}/fd"))

    async def _reference(self) -> dict:
        service = _service()
        server = NetServer(service)
        await server.start()
        rc = await SchedulingClient.connect("127.0.0.1", server.port)
        try:
            return await _drive(rc)
        finally:
            await rc.close()
            await server.stop()
            await service.stop()

    async def _chaos(self, trace_path) -> tuple[dict, dict, SchedulingService]:
        service = _service()
        server = NetServer(service, idle_timeout=30.0)
        await server.start()
        plan = NetFaultPlan.random(SOAK_SEED, SOAK_SLOTS)
        assert plan == NetFaultPlan.random(SOAK_SEED, SOAK_SLOTS)
        proxy = ChaosProxy(
            "127.0.0.1", server.port, plan, trace_path=str(trace_path)
        )
        await proxy.start()
        rc = await SchedulingClient.connect(
            "127.0.0.1",
            proxy.port,
            heartbeat_interval=0.25,
            reconnect_deadline=5.0,
        )
        try:
            outcomes = await _drive(rc)
            stats = dict(proxy.stats)
        finally:
            await rc.close()
            await proxy.close()
            await server.stop()
            await service.stop()
        return outcomes, stats, service

    def test_soak_converges_to_reference(self, tmp_path):
        trace_path = tmp_path / "net-chaos-frames.jsonl"
        gc.collect()
        fds_before = self._fd_count()

        async def go():
            reference = await self._reference()
            outcomes, stats, service = await self._chaos(trace_path)
            return reference, outcomes, stats, service

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reference, outcomes, stats, service = run(go())
            gc.collect()

        # 1. Convergence: every observed grant is bit-identical to the
        #    fault-free reference — same channel, same slot.
        assert set(outcomes) == set(reference)
        granted = {
            rid: o
            for rid, o in outcomes.items()
            if isinstance(o, proto.Grant)
        }
        assert granted, "the soak must grant something"
        for rid, grant in granted.items():
            ref = reference[rid]
            assert isinstance(ref, proto.Grant), rid
            assert (grant.channel, grant.slot) == (ref.channel, ref.slot), rid
        # The fault-free reference grants everything in this workload.
        assert all(
            isinstance(o, proto.Grant) for o in reference.values()
        )

        # 2. Conservation server-side, UNAVAILABLE included.
        _conservation(service)

        # 3. The plan actually fired: every fault kind was exercised.
        assert stats["resets"] >= 1
        assert stats["corruptions"] >= 1
        assert stats["duplicates"] >= 1
        assert stats["partitions"] >= 1
        assert stats["frames"] > SOAK_SLOTS

        # 4. The frame trace (CI failure artifact) is well-formed JSONL.
        lines = trace_path.read_text().splitlines()
        assert len(lines) >= stats["frames"] // 2
        import json

        kinds = {json.loads(line)["kind"] for line in lines}
        assert "frame" in kinds and "partition" in kinds

        # 5. Hygiene: no leaked fds, no destroyed-pending-task warnings.
        assert self._fd_count() <= fds_before + 4
        destroyed = [
            w for w in caught if "Task was destroyed" in str(w.message)
        ]
        assert destroyed == []
