"""The one client: :class:`~repro.service.SchedulingClient` over an
in-process service or TCP, and the load generators built on it.

* The same seeded traffic through :class:`~repro.service.LoadGenerator`
  resolves every request identically on both transports.
* ``submit(..., policy=)`` rides out a shard crash over TCP exactly as it
  does in process (``tests/test_chaos.py::TestRetryUnderChaos``).
* The TCP transport's two reconnect/deadline races are pinned with
  deterministic interleavings (no timed sleeps):
  a reconnect publishes its connection only after the resync PING, and
  a deadline is converted only after in-flight ticks are answered.
* :func:`repro.net.loadgen.random_load` stamps each request's latency
  when its own outcome arrives.
"""

import asyncio
import types

import pytest

pytestmark = [pytest.mark.net]

from repro.core.break_first_available import BreakFirstAvailableScheduler
from repro.core.distributed import SlotRequest
from repro.core.first_available import FirstAvailableScheduler
from repro.faults import FaultPlan, ShardCrash
from repro.graphs.conversion import CircularConversion, NonCircularConversion
from repro.net import protocol as proto
from repro.net.client import NetClient
from repro.net.loadgen import random_load
from repro.net.server import NetServer
from repro.service import (
    BreakerConfig,
    DurabilityConfig,
    LoadGenerator,
    OverflowPolicy,
    Rejected,
    RejectReason,
    RetryPolicy,
    SchedulingClient,
    SchedulingService,
    ServiceGrant,
    SupervisorConfig,
)
from repro.service import client as client_mod
from repro.sim.traffic import BernoulliTraffic


def run(coro):
    return asyncio.run(coro)


def _service(**kwargs) -> SchedulingService:
    kwargs.setdefault("durability", False)
    return SchedulingService(
        4, NonCircularConversion(4, 1, 1), FirstAvailableScheduler(), **kwargs
    )


async def _serve(service):
    server = NetServer(service)
    await server.start()
    client = await SchedulingClient.connect("127.0.0.1", server.port)
    return server, client


def _normalized(outcome):
    reason = getattr(outcome, "reason", None)
    if reason is None:
        return ("grant", outcome.channel, outcome.slot)
    return ("reject", reason)


class TestTransportEquivalence:
    @pytest.mark.parametrize(
        "options",
        [
            {},
            {
                "queue_capacity": 3,
                "overflow": OverflowPolicy.DROP_TAIL,
                "max_batch_per_tick": 2,
            },
        ],
        ids=["unbounded", "bounded"],
    )
    def test_load_generator_same_outcomes_in_process_and_tcp(self, options):
        async def go():
            local = _service(**options)
            in_process = await LoadGenerator(
                SchedulingClient(local),
                BernoulliTraffic(4, 4, load=0.9),
                seed=7,
            ).run(25)
            await local.stop()

            remote = _service(**options)
            server, client = await _serve(remote)
            try:
                over_tcp = await LoadGenerator(
                    client, BernoulliTraffic(4, 4, load=0.9), seed=7
                ).run(25)
            finally:
                await client.close()
                await server.stop()
                await remote.stop()
            return in_process, over_tcp

        in_process, over_tcp = run(go())
        assert in_process.offered == over_tcp.offered > 0
        assert [_normalized(o) for o in in_process.outcomes] == [
            _normalized(o) for o in over_tcp.outcomes
        ]
        assert in_process.rejected == over_tcp.rejected
        assert in_process.conserved and over_tcp.conserved
        # Each transport keeps its own outcome types.
        local_types = (ServiceGrant, Rejected)
        wire_types = (proto.Grant, proto.Reject)
        assert all(isinstance(o, local_types) for o in in_process.outcomes)
        assert all(isinstance(o, wire_types) for o in over_tcp.outcomes)


class TestRetryOverTcp:
    def test_retry_rides_out_a_crash(self):
        """The TCP twin of test_chaos.py's in-process drill: SHARD_DOWN /
        CIRCUIT_OPEN are retried until the supervisor heals the shard."""

        async def go():
            service = SchedulingService(
                4,
                CircularConversion(8, 1, 1),
                BreakFirstAvailableScheduler(),
                faults=FaultPlan(crashes=(ShardCrash(fiber=0, slot=0),)),
                breaker=BreakerConfig(failure_threshold=1, reset_ticks=2),
                supervisor=SupervisorConfig(restart_delay_ticks=2),
                durability=DurabilityConfig(snapshot_interval=4),
            )
            server, client = await _serve(service)
            try:
                policy = RetryPolicy(max_attempts=200, base_delay=0.0)
                task = asyncio.ensure_future(
                    client.submit(SlotRequest(1, 2, 0), policy=policy)
                )
                for _ in range(30):
                    await client.tick()
                    await asyncio.sleep(0)
                    if task.done():
                        break
                outcome = await task
            finally:
                await client.close()
                await server.stop()
                await service.stop()
            return client.telemetry.snapshot(), service, outcome

        snapshot, service, outcome = run(go())
        assert isinstance(outcome, proto.Grant)
        assert snapshot["counters"]["client.retries"] >= 1
        assert snapshot["counters"]["client.retry_exhausted"] == 0
        assert snapshot["histograms"]["client.attempts"]["count"] == 1
        counters = service.telemetry.snapshot()["counters"]
        assert counters["server.granted"] == 1
        assert counters["server.rejected.shard_down"] >= 1


class TestReconnectRaces:
    def test_reconnect_publishes_only_after_resync_ping(self, monkeypatch):
        """A tick() racing a reconnect must wait for the resync PING: had
        it seen the new connection at server_slot == -1 it would send
        TICK_ADVANCE(2) and shift every later slot by one."""
        real_ping = NetClient.ping

        async def go():
            service = _service()
            server, client = await _serve(service)
            racing: list[asyncio.Task] = []

            async def ping_racing_a_tick(conn):
                if not racing:  # the reconnect's resync PING
                    assert conn is not client._link.conn
                    racing.append(asyncio.ensure_future(client.tick(1)))
                    await asyncio.sleep(0)  # the tick runs until it blocks
                return await real_ping(conn)

            try:
                assert await client.tick(3) == 3
                monkeypatch.setattr(NetClient, "ping", ping_racing_a_tick)
                client._link.conn.abort("dropped by the test")
                await client._link.connection()
                assert client.reconnects == 1
                slot = await racing[0]
            finally:
                await client.close()
                await server.stop()
                await service.stop()
            return slot, service.slot

        slot, service_slot = run(go())
        assert slot == service_slot == 4

    def test_deadline_waits_for_ticks_in_flight(self):
        """A deadline pinned while a TICK_ADVANCE is unanswered is
        converted against the slot after that tick: ``deadline_slot=3``
        sent behind the 2→3 tick expires at slot 3 instead of being
        granted there."""

        async def go():
            service = _service()
            server, client = await _serve(service)
            try:
                await client.tick(2)
                in_flight = asyncio.ensure_future(client.tick(1))
                await asyncio.sleep(0)  # TICK_ADVANCE(1) is on the wire
                assert not in_flight.done()
                expiring = asyncio.ensure_future(
                    client.submit(
                        SlotRequest(0, 0, 1), deadline_slot=3, request_id="x"
                    )
                )
                living = asyncio.ensure_future(
                    client.submit(
                        SlotRequest(1, 1, 2), deadline_slot=4, request_id="y"
                    )
                )
                assert await in_flight == 3
                await asyncio.sleep(0)  # both SUBMITs go out at slot 3
                await client.tick(1)
                return await expiring, await living
            finally:
                await client.close()
                await server.stop()
                await service.stop()

        expiring, living = run(go())
        assert isinstance(expiring, proto.Reject)
        assert expiring.reason is RejectReason.TIMED_OUT
        assert isinstance(living, proto.Grant) and living.slot == 3


class TestLoadLatency:
    def test_random_load_stamps_each_request_when_it_resolves(
        self, monkeypatch
    ):
        """One latency sample per grant, measured from that request's own
        submit to its own outcome — not the batch mean.  A clock that
        reads the service slot makes the latencies tick counts: with one
        request drained per shard per tick, requests of one batch to the
        same output resolve at different ticks."""

        async def go():
            service = _service(max_batch_per_tick=1)
            client = SchedulingClient(service)
            slot_clock = types.SimpleNamespace(
                perf_counter=lambda: float(service.slot)
            )
            monkeypatch.setattr(client_mod, "time", slot_clock)
            load = asyncio.ensure_future(
                random_load(client, seed=3, n_requests=40, batch=8)
            )
            while not load.done():
                await client.tick()
                await asyncio.sleep(0)
            await service.stop()
            return await load

        report = run(go())
        assert report.offered == 40 and report.conserved
        latencies = report.grant_latencies
        assert len(latencies) == report.granted > 0
        assert all(x >= 1 and x == int(x) for x in latencies)
        assert len(set(latencies)) > 1
        assert report.p99_latency == report.latency_quantile(0.99)
