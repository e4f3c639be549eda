"""Exactly-once grants under client retries (idempotent request ids).

The retry loop's hazard: a client that gives up *waiting* for an attempt
(``attempt_timeout``) and resubmits can end up with two copies of its
request in flight — and two channel bookings for one logical connection.
The server's bounded dedup table closes that hole: every attempt carries
the same ``request_id``; a resubmission while the original is queued gets
``DUPLICATE``, a resubmission after the original was granted replays the
original grant verbatim, and a *rejected* original releases its id so the
retry is a genuinely fresh attempt.

The conservation invariant (``docs/SERVICE.md``) gains the matching term::

    submitted == granted + <reject reasons> + duplicate

and ``granted`` counts unique grants only — equal to a no-retry baseline.
"""

import asyncio

import pytest

from repro.core.break_first_available import BreakFirstAvailableScheduler
from repro.core.distributed import SlotRequest
from repro.graphs.conversion import CircularConversion
from repro.service import (
    DurabilityConfig,
    Rejected,
    RejectReason,
    RetryPolicy,
    SchedulingClient,
    SchedulingService,
    ServiceGrant,
)
from repro.service.queue import OverflowPolicy

K = 8


def run(coro):
    return asyncio.run(coro)


def make_service(**kwargs):
    return SchedulingService(
        4, CircularConversion(K, 1, 1), BreakFirstAvailableScheduler(), **kwargs
    )


def assert_conservation(service, n_outcomes):
    counters = service.telemetry.snapshot()["counters"]
    resolved = counters["server.granted"] + sum(
        counters.get(name, 0)
        for name in (
            "server.rejected.contention",
            "server.rejected.source_blocked",
            "server.rejected.queue_full",
            "server.dropped",
            "server.timed_out",
            "server.shutdown",
            "server.rejected.shard_down",
            "server.rejected.circuit_open",
            "server.duplicate",
        )
    )
    assert counters["server.submitted"] == resolved == n_outcomes
    return counters


class TestDedupTable:
    def test_duplicate_of_inflight_id_is_refused(self):
        async def go():
            service = make_service()
            r = SlotRequest(0, 2, 1)
            first = service.submit_nowait(r, request_id="rid-1")
            second = service.submit_nowait(r, request_id="rid-1")
            dup = await second  # resolved immediately, before any tick
            await service.tick()
            return service, await first, dup

        service, original, dup = run(go())
        assert isinstance(original, ServiceGrant)
        assert isinstance(dup, Rejected)
        assert dup.reason is RejectReason.DUPLICATE
        counters = assert_conservation(service, 2)
        assert counters["server.granted"] == 1
        assert counters["server.duplicate"] == 1

    def test_resubmit_after_grant_replays_the_original(self):
        async def go():
            service = make_service()
            r = SlotRequest(1, 3, 2)
            first = service.submit_nowait(r, request_id="rid-2")
            await service.tick()
            original = await first
            replay = await service.submit_nowait(r, request_id="rid-2")
            return service, original, replay

        service, original, replay = run(go())
        assert isinstance(original, ServiceGrant)
        assert replay == original  # same channel, same slot — not recounted
        counters = assert_conservation(service, 2)
        assert counters["server.granted"] == 1
        assert counters["server.duplicate"] == 1

    def test_rejected_original_releases_its_id(self):
        async def go():
            service = make_service(
                queue_capacity=0, overflow=OverflowPolicy.REJECT
            )
            r = SlotRequest(0, 1, 1)
            first = await service.submit_nowait(r, request_id="rid-3")
            return service, first

        async def retry_on_fresh_service():
            # Same id against a service where the original was rejected:
            # the retry is a fresh attempt that can be granted.
            service = make_service(
                queue_capacity=0, overflow=OverflowPolicy.REJECT
            )
            r = SlotRequest(0, 1, 1)
            first = await service.submit_nowait(r, request_id="rid-3")
            assert first.reason is RejectReason.QUEUE_FULL
            # Capacity is still 0, so the retry fails the same way — but as
            # QUEUE_FULL (a fresh verdict), never as DUPLICATE.
            second = await service.submit_nowait(r, request_id="rid-3")
            return service, second

        service, first = run(go())
        assert isinstance(first, Rejected)
        assert first.reason is RejectReason.QUEUE_FULL
        service, second = run(retry_on_fresh_service())
        assert second.reason is RejectReason.QUEUE_FULL
        counters = assert_conservation(service, 2)
        assert counters["server.duplicate"] == 0

    def test_dedup_capacity_bounds_the_table(self):
        async def go():
            service = make_service(
                durability=DurabilityConfig(dedup_capacity=2)
            )
            outcomes = []
            for i, rid in enumerate(["a", "b", "c"]):
                outcomes.append(
                    service.submit_nowait(
                        SlotRequest(i, i, 0), request_id=rid
                    )
                )
            await service.tick()
            await asyncio.gather(*outcomes)
            # "a" was evicted by the capacity bound, so its resubmission is
            # a fresh attempt (resolves at the next tick); "c" is still in
            # the table and replays immediately.
            fresh_future = service.submit_nowait(
                SlotRequest(0, 0, 0), request_id="a"
            )
            replay = await service.submit_nowait(
                SlotRequest(2, 2, 0), request_id="c"
            )
            await service.tick()
            return service, await fresh_future, replay

        service, fresh, replay = run(go())
        assert isinstance(replay, ServiceGrant)
        assert not (
            isinstance(fresh, Rejected)
            and fresh.reason is RejectReason.DUPLICATE
        )

    def test_durability_off_ignores_request_ids(self):
        async def go():
            service = make_service(durability=False)
            r = SlotRequest(0, 4, 1)
            f1 = service.submit_nowait(r, request_id="same")
            f2 = service.submit_nowait(r, request_id="same")
            await service.tick()
            return service, await f1, await f2

        service, o1, o2 = run(go())
        # Both copies were scheduled (the second lost to its own twin at
        # the source) — no dedup without the durability layer.
        assert isinstance(o1, ServiceGrant)
        assert o2.reason is RejectReason.SOURCE_BLOCKED
        counters = service.telemetry.snapshot()["counters"]
        assert counters["server.duplicate"] == 0


class TestRetriesAreExactlyOnce:
    def test_wait_timeout_retries_never_double_grant(self):
        """Clients that abandon waiting and hammer resubmissions still get
        exactly one grant each — equal to the no-retry baseline."""
        requests = [SlotRequest(i, 2 + i, 0) for i in range(4)]

        async def go():
            service = make_service(
                durability=DurabilityConfig(snapshot_interval=4)
            )
            client = SchedulingClient(service, seed=5)
            # Real (small) backoff: with zero delay a DUPLICATE refusal
            # resolves instantly and the loop would burn every attempt
            # before the first tick.
            policy = RetryPolicy(
                max_attempts=200, base_delay=0.003, max_delay=0.01
            )
            tasks = [
                asyncio.ensure_future(
                    client.submit(
                        r, policy=policy, attempt_timeout=0.005
                    )
                )
                for r in requests
            ]
            # Let a few attempt_timeouts fire before the first tick ever
            # runs, so the dedup table is what prevents double-scheduling.
            await asyncio.sleep(0.02)
            for _ in range(4):
                await service.tick()
                await asyncio.sleep(0.01)
            outcomes = await asyncio.gather(*tasks)
            return service, outcomes

        service, outcomes = run(go())
        assert all(isinstance(o, ServiceGrant) for o in outcomes)
        assert len({(o.request.input_fiber, o.channel) for o in outcomes}) == 4
        # n_outcomes = whatever was submitted (retries inflate it): the
        # invariant is that every submission resolved exactly once.
        counters = assert_conservation(service, counters_total(service))
        # Exactly one grant per logical request — the no-retry baseline.
        assert counters["server.granted"] == len(requests)
        assert counters["server.duplicate"] >= 1
        assert counters["client.wait_timeouts"] >= 1

    def test_replayed_grant_is_the_original(self):
        """A retry that lands after the grant gets the original slot and
        channel back, not a second booking."""

        async def go():
            service = make_service()
            client = SchedulingClient(service, seed=9)
            r = SlotRequest(0, 3, 1, duration=2)
            policy = RetryPolicy(
                max_attempts=200, base_delay=0.003, max_delay=0.01
            )
            task = asyncio.ensure_future(
                client.submit(
                    r, policy=policy, attempt_timeout=0.005
                )
            )
            await asyncio.sleep(0.02)  # several abandoned waits
            await service.tick()  # grants the original at slot 0
            outcome = await task
            return service, outcome

        service, outcome = run(go())
        assert isinstance(outcome, ServiceGrant)
        assert outcome.slot == 0
        counters = service.telemetry.snapshot()["counters"]
        assert counters["server.granted"] == 1


def counters_total(service):
    """Total submissions the service saw (for the conservation check)."""
    return service.telemetry.snapshot()["counters"]["server.submitted"]
