"""Tests for the asyncio scheduling service: grants, timeouts, backpressure,
shard-state carryover, the tick path, and telemetry conservation."""

import asyncio

import pytest

from repro.core.break_first_available import BreakFirstAvailableScheduler
from repro.core.distributed import SlotRequest
from repro.core.first_available import FirstAvailableScheduler
from repro.errors import InvalidParameterError, SimulationError
from repro.graphs.conversion import CircularConversion, NonCircularConversion
from repro.service import (
    LoadGenerator,
    OverflowPolicy,
    Rejected,
    RejectReason,
    SchedulingClient,
    SchedulingService,
    ServiceGrant,
)
from repro.sim.traffic import BernoulliTraffic


def run(coro):
    return asyncio.run(coro)


def make_service(n_fibers=4, k=6, **kwargs):
    return SchedulingService(
        n_fibers,
        CircularConversion(k, 1, 1),
        BreakFirstAvailableScheduler(),
        **kwargs,
    )


class TestSubmitAndTick:
    def test_grant_resolves_future(self):
        async def go():
            service = make_service()
            future = service.submit_nowait(SlotRequest(0, 2, 3))
            assert not future.done()
            await service.tick()
            return await future

        outcome = run(go())
        assert isinstance(outcome, ServiceGrant)
        assert outcome.slot == 0
        assert outcome.request.wavelength == 2

    def test_contention_rejects_loser(self):
        async def go():
            # k=1: a single channel, two same-wavelength contenders.
            service = SchedulingService(
                2,
                NonCircularConversion(1, 0, 0),
                FirstAvailableScheduler(),
            )
            f0 = service.submit_nowait(SlotRequest(0, 0, 0))
            f1 = service.submit_nowait(SlotRequest(1, 0, 0))
            await service.tick()
            return await f0, await f1

        o0, o1 = run(go())
        # FixedPriorityPolicy: lowest input fiber wins.
        assert isinstance(o0, ServiceGrant)
        assert isinstance(o1, Rejected)
        assert o1.reason is RejectReason.CONTENTION

    def test_invalid_request_raises_immediately(self):
        async def go():
            service = make_service()
            with pytest.raises(InvalidParameterError):
                service.submit_nowait(SlotRequest(99, 0, 0))
            with pytest.raises(InvalidParameterError):
                service.submit_nowait(SlotRequest(0, 0, 0), timeout_ticks=-1)

        run(go())

    def test_client_submit_many(self):
        async def go():
            service = make_service()
            client = SchedulingClient(service)
            task = asyncio.gather(
                *(client.submit(SlotRequest(i, i, 0)) for i in range(3))
            )
            await asyncio.sleep(0)
            await service.tick()
            return await task

        outcomes = run(go())
        assert len(outcomes) == 3
        assert all(isinstance(o, ServiceGrant) for o in outcomes)


class TestTimeouts:
    def test_expired_deadline_times_out_at_tick(self):
        async def go():
            service = make_service()
            future = service.submit_nowait(SlotRequest(0, 0, 0), timeout_ticks=0)
            await service.tick()
            return await future

        outcome = run(go())
        assert isinstance(outcome, Rejected)
        assert outcome.reason is RejectReason.TIMED_OUT

    def test_queued_request_times_out_when_batch_cap_delays_it(self):
        async def go():
            # Batch cap 1: the second request waits a tick and its 0-tick
            # deadline expires before it is ever scheduled.
            service = make_service(max_batch_per_tick=1)
            f1 = service.submit_nowait(SlotRequest(0, 0, 0))
            f2 = service.submit_nowait(SlotRequest(1, 1, 0), timeout_ticks=0)
            await service.tick()
            assert (await f1).channel is not None
            assert not f2.done()
            await service.tick()
            return await f2

        outcome = run(go())
        assert outcome.reason is RejectReason.TIMED_OUT
        assert outcome.slot == 1

    def test_no_timeout_waits_indefinitely(self):
        async def go():
            service = make_service(max_batch_per_tick=1)
            service.submit_nowait(SlotRequest(0, 0, 0))
            future = service.submit_nowait(SlotRequest(1, 1, 0))
            await service.tick()
            assert not future.done()
            await service.tick()
            return await future

        assert isinstance(run(go()), ServiceGrant)


class TestBackpressure:
    def test_reject_policy_fails_fast(self):
        async def go():
            service = make_service(
                queue_capacity=1, overflow=OverflowPolicy.REJECT
            )
            f1 = service.submit_nowait(SlotRequest(0, 0, 0))
            f2 = service.submit_nowait(SlotRequest(1, 1, 0))
            assert f2.done()  # rejected synchronously, before any tick
            await service.tick()
            return await f1, await f2

        o1, o2 = run(go())
        assert isinstance(o1, ServiceGrant)
        assert o2.reason is RejectReason.QUEUE_FULL

    def test_drop_tail_drops_newcomer(self):
        async def go():
            service = make_service(
                queue_capacity=1, overflow=OverflowPolicy.DROP_TAIL
            )
            f1 = service.submit_nowait(SlotRequest(0, 0, 0))
            f2 = service.submit_nowait(SlotRequest(1, 1, 0))
            await service.tick()
            return await f1, await f2

        o1, o2 = run(go())
        assert isinstance(o1, ServiceGrant)
        assert o2.reason is RejectReason.DROPPED

    def test_drop_oldest_evicts_head(self):
        async def go():
            service = make_service(
                queue_capacity=1, overflow=OverflowPolicy.DROP_OLDEST
            )
            f1 = service.submit_nowait(SlotRequest(0, 0, 0))
            f2 = service.submit_nowait(SlotRequest(1, 1, 0))
            assert f1.done()  # evicted to make room
            await service.tick()
            return await f1, await f2

        o1, o2 = run(go())
        assert o1.reason is RejectReason.DROPPED
        assert isinstance(o2, ServiceGrant)

    def test_overflow_is_per_shard(self):
        async def go():
            service = make_service(
                queue_capacity=1, overflow=OverflowPolicy.REJECT
            )
            # Different output fibers → different shards → no overflow.
            futures = [
                service.submit_nowait(SlotRequest(i, 0, i)) for i in range(4)
            ]
            await service.tick()
            return await asyncio.gather(*futures)

        assert all(isinstance(o, ServiceGrant) for o in run(go()))


class TestShardStateCarryover:
    def test_multislot_grant_holds_channel_across_ticks(self):
        async def go():
            # k=1, d=1: one output channel; a duration-3 grant must block
            # it for exactly ticks 1 and 2 and free it at tick 3.
            service = SchedulingService(
                2, NonCircularConversion(1, 0, 0), FirstAvailableScheduler()
            )
            f0 = service.submit_nowait(SlotRequest(0, 0, 0, duration=3))
            await service.tick()
            assert isinstance(await f0, ServiceGrant)
            outcomes = []
            for _ in range(3):
                f = service.submit_nowait(SlotRequest(1, 0, 0))
                await service.tick()
                outcomes.append(await f)
            return outcomes

        o1, o2, o3 = run(go())
        assert o1.reason is RejectReason.CONTENTION
        assert o2.reason is RejectReason.CONTENTION
        assert isinstance(o3, ServiceGrant)

    def test_input_channel_blocked_at_source(self):
        async def go():
            # Same input channel (fiber 0, λ0) mid-connection: a new request
            # from it — even to a different output — is blocked at source.
            service = make_service()
            f0 = service.submit_nowait(SlotRequest(0, 0, 0, duration=3))
            await service.tick()
            assert isinstance(await f0, ServiceGrant)
            f1 = service.submit_nowait(SlotRequest(0, 0, 2))
            await service.tick()
            return await f1

        outcome = run(go())
        assert outcome.reason is RejectReason.SOURCE_BLOCKED

    def test_duplicate_input_channel_same_tick(self):
        async def go():
            service = make_service()
            f0 = service.submit_nowait(SlotRequest(0, 0, 1))
            f1 = service.submit_nowait(SlotRequest(0, 0, 2))
            await service.tick()
            return await f0, await f1

        o0, o1 = run(go())
        assert isinstance(o0, ServiceGrant)
        assert o1.reason is RejectReason.SOURCE_BLOCKED


class _PerFiberBFA(BreakFirstAvailableScheduler):
    """BFA without a batch kernel: every fiber takes the per-fiber path."""

    def batch_kernel(self, scheme):
        return None


class _PerFiberFA(FirstAvailableScheduler):
    def batch_kernel(self, scheme):
        return None


class TestTickPath:
    """One tick path: a batch-kernel call for every batchable fiber, the
    per-fiber scheduler for the rest — same grants either way."""

    def _drive(self, scheme, scheduler, **kwargs):
        async def go():
            service = SchedulingService(8, scheme, scheduler, **kwargs)
            gen = LoadGenerator(
                SchedulingClient(service),
                BernoulliTraffic(8, scheme.k, load=0.85),
                seed=99,
            )
            report = await gen.run(30)
            await service.stop()
            return report

        return run(go())

    def test_batch_tick_matches_per_fiber_bfa(self):
        scheme = CircularConversion(12, 1, 1)
        r_batch = self._drive(scheme, BreakFirstAvailableScheduler())
        r_fiber = self._drive(scheme, _PerFiberBFA())
        assert r_batch.offered == r_fiber.offered
        assert r_batch.granted == r_fiber.granted
        assert r_batch.rejected_contention == r_fiber.rejected_contention

    def test_batch_tick_matches_per_fiber_fa(self):
        scheme = NonCircularConversion(12, 1, 1)
        r_batch = self._drive(scheme, FirstAvailableScheduler())
        r_fiber = self._drive(scheme, _PerFiberFA())
        assert r_batch.granted == r_fiber.granted
        assert r_batch.rejected_contention == r_fiber.rejected_contention

    def test_full_range_scheme_schedules_per_fiber(self):
        from repro.core.full_range import FullRangeScheduler
        from repro.graphs.conversion import FullRangeConversion

        scheme = FullRangeConversion(4)
        scheduler = FullRangeScheduler()
        assert scheduler.batch_kernel(scheme) is None
        assert FirstAvailableScheduler().batch_kernel(scheme) is None
        assert BreakFirstAvailableScheduler().batch_kernel(scheme) is None

        async def go():
            service = SchedulingService(2, scheme, scheduler)
            futures = [
                service.submit_nowait(SlotRequest(i, 0, 0)) for i in range(2)
            ]
            await service.tick()
            await service.stop()
            return [f.result() for f in futures]

        outcomes = run(go())
        assert all(isinstance(o, ServiceGrant) for o in outcomes)
        assert len({o.channel for o in outcomes}) == 2

    def test_accepts_priority_classes(self):
        async def go():
            # d = 1: λ0 reaches only channel 0 on output 0.  Output 0
            # carries two classes (per-fiber layering), output 1 one class
            # (batch kernel) — both in the same tick.
            service = SchedulingService(
                2, CircularConversion(6, 0, 0), BreakFirstAvailableScheduler()
            )
            low = service.submit_nowait(SlotRequest(0, 0, 0, priority=1))
            high = service.submit_nowait(SlotRequest(1, 0, 0, priority=0))
            other = service.submit_nowait(SlotRequest(0, 1, 1, priority=2))
            await service.tick()
            await service.stop()
            return low.result(), high.result(), other.result()

        low, high, other = run(go())
        # Class 0 wins the only channel although fixed priority alone
        # would pick input fiber 0.
        assert isinstance(high, ServiceGrant) and high.channel == 0
        assert low.reason is RejectReason.CONTENTION
        assert isinstance(other, ServiceGrant) and other.channel == 1

    def test_accepts_degradation_plans(self):
        from repro.faults import ConverterDegradation, FaultPlan

        scheme = CircularConversion(6, 1, 1)
        plan = FaultPlan(
            degradations=(ConverterDegradation(0, start=0, duration=5),)
        )

        async def go():
            service = SchedulingService(
                3, scheme, BreakFirstAvailableScheduler(), faults=plan
            )
            # Input 0 is fixed-wavelength: its λ2 request can only use
            # channel 2.  Output 1 has no degraded input (batch row).
            degraded = service.submit_nowait(SlotRequest(0, 2, 0))
            nominal = [
                service.submit_nowait(SlotRequest(i, 2, 0)) for i in (1, 2)
            ]
            healthy = service.submit_nowait(SlotRequest(1, 3, 1))
            await service.tick()
            await service.stop()
            return degraded.result(), [f.result() for f in nominal], (
                healthy.result()
            )

        degraded, nominal, healthy = run(go())
        assert isinstance(degraded, ServiceGrant) and degraded.channel == 2
        assert sorted(o.channel for o in nominal) == [1, 3]
        assert isinstance(healthy, ServiceGrant)

class TestTelemetryConservation:
    def test_counters_partition_offered_load(self):
        async def go():
            service = make_service(
                n_fibers=4,
                k=6,
                queue_capacity=2,
                overflow=OverflowPolicy.DROP_OLDEST,
                max_batch_per_tick=2,
            )
            # Saturating burst: overflow drops, contention losses, and a
            # couple of instant timeouts, followed by a shutdown flush.
            for i in range(4):
                for w in range(6):
                    service.submit_nowait(
                        SlotRequest(i, w, (i + w) % 4),
                        timeout_ticks=0 if (i + w) % 5 == 0 else None,
                    )
            await service.tick()
            for i in range(4):
                service.submit_nowait(SlotRequest(i, 0, 0))
            await service.stop()  # flushes the still-queued requests
            return service.telemetry.counters("server.")

        c = run(go())
        outcomes = (
            c["server.granted"]
            + c["server.rejected.contention"]
            + c["server.rejected.source_blocked"]
            + c["server.rejected.queue_full"]
            + c["server.dropped"]
            + c["server.timed_out"]
            + c["server.shutdown"]
        )
        assert c["server.submitted"] == outcomes
        assert c["server.dropped"] > 0  # the burst did overflow
        assert c["server.shutdown"] > 0  # the flush did happen

    def test_load_generator_report_partitions_offered(self):
        async def go():
            service = make_service(
                n_fibers=4,
                k=8,
                queue_capacity=3,
                overflow=OverflowPolicy.DROP_TAIL,
                max_batch_per_tick=3,
            )
            gen = LoadGenerator(
                SchedulingClient(service),
                BernoulliTraffic(4, 8, load=0.9),
                seed=5,
            )
            return await gen.run(40)

        report = run(go())
        assert report.offered == (
            report.granted
            + report.rejected_contention
            + report.rejected_source
            + report.rejected_queue
            + report.dropped
            + report.timed_out
        )
        assert report.granted > 0

    def test_shard_counters_sum_to_server_totals(self):
        async def go():
            service = make_service(n_fibers=3, k=6)
            gen = LoadGenerator(
                SchedulingClient(service),
                BernoulliTraffic(3, 6, load=0.8),
                seed=11,
            )
            await gen.run(25)
            return service.telemetry

        t = run(go())
        server = t.counters("server.")
        shard_granted = sum(
            t.counters(f"shard.{o}.granted")[f"shard.{o}.granted"]
            for o in range(3)
        )
        shard_offered = sum(
            t.counters(f"shard.{o}.offered")[f"shard.{o}.offered"]
            for o in range(3)
        )
        assert shard_granted == server["server.granted"]
        assert shard_offered == server["server.submitted"]


class TestLifecycle:
    def test_timer_loop_ticks_and_stops(self):
        async def go():
            service = make_service(tick_interval=0.001)
            service.start()
            future = service.submit_nowait(SlotRequest(0, 0, 0))
            outcome = await asyncio.wait_for(future, timeout=5.0)
            await service.stop()
            ticks = service.telemetry.counters("server.")["server.ticks"]
            return outcome, ticks

        outcome, ticks = run(go())
        assert isinstance(outcome, ServiceGrant)
        assert ticks >= 1

    def test_stop_flushes_with_shutdown(self):
        async def go():
            service = make_service()
            future = service.submit_nowait(SlotRequest(0, 0, 0))
            await service.stop()
            outcome = await future
            with pytest.raises(SimulationError):
                service.submit_nowait(SlotRequest(0, 0, 0))
            with pytest.raises(SimulationError):
                await service.tick()
            return outcome

        outcome = run(go())
        assert outcome.reason is RejectReason.SHUTDOWN

    def test_stop_is_idempotent(self):
        async def go():
            service = make_service()
            await service.stop()
            await service.stop()

        run(go())

    def test_double_start_rejected(self):
        async def go():
            service = make_service(tick_interval=0.001)
            service.start()
            with pytest.raises(SimulationError):
                service.start()
            await service.stop()

        run(go())

    def test_scheduler_args_exclusive(self):
        with pytest.raises(InvalidParameterError):
            SchedulingService(2, CircularConversion(6, 1, 1))
