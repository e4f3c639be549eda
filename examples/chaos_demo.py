#!/usr/bin/env python
"""Chaos demo: the scheduling service degrading gracefully under injected
faults — and healing.

Builds the same 4-shard service as ``service_demo.py``, then runs a seeded
fault plan against it: two output channels go dark mid-run, one input
fiber's wavelength converters degrade to fixed-wavelength operation, and
one shard worker is killed outright.  The supervisor restarts the dead
shard from an aged ``busy[]`` checkpoint, its circuit breaker walks
open → half-open → closed, and a retrying client rides out the whole storm.

Everything is seeded, so the run is exactly reproducible.

Run:  PYTHONPATH=src python examples/chaos_demo.py
"""

import asyncio

from repro import BreakFirstAvailableScheduler, CircularConversion
from repro.core.distributed import SlotRequest
from repro.faults import (
    ChannelOutage,
    ConverterDegradation,
    FaultPlan,
    ShardCrash,
)
from repro.service import (
    BreakerConfig,
    RetryPolicy,
    SchedulingClient,
    SchedulingService,
    ServiceGrant,
    SupervisorConfig,
)
from repro.sim.duration import GeometricDuration
from repro.sim.traffic import BernoulliTraffic
from repro.util.rng import make_rng

N, K, SLOTS = 4, 16, 120

#: The storm: 2 dark channels, 1 degraded converter, 1 shard kill.
PLAN = FaultPlan(
    outages=(
        ChannelOutage(fiber=1, wavelength=4, start=20, duration=40),
        ChannelOutage(fiber=3, wavelength=9, start=30, duration=25),
    ),
    degradations=(
        ConverterDegradation(input_fiber=2, start=25, duration=35, e=0, f=0),
    ),
    crashes=(ShardCrash(fiber=1, slot=40),),
)


async def demo() -> None:
    service = SchedulingService(
        N,
        CircularConversion(k=K, e=1, f=1),
        BreakFirstAvailableScheduler(),
        faults=PLAN,
        breaker=BreakerConfig(failure_threshold=2, reset_ticks=5),
        supervisor=SupervisorConfig(restart_delay_ticks=4),
    )
    print(f"fault plan: {PLAN.n_events} events, horizon {PLAN.horizon()} slots")

    # Seeded traffic, one slot per tick; grants bucketed per slot so the
    # degradation and the recovery show up in the printed timeline.
    traffic = BernoulliTraffic(
        N, K, load=0.8, durations=GeometricDuration(2.0)
    )
    rng = make_rng(7)
    futures: list[asyncio.Future] = []
    for slot in range(SLOTS):
        for p in traffic.arrivals(slot, rng):
            futures.append(
                service.submit_nowait(
                    SlotRequest(
                        p.input_fiber,
                        p.wavelength,
                        p.output_fiber,
                        p.duration,
                        p.priority,
                    )
                )
            )
        await service.tick()
        await asyncio.sleep(0)
    await service.drain()
    outcomes = await asyncio.gather(*futures)

    granted_per_phase = {"before": 0, "storm": 0, "after": 0}
    horizon = PLAN.horizon()
    for o in outcomes:
        if isinstance(o, ServiceGrant):
            if o.slot < 20:
                granted_per_phase["before"] += 1
            elif o.slot < horizon:
                granted_per_phase["storm"] += 1
            else:
                granted_per_phase["after"] += 1
    print(
        "grants  before storm: {before}   during: {storm}   "
        "after recovery: {after}".format(**granted_per_phase)
    )

    counters = service.telemetry.snapshot()["counters"]
    print(
        f"faults fired: {counters['faults.outages']} outages, "
        f"{counters['faults.degradations']} degradations, "
        f"{counters['faults.crashes']} crash"
    )
    print(
        f"shard 1: crashed {counters['server.shard_crashes']}x, "
        f"restarted {counters['server.shard_restarts']}x "
        f"(supervisor down list now: {list(service.supervisor.down_shards)})"
    )
    print(
        f"breaker transitions: {counters['breaker.transitions.opened']} "
        f"opened, {counters['breaker.transitions.half_open']} half-open, "
        f"{counters['breaker.transitions.closed']} closed "
        f"(shard 1 now: {service.breakers[1].state.value})"
    )
    print(
        f"fault-path rejections: "
        f"{counters.get('server.rejected.shard_down', 0)} shard_down, "
        f"{counters.get('server.rejected.circuit_open', 0)} circuit_open"
    )

    # A retrying client rides out a fresh kill of shard 2.
    service2 = SchedulingService(
        N,
        CircularConversion(k=K, e=1, f=1),
        BreakFirstAvailableScheduler(),
        faults=FaultPlan(crashes=(ShardCrash(fiber=2, slot=0),)),
        breaker=BreakerConfig(failure_threshold=1, reset_ticks=2),
        supervisor=SupervisorConfig(restart_delay_ticks=2),
    )
    client = SchedulingClient(service2, seed=11)
    task = asyncio.ensure_future(
        client.submit(
            SlotRequest(0, 3, 2),
            policy=RetryPolicy(max_attempts=100, base_delay=0.0),
        )
    )
    for _ in range(20):
        await service2.tick()
        await asyncio.sleep(0)
        if task.done():
            break
    outcome = await task
    retries = service2.telemetry.snapshot()["counters"]["client.retries"]
    assert isinstance(outcome, ServiceGrant)
    print(
        f"\nretrying client: granted channel {outcome.channel} in slot "
        f"{outcome.slot} after {retries} retries through the outage"
    )

    # Conservation still holds under chaos: every submission resolved once.
    resolved = sum(
        counters.get(name, 0)
        for name in (
            "server.granted",
            "server.rejected.contention",
            "server.rejected.source_blocked",
            "server.rejected.queue_full",
            "server.dropped",
            "server.timed_out",
            "server.shutdown",
            "server.rejected.shard_down",
            "server.rejected.circuit_open",
        )
    )
    assert counters["server.submitted"] == resolved == len(outcomes)
    print(
        f"conservation check under chaos: {counters['server.submitted']} "
        f"submitted == {resolved} resolved ✓"
    )

    await service.stop()
    await service2.stop()


if __name__ == "__main__":
    asyncio.run(demo())
