#!/usr/bin/env python
"""Service demo: run the sharded asyncio scheduling service under load.

Builds a 4×4 interconnect service (one shard per output fiber, Break-and-
First-Available per shard), drives it with the simulator's Bernoulli traffic
model, then prints the load report and the built-in telemetry snapshot —
queue depths, grant rate, and latency percentiles included.

Run:  PYTHONPATH=src python examples/service_demo.py
"""

import asyncio

from repro import BreakFirstAvailableScheduler, CircularConversion
from repro.core.distributed import SlotRequest
from repro.service import (
    LoadGenerator,
    OverflowPolicy,
    SchedulingClient,
    SchedulingService,
)
from repro.sim.traffic import BernoulliTraffic


async def demo() -> None:
    # --- 1. A service: 4 output-fiber shards, k=16 wavelengths, d=3
    # circular conversion, bounded queues with drop-oldest backpressure.
    service = SchedulingService(
        4,
        CircularConversion(k=16, e=1, f=1),
        BreakFirstAvailableScheduler(),
        queue_capacity=64,
        overflow=OverflowPolicy.DROP_OLDEST,
    )

    # --- 2. One interactive request through the client: submit, tick, and
    # read the grant (output channel + slot it was scheduled in).  The same
    # client talks TCP when built with SchedulingClient.connect(host, port).
    client = SchedulingClient(service)
    request = asyncio.ensure_future(client.submit(SlotRequest(0, 5, 3)))
    await asyncio.sleep(0)  # let the submit reach the service
    await client.tick()
    outcome = await request
    print(
        f"interactive request λ5 → output 3: granted channel "
        f"{outcome.channel} in slot {outcome.slot}"
    )

    # --- 3. Sustained load: the simulator's own traffic model drives the
    # service, one traffic slot per tick, 200 slots at 85% offered load.
    generator = LoadGenerator(
        client, BernoulliTraffic(4, 16, load=0.85), seed=20030422
    )
    report = await generator.run(200)
    print(
        f"load run: {report.offered} requests over {report.slots} slots, "
        f"{report.granted} granted (grant rate {report.grant_rate:.3f})"
    )
    print(
        f"sustained {report.requests_per_sec:,.0f} req/s, grant latency "
        f"p50 {report.p50_latency * 1e3:.2f} ms / "
        f"p99 {report.p99_latency * 1e3:.2f} ms"
    )

    # --- 4. Built-in telemetry: every layer (server, shards, queues)
    # reports through one registry.
    print("\ntelemetry snapshot:")
    print(service.telemetry.render())

    await service.stop()

    # The conservation invariant the test suite enforces: every submitted
    # request resolved exactly once.
    counters = service.telemetry.counters("server.")
    resolved = (
        counters["server.granted"]
        + counters["server.rejected.contention"]
        + counters["server.rejected.source_blocked"]
        + counters["server.rejected.queue_full"]
        + counters["server.dropped"]
        + counters["server.timed_out"]
        + counters["server.shutdown"]
    )
    assert counters["server.submitted"] == resolved
    print(f"\nconservation check: {counters['server.submitted']} submitted "
          f"== {resolved} resolved")


def main() -> None:
    asyncio.run(demo())


if __name__ == "__main__":
    main()
