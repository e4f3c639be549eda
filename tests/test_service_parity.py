"""Placement parity: the in-process and multi-process services are one front.

``SchedulingService`` and ``ProcessShardedService`` share the submission
path, the tick skeleton and the outcome resolution
(:class:`repro.service.tickloop.ServiceFront`); where a shard runs must
be the only difference.  One seeded workload that exercises slot
deadlines, rate limiting, a circuit breaker tripped by timeouts and a
``SHED`` queue must give the same outcome for every request, and the
same ``server.*`` / ``tenant.*`` / ``breaker.*`` counters, on both.
"""

import asyncio
import random
from collections import Counter

import pytest

pytestmark = [pytest.mark.net, pytest.mark.slow]

from repro.core.distributed import SlotRequest
from repro.core.first_available import FirstAvailableScheduler
from repro.graphs.conversion import NonCircularConversion
from repro.net.procservice import ProcessShardedService
from repro.service.breaker import BreakerConfig
from repro.service.queue import OverflowPolicy, TenantAdmission
from repro.service.ratelimit import RateLimitConfig
from repro.service.server import RejectReason, SchedulingService, ServiceGrant

N_FIBERS, K, SLOTS, SEED = 4, 3, 40, 7
WEIGHTS = {0: 1, 1: 3}


def _settings() -> dict:
    return dict(
        queue_capacity=3,
        overflow=OverflowPolicy.SHED,
        admission=TenantAdmission(WEIGHTS),
        max_batch_per_tick=2,
        rate_limit=RateLimitConfig(rate_per_tick=4, burst=5, per_tenant={1: (1, 2)}),
        breaker=BreakerConfig(failure_threshold=2, reset_ticks=3),
    )


def _in_process() -> SchedulingService:
    return SchedulingService(
        N_FIBERS, NonCircularConversion(K, 1, 1), FirstAvailableScheduler(),
        **_settings(),
    )


def _worker_pool() -> ProcessShardedService:
    return ProcessShardedService(
        N_FIBERS, NonCircularConversion(K, 1, 1), FirstAvailableScheduler(),
        n_workers=1, **_settings(),
    )


def _outcome(o) -> tuple:
    if isinstance(o, ServiceGrant):
        return ("grant", o.channel, o.slot)
    return (o.reason.value, o.slot)


async def _drive(service) -> tuple[list[tuple], dict[str, int], dict[str, int]]:
    rng = random.Random(SEED)
    futures = []
    try:
        for _ in range(SLOTS):
            for _ in range(rng.randint(4, 9)):
                # Output fiber 0 is hot: its queue sheds and its requests
                # time out, which is what trips its breaker.
                out = 0 if rng.random() < 0.5 else rng.randrange(N_FIBERS)
                request = SlotRequest(
                    rng.randrange(N_FIBERS),
                    rng.randrange(K),
                    out,
                    duration=rng.randint(1, 3),
                    tenant=rng.choice((0, 1)),
                )
                futures.append(
                    service.submit_nowait(
                        request, timeout_ticks=rng.choice((None, None, 0, 1))
                    )
                )
            await service.tick()
    finally:
        await service.stop()
    outcomes = [_outcome(f.result()) for f in futures]
    t = service.telemetry
    counters = {
        name: value
        for prefix in ("server.", "tenant.", "breaker.")
        for name, value in t.counters(prefix).items()
        # The in-process supervisor's own counter: no placement parity.
        if name != "server.shard_restarts"
    }
    histograms = t.snapshot()["histograms"]
    counts = {
        name: histograms[name]["count"]
        for name in ("server.grant_latency_seconds", "server.tick_seconds")
    }
    return outcomes, counters, counts


@pytest.fixture(scope="module")
def reference():
    return asyncio.run(_drive(_in_process()))


def test_workload_exercises_every_edge_feature(reference):
    outcomes, _counters, _counts = reference
    kinds = Counter(o[0] for o in outcomes)
    for reason in (
        RejectReason.CONTENTION,
        RejectReason.SOURCE_BLOCKED,
        RejectReason.TIMED_OUT,
        RejectReason.RATE_LIMITED,
        RejectReason.CIRCUIT_OPEN,
        RejectReason.ADMISSION_SHED,
    ):
        assert kinds[reason.value] > 0, reason
    assert kinds["grant"] > 0


@pytest.mark.parametrize(
    "build", [_in_process, _worker_pool], ids=["in-process", "worker-pool"]
)
def test_placements_agree(build, reference):
    outcomes, counters, counts = asyncio.run(_drive(build()))
    ref_outcomes, ref_counters, ref_counts = reference
    assert outcomes == ref_outcomes
    assert counters == ref_counters
    assert counts == ref_counts
    assert counts["server.grant_latency_seconds"] == counters["server.granted"]
    assert counts["server.tick_seconds"] == SLOTS
