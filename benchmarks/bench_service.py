"""Benchmark the asyncio scheduling service: sustained requests/sec and
p50/p99 grant latency as a function of shard count.

Run standalone for the full sweep::

    PYTHONPATH=src python benchmarks/bench_service.py

or under pytest (``pytest benchmarks/bench_service.py``) for a smaller
smoke-sized sweep with shape assertions.  The per-output decomposition says
work per slot is ``O(N·k)`` with perfect shardability, and each tick
schedules every shard with one batch-kernel call — so requests/sec should
scale with shard count until the event loop saturates.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.core.break_first_available import BreakFirstAvailableScheduler
from repro.service import LoadGenerator, SchedulingClient, SchedulingService
from repro.sim.traffic import BernoulliTraffic
from repro.graphs.conversion import CircularConversion
from repro.util.tables import format_table


@dataclass
class ServiceBenchResult:
    shards: int
    offered: int
    granted: int
    requests_per_sec: float
    grant_rate: float
    p50_ms: float
    p99_ms: float


def run_service_bench(
    n_fibers: int,
    k: int = 16,
    load: float = 0.85,
    n_slots: int = 150,
    seed: int = 20030422,
) -> ServiceBenchResult:
    """Drive one service configuration to completion and report it."""

    async def go() -> ServiceBenchResult:
        service = SchedulingService(
            n_fibers,
            CircularConversion(k, 1, 1),
            BreakFirstAvailableScheduler(),
            tick_interval=0.0,
        )
        generator = LoadGenerator(
            SchedulingClient(service),
            BernoulliTraffic(n_fibers, k, load=load),
            seed=seed,
        )
        report = await generator.run(n_slots)
        await service.stop()
        return ServiceBenchResult(
            shards=n_fibers,
            offered=report.offered,
            granted=report.granted,
            requests_per_sec=report.requests_per_sec,
            grant_rate=report.grant_rate,
            p50_ms=report.p50_latency * 1e3,
            p99_ms=report.p99_latency * 1e3,
        )

    return asyncio.run(go())


def sweep(
    shard_counts=(4, 8, 16, 32), **kwargs
) -> list[ServiceBenchResult]:
    return [run_service_bench(n, **kwargs) for n in shard_counts]


def render(results: list[ServiceBenchResult]) -> str:
    return format_table(
        ["shards", "offered", "granted", "req/s", "grant rate",
         "p50 (ms)", "p99 (ms)"],
        [
            (r.shards, r.offered, r.granted, r.requests_per_sec,
             r.grant_rate, r.p50_ms, r.p99_ms)
            for r in results
        ],
        title="Scheduling service: sustained throughput and grant latency "
        "(k=16, d=3, Bernoulli load 0.85, one tick per slot)",
    )


# -- pytest entry points (smoke-sized: shapes, not absolute speed) ----------

def test_service_throughput_two_shard_counts():
    """Acceptance shape: ≥2 shard counts, each reporting req/s and p50/p99."""
    results = [run_service_bench(n, n_slots=40) for n in (4, 16)]
    for r in results:
        assert r.offered > 0
        assert 0 < r.granted <= r.offered
        assert r.requests_per_sec > 0
        assert 0.0 < r.p50_ms <= r.p99_ms
    # 4× the shards at the same per-channel load ⇒ ~4× offered requests.
    assert results[1].offered > 2 * results[0].offered


def main() -> None:
    results = sweep()
    print(render(results))
    best = max(results, key=lambda r: r.requests_per_sec)
    print(
        f"\npeak sustained throughput: {best.requests_per_sec:,.0f} req/s "
        f"({best.shards} shards, "
        f"p50 {best.p50_ms:.2f} ms, p99 {best.p99_ms:.2f} ms)"
    )


if __name__ == "__main__":
    main()
