"""Benchmark live shard migration: the pause a move costs, in ticks.

Run standalone for the full sweep::

    PYTHONPATH=src python benchmarks/bench_reshard.py

or via ``benchmarks/harness.py`` (the ``reshard`` group) for the gated
quick run.  A :class:`~repro.net.procservice.ProcessShardedService`
ticks through a seeded request schedule while shards ping-pong between
its two workers at a fixed cadence.  Two numbers come out:

* the **baseline tick latency** of the same service between moves
  (real worker-process RPCs, so pause and tick share every fixed cost);
* the **migration pause** — ``MigrationReport.pause_seconds``, the
  wall-clock the engine spent in quiesce → export → adopt → flip →
  release while the tick loop was held.

The headline (and the gated) figure is their ratio, **ticks stalled per
move**: how many slots of scheduling work one live migration displaces.
The handoff (``DurabilityManager.export``) carries the shard's latest
snapshot and its journal since the snapshot before it, so the pause is
bounded by the snapshot interval, not by history — the sweep reports
payload bytes alongside so a regression in either shows up distinctly.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

import numpy as np

from repro.core.distributed import SlotRequest
from repro.core.first_available import FirstAvailableScheduler
from repro.graphs.conversion import NonCircularConversion
from repro.net.procservice import ProcessShardedService
from repro.util.rng import make_rng
from repro.util.tables import format_table


@dataclass
class ReshardBenchResult:
    ticks: int
    migrations: int
    tick_p50_s: float
    tick_p99_s: float
    pause_p50_s: float
    pause_p99_s: float
    payload_p50_bytes: float
    stall_ticks: float  # pause_p50 / tick_p50
    conserved: bool


def run_reshard_bench(
    ticks: int = 120,
    *,
    n_fibers: int = 8,
    k: int = 8,
    migrate_every: int = 10,
    load: float = 0.5,
    seed: int = 29,
) -> ReshardBenchResult:
    """Tick a two-worker service ``ticks`` times, migrating one shard
    every ``migrate_every`` ticks (round-robin over the shards, always
    to the other worker), and time both activities."""
    rng = make_rng(seed)
    schedule = []
    for _ in range(ticks):
        slot = []
        for i in range(n_fibers):
            for w in range(k):
                if rng.random() < load:
                    slot.append(
                        SlotRequest(
                            i,
                            w,
                            int(rng.integers(n_fibers)),
                            duration=int(rng.integers(1, 3)),
                        )
                    )
        schedule.append(slot)

    async def go():
        import time

        service = ProcessShardedService(
            n_fibers,
            NonCircularConversion(k, 1, 1),
            FirstAvailableScheduler(),
            n_workers=2,
        )
        tick_s = []
        pause_s = []
        payload_b = []
        futures = []
        submitted = resolved = 0
        try:
            for tick, slot in enumerate(schedule):
                if tick and tick % migrate_every == 0:
                    shard = (tick // migrate_every - 1) % n_fibers
                    destination = 1 - service.placement[shard]
                    report = service.migrate_shard(shard, destination)
                    pause_s.append(report.pause_seconds)
                    payload_b.append(report.payload_bytes)
                for r in slot:
                    futures.append(service.submit_nowait(r))
                    submitted += 1
                t0 = time.perf_counter()
                await service.tick()
                tick_s.append(time.perf_counter() - t0)
            outcomes = await asyncio.gather(*futures)
            resolved = len(outcomes)
        finally:
            await service.stop()
        return tick_s, pause_s, payload_b, submitted, resolved

    tick_s, pause_s, payload_b, submitted, resolved = asyncio.run(go())
    tick_p50 = float(np.percentile(tick_s, 50))
    pause_p50 = float(np.percentile(pause_s, 50))
    return ReshardBenchResult(
        ticks=len(tick_s),
        migrations=len(pause_s),
        tick_p50_s=tick_p50,
        tick_p99_s=float(np.percentile(tick_s, 99)),
        pause_p50_s=pause_p50,
        pause_p99_s=float(np.percentile(pause_s, 99)),
        payload_p50_bytes=float(np.percentile(payload_b, 50)),
        stall_ticks=pause_p50 / tick_p50,
        conserved=submitted == resolved,
    )


def main() -> None:
    rows = []
    for ticks, every in ((120, 10), (240, 10), (240, 30)):
        r = run_reshard_bench(ticks, migrate_every=every)
        rows.append(
            [
                f"{ticks}/{every}",
                r.migrations,
                f"{r.tick_p50_s * 1e3:.2f}",
                f"{r.pause_p50_s * 1e3:.2f}",
                f"{r.payload_p50_bytes / 1024:.1f}",
                f"{r.stall_ticks:.1f}",
                "yes" if r.conserved else "NO",
            ]
        )
    print(
        format_table(
            [
                "ticks/cadence",
                "moves",
                "tick p50 (ms)",
                "pause p50 (ms)",
                "payload p50 (KiB)",
                "stall (ticks)",
                "conserved",
            ],
            rows,
        )
    )


# -- pytest smoke -------------------------------------------------------------


def test_reshard_bench_smoke():
    r = run_reshard_bench(30, migrate_every=10, n_fibers=4, k=4)
    assert r.migrations == 2
    assert r.conserved
    assert r.pause_p50_s > 0
    assert r.stall_ticks > 0


if __name__ == "__main__":
    main()
