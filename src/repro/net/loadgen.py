"""Process-based load generation for the TCP front door.

Drives a running :class:`~repro.net.server.NetServer` from **separate OS
processes**: each load process opens its own TCP
:class:`~repro.service.client.SchedulingClient`, submits seeded random
requests in pipelined batches through the shared
:func:`~repro.service.client.stamped` coroutine (each request's latency
stamped when its own outcome arrives), and ships back a
:class:`~repro.service.client.LoadReport`; the caller's process drives
slot ticks over its own connection until every load process reports
back, and merges the reports.  This is the external-driver
shape the open-shop scheduling literature uses — the system under test
never generates its own load.

``python -m repro.net.loadgen`` is the self-contained integration
entrypoint used by CI and ``benchmarks/bench_net.py``: it starts a
multi-process :class:`~repro.net.procservice.ProcessShardedService`
behind a :class:`NetServer`, fires the load processes at it, then
asserts the conservation invariant (every submission resolved exactly
once: ``submitted == granted + Σ rejected.*``) before exiting 0.
"""

from __future__ import annotations

import argparse
import asyncio
import multiprocessing as mp
import random
import sys
import time

from repro.core.distributed import SlotRequest
from repro.errors import ProtocolError
from repro.service.client import LoadReport, SchedulingClient, stamped

__all__ = ["random_load", "drive_load", "run_load", "main"]


async def random_load(
    client: SchedulingClient, seed: int, n_requests: int, batch: int
) -> LoadReport:
    """One load process's work: ``n_requests`` uniformly random requests
    from ``random.Random(seed)``, submitted ``batch`` at a time, each
    batch awaited before the next.  The ticks come from elsewhere."""
    rng = random.Random(seed)
    n_fibers, k = client.n_fibers, client.k
    outcomes: list = []
    latencies: list[float] = []
    t0 = time.perf_counter()
    while len(outcomes) < n_requests:
        n = min(batch, n_requests - len(outcomes))
        reqs = [
            SlotRequest(
                rng.randrange(n_fibers),
                rng.randrange(k),
                rng.randrange(n_fibers),
            )
            for _ in range(n)
        ]
        outcomes += await asyncio.gather(
            *(stamped(client, r, latencies) for r in reqs),
            return_exceptions=True,
        )
    return LoadReport.tally(outcomes, latencies, 0, time.perf_counter() - t0)


async def _child_async(
    host: str, port: int, seed: int, n_requests: int, batch: int
) -> LoadReport:
    async with await SchedulingClient.connect(host, port) as client:
        report = await random_load(client, seed, n_requests, batch)
    # The parent needs the tallies and latencies, not every outcome.
    report.outcomes.clear()
    return report


def _child_main(
    host: str, port: int, seed: int, n_requests: int, batch: int, report_q
) -> None:
    """Entry point of one load process (module-level: spawn-picklable)."""
    try:
        report_q.put(
            ("ok", asyncio.run(_child_async(host, port, seed, n_requests, batch)))
        )
    except BaseException as exc:  # report, don't hang the parent
        report_q.put(("error", repr(exc)))


async def drive_load(
    host: str,
    port: int,
    *,
    processes: int = 2,
    requests_per_process: int = 200,
    batch: int = 8,
    seed: int = 0,
    max_ticks: int = 100_000,
) -> LoadReport:
    """Fire ``processes`` load processes at a running server and tick it
    from here until every one reported; returns their merged report
    (``slots`` = ticks driven)."""
    ctx = mp.get_context("spawn")
    report_q = ctx.Queue()
    procs = [
        ctx.Process(
            target=_child_main,
            args=(host, port, seed + i, requests_per_process, batch, report_q),
            name=f"repro-loadgen-{i}",
            daemon=True,
        )
        for i in range(processes)
    ]
    t0 = time.perf_counter()
    for p in procs:
        p.start()
    reports: list = []
    ticks = 0
    try:
        async with await SchedulingClient.connect(host, port) as driver:
            while len(reports) < processes:
                if ticks >= max_ticks:
                    raise ProtocolError(
                        f"load did not complete within {max_ticks} ticks"
                    )
                await driver.tick(1)
                ticks += 1
                while not report_q.empty():
                    reports.append(report_q.get())
    finally:
        for p in procs:
            p.join(timeout=30.0)
            if p.is_alive():
                p.kill()
                p.join(timeout=5.0)
    elapsed = time.perf_counter() - t0
    for tag, payload in reports:
        if tag != "ok":
            raise ProtocolError(f"load process failed: {payload}")
    return LoadReport.merge([r for _, r in reports], ticks, elapsed)


def run_load(host: str, port: int, **options) -> LoadReport:
    """Blocking :func:`drive_load` (for a server on another thread or
    process)."""
    return asyncio.run(drive_load(host, port, **options))


def main(argv: "list[str] | None" = None) -> int:
    """CI integration entrypoint: multi-process server + external load +
    conservation assertion.  Exits non-zero on any violation."""
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-fibers", type=int, default=8)
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument("--workers", type=int, default=2, help="shard worker processes")
    ap.add_argument("--processes", type=int, default=2, help="load processes")
    ap.add_argument("--requests", type=int, default=200, help="per load process")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--journal-dir", default=None)
    args = ap.parse_args(argv)

    from repro.core.first_available import FirstAvailableScheduler
    from repro.graphs.conversion import NonCircularConversion
    from repro.net.procservice import ProcessShardedService
    from repro.net.server import NetServer

    async def serve_and_load() -> LoadReport:
        service = ProcessShardedService(
            args.n_fibers,
            NonCircularConversion(args.k, 1, 1),
            FirstAvailableScheduler(),
            n_workers=args.workers,
            journal_dir=args.journal_dir,
        )
        server = NetServer(service)
        try:
            await server.start()
            print(
                f"server up on 127.0.0.1:{server.port} — {args.workers} "
                f"worker processes, placement {service.placement}"
            )
            return await drive_load(
                "127.0.0.1",
                server.port,
                processes=args.processes,
                requests_per_process=args.requests,
                seed=args.seed,
            )
        finally:
            await server.stop()
            await service.stop()

    report = asyncio.run(serve_and_load())
    print(
        f"load: {report.offered} submitted, {report.granted} granted, "
        f"{sum(report.rejected.values())} rejected, {report.errors} errors "
        f"over {report.slots} ticks in {report.wall_seconds:.2f}s "
        f"({report.ticks_per_second:.0f} ticks/s, "
        f"p50 {report.p50_latency * 1e3:.2f} ms, "
        f"p99 {report.p99_latency * 1e3:.2f} ms)"
    )
    if not report.conserved:
        print("CONSERVATION VIOLATED: submitted != granted + rejected + errors")
        return 1
    if report.errors:
        print(f"{report.errors} submissions resolved with errors")
        return 1
    print("conservation holds: every submission resolved exactly once")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI
    sys.exit(main())
