"""Benchmark the TCP front door: ticks/s and request p50/p99 over the
wire, single-process vs multi-process shard placement.

Run standalone for the full sweep::

    PYTHONPATH=src python benchmarks/bench_net.py

or under pytest for a smoke-sized run with shape assertions.  The load
always comes from **separate OS processes** (:mod:`repro.net.loadgen`),
so the numbers include real kernel socket hops and pickling — this is
the deployment shape, not an in-process shortcut.  On a multi-core
machine the ≥2-worker backend should sustain more ticks/s than the
single-process baseline (the per-output sub-problems run concurrently);
on a single core the comparison is recorded but not gated
(``benchmarks/harness.py`` checks ``os.cpu_count()``).
"""

from __future__ import annotations

import asyncio
import threading
from contextlib import contextmanager
from dataclasses import dataclass

from repro.core.first_available import FirstAvailableScheduler
from repro.graphs.conversion import NonCircularConversion
from repro.net.loadgen import run_load
from repro.net.procservice import ProcessShardedService
from repro.net.server import NetServer
from repro.service import SchedulingService
from repro.util.tables import format_table


@dataclass
class NetBenchResult:
    backend: str
    workers: int
    processes: int
    submitted: int
    granted: int
    rejected: int
    ticks: int
    elapsed: float
    ticks_per_second: float
    p50_ms: float
    p99_ms: float
    conserved: bool


@contextmanager
def serve_backend(n_fibers: int, k: int, workers: int):
    """Bring a backend up behind a :class:`NetServer` on a background
    event-loop thread; yields the TCP port.  ``workers=0`` serves the
    in-process :class:`SchedulingService`, ``workers>=1`` the
    multi-process :class:`ProcessShardedService`.
    """
    loop = asyncio.new_event_loop()
    ready = threading.Event()
    state: dict = {}

    async def _up():
        if workers == 0:
            service = SchedulingService(
                n_fibers,
                NonCircularConversion(k, 1, 1),
                FirstAvailableScheduler(),
                durability=False,
            )
        else:
            service = ProcessShardedService(
                n_fibers,
                NonCircularConversion(k, 1, 1),
                FirstAvailableScheduler(),
                n_workers=workers,
            )
        server = NetServer(service)
        await server.start()
        state["service"], state["server"] = service, server
        return server.port

    def _thread():
        asyncio.set_event_loop(loop)
        loop.call_soon(ready.set)
        loop.run_forever()

    t = threading.Thread(target=_thread, name="bench-net-loop", daemon=True)
    t.start()
    ready.wait()
    port = asyncio.run_coroutine_threadsafe(_up(), loop).result(60)
    try:
        yield port
    finally:
        async def _down():
            await state["server"].stop()
            await state["service"].stop()

        asyncio.run_coroutine_threadsafe(_down(), loop).result(60)
        loop.call_soon_threadsafe(loop.stop)
        t.join(timeout=10.0)


def run_net_bench(
    *,
    workers: int = 0,
    n_fibers: int = 8,
    k: int = 4,
    processes: int = 2,
    requests: int = 300,
    seed: int = 0,
) -> NetBenchResult:
    """One backend configuration under external multi-process load."""
    with serve_backend(n_fibers, k, workers) as port:
        report = run_load(
            "127.0.0.1",
            port,
            processes=processes,
            requests_per_process=requests,
            seed=seed,
        )
    return NetBenchResult(
        backend="single-process" if workers == 0 else "multi-process",
        workers=workers,
        processes=processes,
        submitted=report.offered,
        granted=report.granted,
        rejected=sum(report.rejected.values()),
        ticks=report.slots,
        elapsed=report.wall_seconds,
        ticks_per_second=report.ticks_per_second,
        p50_ms=report.p50_latency * 1e3,
        p99_ms=report.p99_latency * 1e3,
        conserved=report.conserved,
    )


def sweep(worker_counts=(0, 2, 4), **kwargs) -> list[NetBenchResult]:
    return [run_net_bench(workers=w, **kwargs) for w in worker_counts]


def render(results: list[NetBenchResult]) -> str:
    return format_table(
        ["backend", "workers", "load procs", "submitted", "granted",
         "ticks/s", "p50 (ms)", "p99 (ms)"],
        [
            (r.backend, r.workers, r.processes, r.submitted, r.granted,
             r.ticks_per_second, r.p50_ms, r.p99_ms)
            for r in results
        ],
        title="TCP front door: external-process load, single- vs "
        "multi-process shard placement (k=4, Bernoulli-ish random load)",
    )


# -- pytest entry points (smoke-sized: shapes, not absolute speed) ----------

def test_net_bench_single_process_shape():
    r = run_net_bench(workers=0, requests=60)
    assert r.conserved
    assert r.submitted == 2 * 60
    assert r.granted > 0
    assert r.ticks_per_second > 0
    assert 0.0 < r.p50_ms <= r.p99_ms


def test_net_bench_multi_process_shape():
    r = run_net_bench(workers=2, requests=60)
    assert r.conserved
    assert r.granted > 0
    assert r.ticks_per_second > 0


def main() -> None:
    results = sweep()
    print(render(results))
    single = next(r for r in results if r.workers == 0)
    for r in results:
        if r.workers > 0:
            ratio = r.ticks_per_second / single.ticks_per_second
            print(
                f"{r.workers} workers vs single-process: "
                f"{ratio:.2f}x ticks/s"
            )
    if not all(r.conserved for r in results):
        raise SystemExit("conservation violated")


if __name__ == "__main__":
    main()
