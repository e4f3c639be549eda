"""Deterministic perf-regression harness (``BENCH_PR9.json``).

Runs a small, fixed-seed benchmark suite over the layers this repo's
performance story rests on and writes one JSON document per run:

* ``kernel`` group — the batch kernels and the memoized schedulers.
  These are pure CPU micro-benchmarks, stable enough to gate in CI: a run
  whose ``ops_per_s`` drops more than ``--threshold`` (default 30%) below
  the committed baseline fails the comparison.  ``batch_*_kernel`` time
  the public entry points; ``batch_*_kernel_python`` time the scalar
  sweep (:mod:`repro.core.kernels`) called directly on the same inputs.
* ``sweep`` group — informational, never gated: FA's scalar and
  vectorized sweeps and BFA's one sweep at M ∈ {16, 128, 1024, 8192} rows,
  the numbers behind FA's ``SCALAR_ROWS`` cutover.
* ``sim`` group — end-to-end slot throughput of the fast engine vs the full
  engine on the same seeded multi-slot traffic.  Not gated on absolute
  speed (CI machines vary) but on the *ratio*: the fast engine must stay at
  least ``--min-speedup`` (default 5×) ahead of the full engine.
* ``service`` group — per-tick latency of the scheduling service with
  durability off vs the in-memory write-ahead journal vs the file
  backend.  Gated on the *ratio*: the in-memory journal must cost less
  than ``--max-journal-overhead`` (default 10%) over durability off.
* ``qos`` group — per-tick latency of a multi-tenant service (weighted
  fair grants, SHED admission, per-tenant accounting) vs an otherwise
  identical single-tenant service, paired tick-by-tick like the service
  group.  Gated on the derived ``qos_overhead`` median ratio
  (``--max-qos-overhead``, default 10%).
* ``net`` group — ticks/s and request p50/p99 over TCP under external
  multi-process load (``repro.net.loadgen``), single-process backend vs
  multi-process shard placement.  The ≥2-worker backend must beat the
  single-process ticks/s by ``--min-net-speedup`` — but only when the
  machine has more than one CPU (``meta.cpus`` records the truth);
  scheduling across processes cannot pay for its pickling on one core.
* ``reshard`` group — the live-migration pause vs the baseline tick on
  the same two-worker service.  Gated on the derived
  ``reshard_stall_ticks`` ratio (``--max-reshard-stall``, default 20):
  one move must never displace more than that many slots of work.

Usage::

    python benchmarks/harness.py --quick --out BENCH_PR9.json
    python benchmarks/harness.py --quick --compare BENCH_PR9.json
    python benchmarks/harness.py --quick --profile kernels

The JSON layout::

    {"meta": {...}, "benchmarks": {name: {group, calls, ops_per_s,
     p50_s, p99_s}}, "derived": {"multislot_speedup": ...}}
"""

from __future__ import annotations

import argparse
import asyncio
import cProfile
import json
import os
import platform
import pstats
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core import kernels
from repro.core.break_first_available import BreakFirstAvailableScheduler
from repro.core.distributed import SlotRequest
from repro.core.kernels import batch_break_first_available, batch_first_available
from repro.core.memo import ScheduleCache
from repro.core.policies import WeightedFairPolicy
from repro.faults import FaultPlan
from repro.graphs.conversion import CircularConversion
from repro.graphs.request_graph import RequestGraph
from repro.service import DurabilityConfig, SchedulingService
from repro.service.queue import OverflowPolicy, TenantAdmission
from repro.sim.duration import GeometricDuration
from repro.sim.engine import SlottedSimulator
from repro.sim.fast import FastPacketSimulator
from repro.sim.traffic import BernoulliTraffic
from repro.util.rng import make_rng

KERNEL = "kernel"
SWEEP = "sweep"
SIM = "sim"
SERVICE = "service"
QOS = "qos"
NET = "net"
RESHARD = "reshard"
REGRESSION_THRESHOLD = 0.30
MIN_MULTISLOT_SPEEDUP = 5.0
MAX_JOURNAL_OVERHEAD = 0.10
MAX_QOS_OVERHEAD = 0.10
MIN_NET_SPEEDUP = 1.0
MAX_RESHARD_STALL_TICKS = 20.0


def _time_calls(fn, calls: int) -> dict[str, float]:
    """Run ``fn`` ``calls`` times; summarize per-call wall times."""
    samples = np.empty(calls, dtype=float)
    for i in range(calls):
        t0 = time.perf_counter()
        fn()
        samples[i] = time.perf_counter() - t0
    return {
        "calls": calls,
        "ops_per_s": calls / float(samples.sum()),
        "p50_s": float(np.percentile(samples, 50)),
        "p99_s": float(np.percentile(samples, 99)),
    }


def _kernel_inputs(rows: int, k: int, seed: int):
    rng = np.random.default_rng(seed)
    req = rng.poisson(1.0, size=(rows, k)).astype(np.int64)
    avail = rng.random((rows, k)) < 0.8
    return req, avail


def bench_kernels(quick: bool) -> dict[str, dict]:
    rows, k = (64, 16)
    calls = 60 if quick else 400
    req, avail = _kernel_inputs(rows, k, seed=42)

    def fa():
        batch_first_available(req, avail, 1, 1, check=False)

    def bfa():
        batch_break_first_available(req, avail, 1, 1, check=False)

    def fa_scalar():
        kernels.fa_scalar(req, avail, 1, 1)

    def bfa_scalar():
        kernels.bfa_scalar(req, avail, 1, 1)

    return {
        "batch_fa_kernel": {"group": KERNEL, **_time_calls(fa, calls)},
        "batch_bfa_kernel": {"group": KERNEL, **_time_calls(bfa, calls)},
        # Named for the list-based sweep they time (BENCH_PR9 names).
        "batch_fa_kernel_python": {
            "group": KERNEL,
            **_time_calls(fa_scalar, calls),
        },
        "batch_bfa_kernel_python": {
            "group": KERNEL,
            **_time_calls(bfa_scalar, calls),
        },
    }


#: Row counts of the sweep group: below, at and far above ``SCALAR_ROWS``.
SWEEP_ROWS = (16, 128, 1024, 8192)


def bench_sweeps(quick: bool) -> dict[str, dict]:
    """FA's scalar vs vectorized sweep, and BFA's one sweep, across
    matrix heights."""
    k = 16
    sweeps = {
        "fa_scalar": kernels.fa_scalar,
        "fa_vectorized": kernels.fa_vectorized,
        "bfa_scalar": kernels.bfa_scalar,
    }
    out = {}
    for rows in SWEEP_ROWS:
        req, avail = _kernel_inputs(rows, k, seed=rows)
        # About the same number of rows per entry at every height.
        calls = max(3, (4096 if quick else 32768) // rows)
        for name, sweep in sweeps.items():
            out[f"sweep_{name}_m{rows}"] = {
                "group": SWEEP,
                **_time_calls(lambda: sweep(req, avail, 1, 1), calls),
            }
    return out


def bench_scheduler_cache(quick: bool) -> dict[str, dict]:
    """Memoized vs memo-free scheduler over a recurring working set."""
    scheme = CircularConversion(16, 1, 1)
    rng = np.random.default_rng(7)
    graphs = []
    for _ in range(32):
        wavelengths = rng.integers(scheme.k, size=int(rng.integers(0, 20)))
        graphs.append(
            RequestGraph.from_wavelengths(
                scheme, (int(w) for w in wavelengths), None
            )
        )
    calls = 30 if quick else 200

    def sweep(scheduler):
        def run():
            for rg in graphs:
                scheduler.schedule(rg)

        return run

    out = {}
    out["scheduler_uncached"] = {
        "group": KERNEL,
        **_time_calls(sweep(BreakFirstAvailableScheduler(cache=None)), calls),
    }
    cached = BreakFirstAvailableScheduler(cache=ScheduleCache(maxsize=4096))
    sweep(cached)()  # warm the cache so the timed region measures hits
    out["scheduler_cached"] = {
        "group": KERNEL,
        **_time_calls(sweep(cached), calls),
    }
    return out


def bench_sims(quick: bool) -> dict[str, dict]:
    n_fibers, k = 16, 16
    scheme = CircularConversion(k, 1, 1)
    slots = 100 if quick else 400
    calls_fast = 10 if quick else 30
    calls_full = 3 if quick else 5

    def traffic():
        return BernoulliTraffic(
            n_fibers, k, 0.9, durations=GeometricDuration(3.0)
        )

    def run_fast():
        FastPacketSimulator(n_fibers, scheme, traffic(), seed=13).run(slots)

    def run_full():
        SlottedSimulator(
            n_fibers,
            scheme,
            BreakFirstAvailableScheduler(),
            traffic(),
            seed=13,
        ).run(slots)

    def run_fast_single():
        FastPacketSimulator(
            n_fibers, scheme, BernoulliTraffic(n_fibers, k, 0.9), seed=13
        ).run(slots)

    return {
        "fast_sim_multislot": {
            "group": SIM,
            "slots": slots,
            **_time_calls(run_fast, calls_fast),
        },
        "full_sim_multislot": {
            "group": SIM,
            "slots": slots,
            **_time_calls(run_full, calls_full),
        },
        "fast_sim_singleslot": {
            "group": SIM,
            "slots": slots,
            **_time_calls(run_fast_single, calls_fast),
        },
    }


def bench_faults(quick: bool) -> dict[str, dict]:
    """Degraded-mode overhead: the same seeded run with an active fault
    plan (outages + a converter degradation) vs the fault-free path.

    Not gated on absolute speed; the point is that the per-slot fault
    queries and the narrowed-scheme scheduling stay in the same order of
    magnitude as the nominal run (the JSON diff makes drift visible).
    """
    n_fibers, k = 16, 16
    scheme = CircularConversion(k, 1, 1)
    slots = 100 if quick else 400
    calls_full = 3 if quick else 5
    calls_fast = 10 if quick else 30
    plan = FaultPlan.random(
        99,
        n_fibers,
        k,
        slots,
        n_outages=8,
        n_degradations=2,
        n_crashes=0,
        max_outage_slots=slots // 2,
        max_degradation_slots=slots // 2,
    )
    outage_only = FaultPlan(outages=plan.outages)

    def traffic():
        return BernoulliTraffic(
            n_fibers, k, 0.9, durations=GeometricDuration(3.0)
        )

    def run_full_faulted():
        SlottedSimulator(
            n_fibers,
            scheme,
            BreakFirstAvailableScheduler(),
            traffic(),
            seed=13,
            faults=plan,
        ).run(slots)

    def run_fast_faulted():
        # The fast engine takes outage-only plans (degradation needs the
        # per-input narrowing only the full engine implements).
        FastPacketSimulator(
            n_fibers, scheme, traffic(), seed=13, faults=outage_only
        ).run(slots)

    return {
        "full_sim_faulted": {
            "group": SIM,
            "slots": slots,
            **_time_calls(run_full_faulted, calls_full),
        },
        "fast_sim_faulted": {
            "group": SIM,
            "slots": slots,
            **_time_calls(run_fast_faulted, calls_fast),
        },
    }


def bench_journal(quick: bool) -> dict[str, dict]:
    """Durability overhead on the service tick path.

    Runs the same seeded request schedule through three otherwise
    identical services — durability off, in-memory write-ahead journal
    (the default), and the file backend — ticking all three *inside the
    same loop iteration* so machine-wide speed drift hits every variant
    equally.  The gated number is the derived ``journal_mem_overhead``:
    the median of the per-tick latency ratios (in-memory journal vs
    durability off), which pairs each tick with its contemporaneous
    baseline and so survives the run-to-run noise that sinks a
    sequential A/B comparison.  It must stay within
    ``--max-journal-overhead`` (default 10%).  The file backend is
    reported for visibility only (disk speed varies wildly across CI
    machines).
    """
    n_fibers, k = 8, 16
    ticks = 200 if quick else 600
    rng = make_rng(21)
    schedule = []
    for _tick in range(ticks):
        slot_requests = []
        for i in range(n_fibers):
            for w in range(k):
                if rng.random() < 0.5:
                    slot_requests.append(
                        SlotRequest(
                            i,
                            w,
                            int(rng.integers(n_fibers)),
                            duration=int(rng.integers(1, 4)),
                        )
                    )
        schedule.append(slot_requests)
    scheme = CircularConversion(k, 1, 1)

    def run_paired(tmp) -> dict[str, np.ndarray]:
        variants = {
            "service_tick_nodur": False,
            "service_tick_journal_mem": DurabilityConfig(snapshot_interval=16),
            "service_tick_journal_file": DurabilityConfig(
                snapshot_interval=16, backend="file", directory=tmp
            ),
        }

        async def go():
            services = {
                name: SchedulingService(
                    n_fibers, scheme, BreakFirstAvailableScheduler(),
                    durability=durability,
                )
                for name, durability in variants.items()
            }
            samples = {
                name: np.empty(ticks, dtype=float) for name in services
            }
            futures = []
            for i, slot_requests in enumerate(schedule):
                for name, service in services.items():
                    for r in slot_requests:
                        futures.append(service.submit_nowait(r))
                    t0 = time.perf_counter()
                    await service.tick()
                    samples[name][i] = time.perf_counter() - t0
            for service in services.values():
                await service.drain()
            await asyncio.gather(*futures)
            for service in services.values():
                await service.stop()
            return samples

        return asyncio.run(go())

    with tempfile.TemporaryDirectory() as tmp:
        run_paired(tmp + "/warmup")  # imports, allocator, bytecode caches
        samples = run_paired(tmp + "/run")
    out = {}
    for name, s in samples.items():
        out[name] = {
            "group": SERVICE,
            "calls": ticks,
            "ops_per_s": ticks / float(s.sum()),
            "p50_s": float(np.percentile(s, 50)),
            "p99_s": float(np.percentile(s, 99)),
        }
    out["service_tick_journal_mem"]["overhead_vs_nodur"] = float(
        np.median(
            samples["service_tick_journal_mem"]
            / samples["service_tick_nodur"]
        )
        - 1.0
    )
    return out


def bench_qos(quick: bool) -> dict[str, dict]:
    """Multi-tenant accounting overhead on the service tick path.

    Same paired discipline as :func:`bench_journal`: a single-tenant
    service (fixed-priority policy, DROP_TAIL overflow, every request
    tenant 0) and a QoS service (weighted fair policy, SHED admission
    keyed by the same weights, requests spread across three tenants) are
    ticked inside the same loop iteration on the same seeded request
    schedule.  The gated number is the median of the per-tick latency
    ratios — the cost of tenant bookkeeping, deficit-credit grant
    selection, and per-tenant telemetry, isolated from machine drift.
    Admission (which runs in ``submit_nowait``, off the tick path) is
    exercised but deliberately outside the timed region: the acceptance
    gate is about steady-state tick latency.
    """
    n_fibers, k = 8, 16
    ticks = 200 if quick else 600
    weights = {0: 4, 1: 2, 2: 1}
    rng = make_rng(23)
    schedule = []
    for _tick in range(ticks):
        slot_requests = []
        for i in range(n_fibers):
            for w in range(k):
                if rng.random() < 0.5:
                    slot_requests.append(
                        SlotRequest(
                            i,
                            w,
                            int(rng.integers(n_fibers)),
                            duration=int(rng.integers(1, 4)),
                            tenant=(i + w) % 3,
                        )
                    )
        schedule.append(slot_requests)
    scheme = CircularConversion(k, 1, 1)

    def run_paired() -> dict[str, np.ndarray]:
        async def go():
            services = {
                "service_tick_single_tenant": SchedulingService(
                    n_fibers,
                    scheme,
                    BreakFirstAvailableScheduler(),
                    queue_capacity=64,
                    overflow=OverflowPolicy.DROP_TAIL,
                    durability=False,
                ),
                "service_tick_qos": SchedulingService(
                    n_fibers,
                    scheme,
                    BreakFirstAvailableScheduler(),
                    policy=WeightedFairPolicy(weights),
                    queue_capacity=64,
                    overflow=OverflowPolicy.SHED,
                    admission=TenantAdmission(weights),
                    durability=False,
                ),
            }
            samples = {
                name: np.empty(ticks, dtype=float) for name in services
            }
            futures = []
            for i, slot_requests in enumerate(schedule):
                for name, service in services.items():
                    single = name == "service_tick_single_tenant"
                    for r in slot_requests:
                        if single and r.tenant:
                            r = SlotRequest(
                                r.input_fiber,
                                r.wavelength,
                                r.output_fiber,
                                duration=r.duration,
                            )
                        futures.append(service.submit_nowait(r))
                    t0 = time.perf_counter()
                    await service.tick()
                    samples[name][i] = time.perf_counter() - t0
            for service in services.values():
                await service.drain()
            await asyncio.gather(*futures, return_exceptions=True)
            for service in services.values():
                await service.stop()
            return samples

        return asyncio.run(go())

    run_paired()  # warmup: imports, allocator, bytecode caches
    samples = run_paired()
    out = {}
    for name, s in samples.items():
        out[name] = {
            "group": QOS,
            "calls": ticks,
            "ops_per_s": ticks / float(s.sum()),
            "p50_s": float(np.percentile(s, 50)),
            "p99_s": float(np.percentile(s, 99)),
        }
    out["service_tick_qos"]["overhead_vs_single_tenant"] = float(
        np.median(
            samples["service_tick_qos"]
            / samples["service_tick_single_tenant"]
        )
        - 1.0
    )
    return out


def bench_window(quick: bool) -> dict[str, dict]:
    """Tick-window amortization on a backlogged service (informational).

    The same seeded backlog is drained twice through otherwise identical
    durable services: one ticking once per event-loop iteration
    (``tick_window=1``, the pre-window behavior) and one catching up in
    bursts of 8 (``tick_window=8``, with idle shards' ADVANCE journal
    records coalesced per burst).  ``ops_per_s`` is ticks/s over the full
    drain; the derived ``window_amortization`` ratio shows what the
    window buys.  Not gated — the win depends on how deep queues run —
    but the JSON diff makes drift visible.
    """
    n_fibers, k = 8, 16
    n_requests = 400 if quick else 1200
    rng = make_rng(29)
    requests = [
        SlotRequest(
            int(rng.integers(n_fibers)),
            int(rng.integers(k)),
            int(rng.integers(n_fibers)),
            duration=int(rng.integers(1, 4)),
        )
        for _ in range(n_requests)
    ]
    scheme = CircularConversion(k, 1, 1)

    def run(window: int) -> tuple[int, float]:
        async def go():
            service = SchedulingService(
                n_fibers,
                scheme,
                BreakFirstAvailableScheduler(),
                max_batch_per_tick=4,
                tick_window=window,
            )
            futures = [service.submit_nowait(r) for r in requests]
            t0 = time.perf_counter()
            while service.queue_depth_total > 0:
                await service.tick_burst()
            elapsed = time.perf_counter() - t0
            ticks = service.slot
            await asyncio.gather(*futures)
            await service.stop()
            return ticks, elapsed

        return asyncio.run(go())

    out = {}
    for name, window in (
        ("service_burst_w1", 1),
        ("service_burst_w8", 8),
    ):
        run(window)  # warmup: imports, allocator, bytecode caches
        ticks, elapsed = run(window)
        out[name] = {
            "group": SERVICE,
            "calls": ticks,
            "ops_per_s": ticks / elapsed,
            "p50_s": elapsed / ticks,
            "p99_s": elapsed / ticks,
            "tick_window": window,
        }
    return out


def bench_net(quick: bool) -> dict[str, dict]:
    """The TCP front door under external multi-process load: a
    single-process backend vs ≥2-worker multi-process shard placement
    (:mod:`benchmarks.bench_net`).  ``ops_per_s`` is ticks/s; p50/p99
    are per-request wire latencies from the load processes."""
    from bench_net import run_net_bench

    requests = 120 if quick else 400
    out = {}
    for name, workers in (
        ("net_tcp_single_process", 0),
        ("net_tcp_two_workers", 2),
    ):
        r = run_net_bench(workers=workers, requests=requests)
        if not r.conserved:
            raise RuntimeError(
                f"{name}: conservation violated "
                f"({r.submitted} != {r.granted} + {r.rejected})"
            )
        out[name] = {
            "group": NET,
            "calls": r.ticks,
            "ops_per_s": r.ticks_per_second,
            "p50_s": r.p50_ms / 1e3,
            "p99_s": r.p99_ms / 1e3,
            "workers": workers,
            "submitted": r.submitted,
            "granted": r.granted,
        }
    return out


def bench_reshard(quick: bool) -> dict[str, dict]:
    """Live-migration pause vs. the baseline tick on the same service
    (:mod:`benchmarks.bench_reshard`).  The gated figure is the derived
    ``reshard_stall_ticks`` — migration-pause p50 over tick-latency p50,
    i.e. how many slots of scheduling one live move displaces.  Both
    sides of the ratio run in the same process against the same worker
    pool, so machine drift cancels the way it does in the paired
    service benchmarks."""
    from bench_reshard import run_reshard_bench

    ticks = 60 if quick else 200
    r = run_reshard_bench(ticks, migrate_every=10)
    if not r.conserved:
        raise RuntimeError("reshard bench: a submission went unresolved")
    return {
        "reshard_tick_baseline": {
            "group": RESHARD,
            "calls": r.ticks,
            "ops_per_s": 1.0 / r.tick_p50_s,
            "p50_s": r.tick_p50_s,
            "p99_s": r.tick_p99_s,
        },
        "reshard_migration_pause": {
            "group": RESHARD,
            "calls": r.migrations,
            "ops_per_s": 1.0 / r.pause_p50_s,
            "p50_s": r.pause_p50_s,
            "p99_s": r.pause_p99_s,
            "payload_p50_bytes": r.payload_p50_bytes,
        },
    }


#: ``--profile`` targets: one cProfile run per benchmark suite function.
PROFILE_TARGETS = {
    "kernels": bench_kernels,
    "sweeps": bench_sweeps,
    "scheduler_cache": bench_scheduler_cache,
    "sims": bench_sims,
    "faults": bench_faults,
    "journal": bench_journal,
    "qos": bench_qos,
    "window": bench_window,
    "net": bench_net,
    "reshard": bench_reshard,
}


def run_suite(quick: bool) -> dict:
    benchmarks: dict[str, dict] = {}
    benchmarks.update(bench_kernels(quick))
    benchmarks.update(bench_sweeps(quick))
    benchmarks.update(bench_scheduler_cache(quick))
    benchmarks.update(bench_sims(quick))
    benchmarks.update(bench_faults(quick))
    benchmarks.update(bench_journal(quick))
    benchmarks.update(bench_qos(quick))
    benchmarks.update(bench_window(quick))
    benchmarks.update(bench_net(quick))
    benchmarks.update(bench_reshard(quick))
    # Steady-state ratio: p50 excludes the fast engine's single cold-cache
    # call (its p99), which would otherwise drag a mean-based comparison.
    speedup = (
        benchmarks["full_sim_multislot"]["p50_s"]
        / benchmarks["fast_sim_multislot"]["p50_s"]
    )
    journal_overhead = benchmarks["service_tick_journal_mem"][
        "overhead_vs_nodur"
    ]
    qos_overhead = benchmarks["service_tick_qos"][
        "overhead_vs_single_tenant"
    ]
    net_speedup = (
        benchmarks["net_tcp_two_workers"]["ops_per_s"]
        / benchmarks["net_tcp_single_process"]["ops_per_s"]
    )
    return {
        "meta": {
            "version": 3,
            "quick": quick,
            "python": platform.python_version(),
            "numpy": np.__version__,
            # The honest basis of the net gate: with one CPU the worker
            # processes time-share a core and multi-process ticks/s
            # legitimately trails single-process.
            "cpus": os.cpu_count(),
        },
        "benchmarks": benchmarks,
        "derived": {
            "multislot_speedup": speedup,
            "journal_mem_overhead": journal_overhead,
            "qos_overhead": qos_overhead,
            "net_multiproc_speedup": net_speedup,
            "window_amortization": (
                benchmarks["service_burst_w8"]["ops_per_s"]
                / benchmarks["service_burst_w1"]["ops_per_s"]
            ),
            "reshard_stall_ticks": (
                benchmarks["reshard_migration_pause"]["p50_s"]
                / benchmarks["reshard_tick_baseline"]["p50_s"]
            ),
        },
    }


def compare(current: dict, baseline: dict, threshold: float) -> list[str]:
    """Regression messages for gated (kernel-group) benchmarks; empty = pass."""
    failures = []
    for name, base in baseline["benchmarks"].items():
        if base.get("group") != KERNEL:
            continue
        now = current["benchmarks"].get(name)
        if now is None:
            failures.append(f"{name}: missing from current run")
            continue
        floor = base["ops_per_s"] * (1.0 - threshold)
        if now["ops_per_s"] < floor:
            failures.append(
                f"{name}: {now['ops_per_s']:.1f} ops/s < "
                f"{floor:.1f} ({base['ops_per_s']:.1f} - {threshold:.0%})"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None,
                        help="write the run's JSON document here")
    parser.add_argument("--quick", action="store_true",
                        help="reduced repeat counts (CI mode)")
    parser.add_argument("--compare", type=Path, default=None,
                        help="baseline JSON; exit 1 on kernel regression")
    parser.add_argument("--threshold", type=float,
                        default=REGRESSION_THRESHOLD,
                        help="allowed fractional ops/s drop (default 0.30)")
    parser.add_argument("--min-speedup", type=float,
                        default=MIN_MULTISLOT_SPEEDUP,
                        help="required fast/full multi-slot ratio (default 5)")
    parser.add_argument("--max-journal-overhead", type=float,
                        default=MAX_JOURNAL_OVERHEAD,
                        help="allowed in-memory journal p50 tick-latency "
                             "overhead vs durability off (default 0.10)")
    parser.add_argument("--max-qos-overhead", type=float,
                        default=MAX_QOS_OVERHEAD,
                        help="allowed multi-tenant QoS p50 tick-latency "
                             "overhead vs a single-tenant service "
                             "(default 0.10)")
    parser.add_argument("--min-net-speedup", type=float,
                        default=MIN_NET_SPEEDUP,
                        help="required two-worker/single-process TCP "
                             "ticks/s ratio; only enforced when "
                             "os.cpu_count() > 1 (default 1.0)")
    parser.add_argument("--max-reshard-stall", type=float,
                        default=MAX_RESHARD_STALL_TICKS,
                        help="allowed live-migration pause, measured in "
                             "baseline ticks displaced per move "
                             "(default 20)")
    parser.add_argument("--profile", metavar="SUITE", default=None,
                        choices=sorted(PROFILE_TARGETS),
                        help="profile one benchmark suite under cProfile, "
                             "write <SUITE>.pstats, and exit (choices: "
                             + ", ".join(sorted(PROFILE_TARGETS)) + ")")
    args = parser.parse_args(argv)

    if args.profile:
        target = PROFILE_TARGETS[args.profile]
        profiler = cProfile.Profile()
        profiler.enable()
        target(args.quick)
        profiler.disable()
        out = Path(f"{args.profile}.pstats")
        profiler.dump_stats(out)
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)
        print(f"wrote {out}")
        return 0

    result = run_suite(args.quick)
    for name, b in sorted(result["benchmarks"].items()):
        print(
            f"{name:24s} [{b['group']:6s}] {b['ops_per_s']:12.1f} ops/s  "
            f"p50 {b['p50_s'] * 1e3:8.3f} ms  p99 {b['p99_s'] * 1e3:8.3f} ms"
        )
    speedup = result["derived"]["multislot_speedup"]
    print(f"multislot speedup (fast vs full engine): {speedup:.1f}x")
    journal_overhead = result["derived"]["journal_mem_overhead"]
    print(
        f"in-memory journal tick-latency overhead: {journal_overhead:+.1%}"
    )
    qos_overhead = result["derived"]["qos_overhead"]
    print(
        f"multi-tenant QoS tick-latency overhead: {qos_overhead:+.1%}"
    )
    net_speedup = result["derived"]["net_multiproc_speedup"]
    cpus = result["meta"]["cpus"]
    print(
        f"TCP two-worker vs single-process ticks/s: {net_speedup:.2f}x "
        f"({cpus} cpu{'s' if cpus != 1 else ''})"
    )
    print("sweep ms/call (k=16):   rows   scalar  vectorized  scalar/vectorized")
    for rows in SWEEP_ROWS:
        scalar = result["benchmarks"][f"sweep_fa_scalar_m{rows}"]
        vector = result["benchmarks"][f"sweep_fa_vectorized_m{rows}"]
        print(
            f"  fa  {rows:20d} {scalar['p50_s'] * 1e3:8.3f} "
            f"{vector['p50_s'] * 1e3:11.3f} "
            f"{scalar['p50_s'] / vector['p50_s']:18.2f}x"
        )
    for rows in SWEEP_ROWS:
        scalar = result["benchmarks"][f"sweep_bfa_scalar_m{rows}"]
        print(f"  bfa {rows:20d} {scalar['p50_s'] * 1e3:8.3f}")
    window_gain = result["derived"]["window_amortization"]
    print(f"tick-window amortization (W=8 vs W=1 ticks/s): {window_gain:.2f}x")
    stall = result["derived"]["reshard_stall_ticks"]
    print(f"live-migration pause: {stall:.1f} baseline ticks per move")

    if args.out:
        args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")

    status = 0
    if speedup < args.min_speedup:
        print(f"FAIL: multislot speedup {speedup:.1f}x < {args.min_speedup}x")
        status = 1
    if journal_overhead > args.max_journal_overhead:
        print(
            f"FAIL: journal overhead {journal_overhead:.1%} > "
            f"{args.max_journal_overhead:.0%}"
        )
        status = 1
    if qos_overhead > args.max_qos_overhead:
        print(
            f"FAIL: QoS overhead {qos_overhead:.1%} > "
            f"{args.max_qos_overhead:.0%}"
        )
        status = 1
    if stall > args.max_reshard_stall:
        print(
            f"FAIL: live-migration stall {stall:.1f} ticks/move > "
            f"{args.max_reshard_stall}"
        )
        status = 1
    if cpus is not None and cpus > 1:
        if net_speedup < args.min_net_speedup:
            print(
                f"FAIL: net multi-process speedup {net_speedup:.2f}x < "
                f"{args.min_net_speedup}x"
            )
            status = 1
    else:
        print(
            "net speedup gate skipped: single-CPU machine "
            "(worker processes time-share one core)"
        )
    if args.compare:
        baseline = json.loads(args.compare.read_text())
        failures = compare(result, baseline, args.threshold)
        for f in failures:
            print(f"REGRESSION: {f}")
        if failures:
            status = 1
        else:
            print(f"no kernel regressions vs {args.compare}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
