"""The scheduling stack's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

One run builds the program from this checkout's ``src/``, drives one
workload (see ``workloads.py``) for ``--seconds`` of measurement, checks
every outcome against a reference computed for the same seed, and prints
one JSON object as its last line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with no tracing.
``--trace 1`` reports the per-layer metrics of a traced run, plus its
tracing overhead against an untraced capacity phase.  ``--workload all``
runs every workload untraced, prints every end-to-end metric by name with
its unit, and exits 1 when any correctness check fails.  A run whose
checks fail prints ``"correct": false`` and exits 1.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Share of ``--seconds`` given to each phase of a TCP run (sim-perfd has
#: only the capacity phase).
CAPACITY_SHARE = 0.5
OPEN_SHARE = 0.5
#: Untraced TCP runs alternate the two phases in this many blocks each.
PHASE_BLOCKS = 5
#: Seconds between two probes of the machine's speed in a capacity phase.
PROBE_EVERY_S = 0.1
#: Traced runs: untraced capacity (overhead baseline), traced capacity,
#: traced open loop.  sim-perfd gives the open loop's share to its traced
#: capacity phase.
TRACED_SHARES = (0.25, 0.45, 0.30)
#: Program launches per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Hard stop for one run (the contract allows 180 s).
RUN_DEADLINE_S = 170
#: Reject reasons that make a request *fail* (not just lose contention).
ERROR_REASONS = ("unavailable", "shard_down", "shutdown", "timed_out")

END_TO_END_UNITS = {
    "setup_s": "s",
    "slots_per_s": "1/s",
    "slot_p50_ms": "ms",
    "slot_p90_ms": "ms",
    "lat_p50_ms": "ms",
    "lat_p90_ms": "ms",
    "cpu_ms_per_slot": "ms",
    "rss_mb": "MB",
}


class BenchError(Exception):
    """The run could not complete (no result is printed)."""


# -- /proc accounting ---------------------------------------------------------

_CLK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str]:
    with open(f"/proc/{pid}/stat") as fh:
        return fh.read().rsplit(")", 1)[1].split()


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid``."""
    parent_of = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                parent_of[int(entry)] = int(_stat_fields(int(entry))[1])
            except (OSError, IndexError, ValueError):
                continue
    found, frontier = [], [pid]
    while frontier:
        p = frontier.pop()
        kids = [c for c, pp in parent_of.items() if pp == p]
        found.extend(kids)
        frontier.extend(kids)
    return found


def cpu_s(pids) -> float:
    """User + system CPU seconds of ``pids`` (all threads)."""
    total = 0
    for pid in pids:
        try:
            f = _stat_fields(pid)
        except OSError:
            continue
        total += int(f[11]) + int(f[12])
    return total / _CLK


def peak_rss_mb(pids) -> float:
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024


def self_cpu_s() -> float:
    t = os.times()
    return t.user + t.system


# -- the program's process ----------------------------------------------------


class Program:
    """One ``serve.py`` process (plus any workers it spawns)."""

    def __init__(self, workload: str, *, seed: int = 0, trace: bool = False,
                 spans: str | None = None) -> None:
        cmd = [sys.executable, str(HERE / "serve.py"), "--workload", workload,
               "--seed", str(seed)]
        if trace:
            cmd.append("--trace")
        if spans:
            cmd += ["--spans", spans]
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT, start_new_session=True,
        )
        try:
            self.ready = self._read()
        except BaseException:
            self.kill()
            raise
        self.ready_at = time.perf_counter()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(
                f"program exited with code {self.proc.wait()} before replying"
            )
        return json.loads(line)

    def command(self, cmd: str, **kw) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd, **kw}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    @property
    def pids(self) -> list[int]:
        return [self.proc.pid, *descendants(self.proc.pid)]

    def stop(self) -> None:
        """Ask for a clean shutdown; kill the process group if it lingers."""
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write(json.dumps({"cmd": "stop"}) + "\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            self.kill()

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


# -- statistics ---------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile: a Beta-weighted mean of
    every order statistic instead of the one or two nearest ``q``, so a
    tail quantile moves less with the few slowest samples of a run."""
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n == 1:
        return float(x[0])
    weights = np.diff(betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


def _delta(after: dict, before: dict, name: str) -> list[int]:
    a = after["stats"].get(name, [0, 0, 0])
    b = before["stats"].get(name, [0, 0, 0])
    return [x - y for x, y in zip(a, b)]


# -- TCP workloads ------------------------------------------------------------


# A ledger is the list, slot by slot, of the futures of every request the
# client sent in that slot (in arrival order).


async def closed_loop(client, stream, ledger, *, seconds=None, slots=None,
                      marks=None):
    """One slot in flight at a time: send its arrivals and TICK_ADVANCE,
    wait for every outcome and the TICK_DONE.  Returns each slot's time.
    With ``marks``, probe the machine's speed between slots every
    ``PROBE_EVERY_S`` and after the last, as ``(slot index, probe ns)``."""
    from hostspeed import probe_ns

    times = []
    t_end = None if seconds is None else time.perf_counter() + seconds
    next_probe = 0.0
    while True:
        if slots is not None and len(times) >= slots:
            break
        if t_end is not None and time.perf_counter() >= t_end:
            break
        if marks is not None and time.perf_counter() >= next_probe:
            marks.append((len(times), probe_ns(every_cpu=True)))
            next_probe = time.perf_counter() + PROBE_EVERY_S
        reqs = stream.next_requests()
        t0 = time.perf_counter()
        futs = [client.submit_nowait(r) for r in reqs]
        ledger.append(futs)
        await client.tick()
        await asyncio.gather(*futs, return_exceptions=True)
        times.append(time.perf_counter() - t0)
    if marks is not None:
        marks.append((len(times), probe_ns(every_cpu=True)))
    return times


async def open_loop(client, stream, ledger, rate: float, seconds: float):
    """Slots fire every ``1/rate`` s whatever the replies; every request is
    timed from its slot's due time until its GRANT or REJECT arrives."""
    n = max(1, int(rate * seconds))
    lat: list[float] = []
    late: list[float] = []
    ticks = []
    clock = time.perf_counter

    def done(_fut, due):
        lat.append(clock() - due)

    t0 = clock() + 0.02
    for i in range(n):
        reqs = stream.next_requests()
        due = t0 + i / rate
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        late.append(clock() - due)
        futs = [client.submit_nowait(r) for r in reqs]
        for f in futs:
            f.add_done_callback(lambda fut, due=due: done(fut, due))
        ledger.append(futs)
        ticks.append(asyncio.ensure_future(client.tick()))
        # Let the tick task send its TICK_ADVANCE before the next slot's
        # SUBMITs, so every slot's requests are scheduled in that slot.
        await asyncio.sleep(0)
    await asyncio.gather(*ticks)
    await asyncio.gather(*(f for s in ledger[-n:] for f in s),
                         return_exceptions=True)
    return lat, late


async def launch(wl, *, trace=False, spans=None):
    """Start the program and complete the client handshake."""
    from repro.net.client import NetClient

    program = Program(wl.name, trace=trace, spans=spans)
    try:
        client = await NetClient.connect("127.0.0.1", program.ready["port"])
    except BaseException:
        program.kill()
        raise
    return program, client, time.perf_counter() - program.launched


def check_tcp(wl, seed: int, ledger: list, counters: dict) -> dict:
    """Conservation, failures and grants against the reference."""
    from repro.net import protocol as proto
    from reference import BLOCKED, CONTENTION, tcp_reference
    from repro.service.server import RejectReason

    ref = tcp_reference(wl, seed, len(ledger))
    failed = mismatched = 0
    for slot, (futs, codes) in enumerate(zip(ledger, ref)):
        if len(futs) != len(codes):
            mismatched += abs(len(futs) - len(codes))
        for fut, code in zip(futs, codes):
            # Unresolved, cancelled or answered with an ERROR frame / a
            # lost connection: the request failed.
            if not fut.done() or fut.cancelled() or fut.exception():
                failed += 1
                continue
            out = fut.result()
            if isinstance(out, proto.Grant):
                if (out.channel, out.slot) != (code, slot):
                    mismatched += 1
            elif out.reason.value in ERROR_REASONS:
                failed += 1
            elif not (
                (out.reason is RejectReason.CONTENTION and code == CONTENTION)
                or (out.reason is RejectReason.SOURCE_BLOCKED and code == BLOCKED)
            ) or out.slot != slot:
                mismatched += 1
    submitted = sum(len(futs) for futs in ledger)
    outcomes = counters.get("server.granted", 0) + sum(
        v for k, v in counters.items()
        if k.startswith("server.rejected.")
        or k in ("server.dropped", "server.timed_out", "server.shutdown",
                 "server.duplicate")
    )
    conserved = (
        counters.get("server.submitted") == submitted and outcomes == submitted
    )
    return {
        "attempted": submitted,
        "failed": failed,
        "mismatched": mismatched,
        "conserved": conserved,
        "correct": conserved and failed == 0 and mismatched == 0,
    }


async def run_tcp(wl, seed: int, seconds: float) -> tuple[dict, dict]:
    from hostspeed import factors, probe_ns, scale
    from workloads import ArrivalStream

    setups, setup_probes = [], []
    program = client = None
    try:
        for rep in range(SETUP_REPS):
            setup_probes.append(probe_ns(every_cpu=True))
            program, client, setup = await launch(wl)
            setups.append(setup)
            if rep < SETUP_REPS - 1:
                await client.close()
                program.stop()
        setup_probes.append(probe_ns(every_cpu=True))
        stream = ArrivalStream(wl, seed)
        ledger = []
        await closed_loop(client, stream, ledger, slots=wl.warmup_slots)
        pids0 = program.pids
        raw = {"times": [], "lat": [], "cpu": 0.0}
        times, cpu, blocks = [], 0.0, []
        # The phases alternate in blocks, so that each one samples the
        # whole run and not only one half of the machine's slower and
        # faster minutes.
        for _ in range(PHASE_BLOCKS):
            marks = []
            cpu0 = cpu_s(pids0)
            block = await closed_loop(
                client, stream, ledger,
                seconds=seconds * CAPACITY_SHARE / PHASE_BLOCKS, marks=marks,
            )
            block_cpu = cpu_s(pids0) - cpu0
            scaled = [t * f for t, f in zip(block, factors(len(block), marks))]
            raw["times"] += block
            raw["cpu"] += block_cpu
            times += scaled
            cpu += block_cpu * sum(scaled) / sum(block)
            block_lat, _late = await open_loop(
                client, stream, ledger, wl.open_rate,
                seconds * OPEN_SHARE / PHASE_BLOCKS,
            )
            blocks.append(
                ([p for _, p in marks] + [probe_ns(every_cpu=True)], block_lat)
            )
        rss = peak_rss_mb(program.pids)
        counters = program.command("stats")["counters"]
        await client.close()
        client = None
    finally:
        if client is not None:
            await client.close()
        if program is not None:
            program.stop()
    check = check_tcp(wl, seed, ledger, counters)
    # An open-loop block is scaled by the probes of the capacity blocks on
    # either side of it: one or two probes alone are too noisy.
    lat = []
    for i, (probes, block_lat) in enumerate(blocks):
        around = probes + (blocks[i + 1][0] if i + 1 < len(blocks) else [])
        raw["lat"] += block_lat
        factor = scale(around)
        lat += [x * factor for x in block_lat]
    setup = statistics.median(setups)
    metrics = timing_metrics(times, lat, cpu) | {
        "setup_s": setup * scale(setup_probes),
        "rss_mb": rss,
    }
    facts = {
        "capacity_slots": len(times),
        "open_loop_slots": len(ledger) - wl.warmup_slots - len(times),
        "open_loop_requests": len(lat),
        "slot_p99_ms": quantile(times, 0.99) * 1e3,
        "lat_p99_ms": quantile(lat, 0.99) * 1e3,
        "processes": len(pids0),
        "unscaled": timing_metrics(raw["times"], raw["lat"], raw["cpu"])
        | {"setup_s": setup},
        "host_probe_ms": probe_summary(
            setup_probes + [p for probes, _ in blocks for p in probes]
        ),
    }
    return check, metrics | {"_facts": facts}


def timing_metrics(times, lat, cpu_s_total) -> dict:
    """The end-to-end timing metrics of capacity-phase slot times
    ``times`` (s), request latencies ``lat`` (s) and the program's CPU
    seconds over the capacity phase."""
    return {
        "slots_per_s": len(times) / sum(times),
        "slot_p50_ms": quantile(times, 0.5) * 1e3,
        "slot_p90_ms": quantile(times, 0.9) * 1e3,
        "lat_p50_ms": quantile(lat, 0.5) * 1e3,
        "lat_p90_ms": quantile(lat, 0.9) * 1e3,
        "cpu_ms_per_slot": cpu_s_total / len(times) * 1e3,
    }


def probe_summary(probes) -> dict:
    from hostspeed import REFERENCE_NS

    return {
        "reference": REFERENCE_NS / 1e6,
        "median": statistics.median(probes) / 1e6,
        "min": min(probes) / 1e6,
        "max": max(probes) / 1e6,
    }


def _client_tracer():
    from repro.net import client as net_client
    from repro.net import protocol
    from repro.net.client import NetClient
    from repro.util.framing import FrameDecoder
    from serve import install_codec_tracing
    from tracing import Tracer

    tracer = Tracer(keep=0)
    tracer.wrap(NetClient, "submit_nowait", "net.client.submit_nowait")
    install_codec_tracing(tracer, (net_client,), protocol, FrameDecoder)
    return tracer


async def run_tcp_traced(wl, seed: int, seconds: float):
    from workloads import ArrivalStream

    base_share, cap_share, open_share = TRACED_SHARES
    # Untraced capacity baseline for the tracing overhead.
    program, client, _ = await launch(wl)
    try:
        stream = ArrivalStream(wl, seed)
        await closed_loop(client, stream, [], slots=wl.warmup_slots)
        base_times = await closed_loop(
            client, stream, [], seconds=seconds * base_share
        )
        await client.close()
    finally:
        program.stop()

    spans = os.environ.get("PERFBENCH_SPANS")
    tracer = _client_tracer()
    program = client = None
    try:
        program, client, _ = await launch(wl, trace=True, spans=spans)
        stream = ArrivalStream(wl, seed)
        ledger = []
        await closed_loop(client, stream, ledger, slots=wl.warmup_slots)
        pids = program.pids
        s0 = program.command("stats")
        c0 = tracer.summary()
        cpu0, own0 = cpu_s(pids), self_cpu_s()
        workers0 = [p for p in pids if p != program.proc.pid]
        wcpu0 = cpu_s(workers0)
        times = await closed_loop(
            client, stream, ledger, seconds=seconds * cap_share
        )
        cpu1, own1, wcpu1 = cpu_s(pids), self_cpu_s(), cpu_s(workers0)
        s1 = program.command("stats")
        c1 = tracer.summary()
        _lat, late = await open_loop(
            client, stream, ledger, wl.open_rate, seconds * open_share
        )
        s2 = program.command("stats")
        pids_end = program.pids
        await client.close()
        client = None
    finally:
        tracer.unwrap_all()
        if client is not None:
            await client.close()
        if program is not None:
            program.stop()
    check = check_tcp(wl, seed, ledger, s2["counters"])
    n = len(times)
    slots_per_s = n / sum(times)
    m = layer_metrics_tcp(
        wl, n, s0, s1, s2, c0, c1,
        server_cpu=(cpu1 - cpu0) - (wcpu1 - wcpu0),
        worker_cpu=wcpu1 - wcpu0,
        respawns=len(set(pids_end) - set(pids)),
    )
    m["loadgen.late_p99_ms"] = quantile(late, 0.99) * 1e3
    m["loadgen.cpu_ms_per_slot"] = (own1 - own0) / n * 1e3
    m["trace.slots_per_s_ratio"] = slots_per_s / (len(base_times) / sum(base_times))
    m["error_ratio"] = check["failed"] / max(1, check["attempted"])
    return check, m


REASONS = (
    "contention", "source_blocked", "queue_full", "dropped", "timed_out",
    "shutdown", "shard_down", "circuit_open", "duplicate", "admission_shed",
    "rate_limited", "unavailable",
)
_REASON_COUNTERS = {
    "dropped": "server.dropped",
    "timed_out": "server.timed_out",
    "shutdown": "server.shutdown",
    "duplicate": "server.duplicate",
}


def layer_metrics_tcp(wl, n, s0, s1, s2, c0, c1, *, server_cpu, worker_cpu,
                      respawns) -> dict:
    """Per-layer metrics of the traced capacity phase (``n`` slots)."""
    t0, t1 = s0["trace"], s1["trace"]

    def d(name):
        return _delta(t1, t0, name)

    def mean_us(name, summaries=((t1, t0),)):
        count = total = 0
        for a, b in summaries:
            c, t, _ = _delta(a, b, name)
            count += c
            total += t
        return total / count / 1e3 if count else 0.0

    def count(name, a=t1, b=t0):
        return a["counts"].get(name, 0) - b["counts"].get(name, 0)

    def counter(name):
        return s1["counters"].get(name, 0) - s0["counters"].get(name, 0)

    def pct(samples, q, scale=1e6):
        return quantile(samples, q) / scale if samples else 0.0

    both = ((t1, t0), (c1, c0))
    m = {}
    m["net.client.submit_us"] = mean_us(
        "net.client.submit_nowait", summaries=((c1, c0),)
    )
    m["net.protocol.encode_us"] = mean_us(
        "net.protocol.encode_message", summaries=both
    )
    m["net.protocol.decode_us"] = mean_us(
        "net.protocol.decode_message", summaries=both
    )
    m["net.protocol.msgs_per_slot"] = (
        count("protocol.messages") + count("protocol.messages", c1, c0)
    ) / n
    m["util.framing.encode_us"] = mean_us(
        "util.framing.encode_frame", summaries=both
    )
    m["util.framing.feed_us"] = mean_us("util.framing.feed", summaries=both)
    m["util.framing.bytes_per_slot"] = (
        count("framing.bytes") + count("framing.bytes", c1, c0)
    ) / n
    # Outermost spans are wall time; the time a procservice tick spends
    # awaiting its workers' RPCs is not this process's CPU.
    root_ns = (t1["root_ns"] - t0["root_ns"]) - count(
        "net.procservice.tick.waiting_ns"
    )
    m["net.server.self_ms_per_slot"] = (server_cpu * 1e9 - root_ns) / n / 1e6
    m["trace.span_share_of_server_cpu"] = (
        root_ns / (server_cpu * 1e9) if server_cpu else 0.0
    )
    m["python.gc.ms_per_slot"] = (t1["gc_ns"] - t0["gc_ns"]) / n / 1e6

    workers = wl.backend == "workers"
    front = "net.procservice" if workers else "service.server"
    m["service.server.submit_us"] = mean_us(f"{front}.submit_nowait")
    tick = d(f"{front}.tick")
    m["service.server.tick_self_ms"] = (
        0.0 if workers or not tick[0] else tick[2] / tick[0] / 1e6
    )
    ticks_ms = t1["samples"].get(f"{front}.tick", [])
    m["service.server.tick_ms_p50"] = pct(ticks_ms, 0.5)
    m["service.server.tick_ms_p99"] = pct(ticks_ms, 0.99)
    m["service.server.slow_tick_gc_share"] = slow_gc_share(
        ticks_ms, t1["sample_gc"].get(f"{front}.tick", [])
    )
    resolve = d("service.edge.resolve")
    rejected = d("service.edge.resolve_rejected")
    m["service.edge.resolve_us"] = (
        (resolve[1] + rejected[2]) / resolve[0] / 1e3 if resolve[0] else 0.0
    )
    for reason in REASONS:
        name = _REASON_COUNTERS.get(reason, f"server.rejected.{reason}")
        m[f"service.edge.rejected.{reason}"] = counter(name) / n
    m["service.queue.offer_us"] = mean_us("service.queue.offer")
    m["service.queue.drain_us"] = mean_us("service.queue.drain")
    waits = s2["trace"]["samples"].get("service.queue.wait", [])
    m["service.queue.wait_ms_p50"] = pct(waits, 0.5)
    m["service.queue.wait_ms_p99"] = pct(waits, 0.99)
    m["service.tickloop.admit_us_per_tick"] = d("service.tickloop.admit")[1] / n / 1e3
    drained = count("tickloop.drained")
    m["service.tickloop.blocked_ratio"] = (
        count("tickloop.blocked") / drained if drained else 0.0
    )
    for name in ("schedule", "commit", "advance"):
        m[f"service.shard.{name}_us"] = mean_us(f"service.shard.{name}")
    m["core.distributed.schedule_output_fiber_us"] = mean_us(
        "core.distributed.schedule_output_fiber"
    )
    m["core.distributed.distribute_grants_us"] = mean_us(
        "core.distributed.distribute_grants"
    )
    m["core.base.validate_schedule_us"] = mean_us("core.base.validate_schedule")
    m["graphs.request_graph.from_wavelengths_us"] = mean_us(
        "graphs.request_graph.from_wavelengths"
    )
    m["core.scheduler.schedule_us"] = mean_us("core.scheduler.schedule")
    asked = count("scheduler.requests")
    m["core.scheduler.grant_ratio"] = (
        count("scheduler.grants") / asked if asked else 0.0
    )
    m["core.policies.select_us"] = mean_us("core.policies.select")
    memo_metrics(m, s0.get("memo"), s1.get("memo"), n)
    journal_ns = sum(
        d(name)[2] for name in t1["stats"] if name.startswith("service.journal.")
    )
    m["service.journal.us_per_slot"] = journal_ns / n / 1e3
    m["service.journal.records_per_slot"] = (
        counter("durability.journal.records") / n
    )
    m["service.journal.bytes_per_slot"] = counter("durability.journal.bytes") / n
    snaps = t1["samples"].get("service.durability.take_snapshot", [])
    m["service.durability.snapshot_ms_p50"] = pct(snaps, 0.5)
    m["service.durability.snapshot_ms_p99"] = pct(snaps, 0.99)

    ptick = d("net.procservice.tick")
    m["net.procservice.tick_self_ms"] = ptick[2] / ptick[0] / 1e6 if ptick[0] else 0.0
    rpcs = t1["samples"].get("net.procpool.call_async", [])
    m["net.procpool.rpc_ms_p50"] = pct(rpcs, 0.5)
    m["net.procpool.rpc_ms_p99"] = pct(rpcs, 0.99)
    m["net.procpool.rpcs_per_slot"] = d("net.procpool.call_async")[0] / n
    m["net.procpool.wait_ms_per_slot"] = (
        count("net.procservice.tick.waiting_ns") / n / 1e6
    )
    m["net.procpool.worker_cpu_ms_per_slot"] = (
        worker_cpu / n * 1e3 if workers else 0.0
    )
    m["net.procpool.respawns"] = respawns
    return m


def slow_gc_share(durations, gc_pauses) -> float:
    """Of the time the slowest 5% of ticks spend above the median tick,
    the share that is garbage-collection pause inside those ticks."""
    if len(durations) < 20:
        return 0.0
    median = quantile(durations, 0.5)
    cut = quantile(durations, 0.95)
    excess = gc = 0
    for dur, pause in zip(durations, gc_pauses):
        if dur >= cut:
            excess += dur - median
            gc += pause
    return gc / excess if excess else 0.0


def memo_metrics(m, before, after, n) -> None:
    if before is None or after is None:
        hits = misses = evictions = 0
    else:
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        evictions = after["evictions"] - before["evictions"]
    lookups = hits + misses
    m["core.memo.hit_ratio"] = hits / lookups if lookups else 0.0
    m["core.memo.lookups_per_slot"] = lookups / n
    m["core.memo.evictions_per_slot"] = evictions / n


# -- sim-perfd ----------------------------------------------------------------


def check_sim(wl, seed, cap: dict) -> dict:
    from reference import sim_reference
    from workloads import SIM_SLOTS

    granted, offered = sim_reference(wl, seed, SIM_SLOTS)
    reps = cap["reps"]
    mismatched = sum(rep != granted[: len(rep)] for rep in reps)
    totals_equal = all(sum(rep) == sum(granted[: len(rep)]) for rep in reps)
    attempted = sum(sum(offered[: len(rep)]) for rep in reps)
    return {
        "attempted": attempted,
        "failed": 0,
        "mismatched": mismatched,
        "conserved": totals_equal,
        "correct": mismatched == 0 and totals_equal,
    }


def run_sim(wl, seed: int, seconds: float):
    import numpy as np

    from hostspeed import factors, probe_ns, scale

    setups, setup_probes = [], []
    program = None
    try:
        for rep in range(SETUP_REPS):
            setup_probes.append(probe_ns(every_cpu=True))
            program = Program(wl.name, seed=seed)
            setups.append(program.ready_at - program.launched)
            if rep < SETUP_REPS - 1:
                program.stop()
        setup_probes.append(probe_ns(every_cpu=True))
        pids = program.pids
        cpu0 = cpu_s(pids)
        cap = program.command("capacity", seconds=seconds)
        cpu1 = cpu_s(pids)
        rss = peak_rss_mb(pids)
    finally:
        if program is not None:
            program.stop()
    check = check_sim(wl, seed, cap)
    raw = np.asarray(cap["slot_ns"], dtype=float) / 1e9
    slot_s = raw * factors(raw.size, cap["marks"])
    # The probes ran in the program's process: their time is not its work.
    probes = [p for _, p in cap["marks"]]
    cpu = cpu1 - cpu0 - sum(probes) / 1e9
    # The simulator decides every request of a slot when that slot's step
    # returns: a request's latency is its slot's step time.
    metrics = timing_metrics(
        slot_s, np.repeat(slot_s, cap["requests"]),
        cpu * slot_s.sum() / raw.sum(),
    ) | {
        "setup_s": statistics.median(setups) * scale(setup_probes),
        "rss_mb": rss,
        "_facts": {
            "capacity_slots": int(slot_s.size),
            "slot_p99_ms": quantile(slot_s, 0.99) * 1e3,
            "processes": 1,
            "unscaled": timing_metrics(
                raw, np.repeat(raw, cap["requests"]), cpu
            ) | {"setup_s": statistics.median(setups)},
            "host_probe_ms": probe_summary(setup_probes + probes),
        },
    }
    return check, metrics


def run_sim_traced(wl, seed: int, seconds: float):
    base_share = TRACED_SHARES[0]
    program = Program(wl.name, seed=seed)
    try:
        base = program.command("capacity", seconds=seconds * base_share)
    finally:
        program.stop()
    spans = os.environ.get("PERFBENCH_SPANS")
    program = Program(wl.name, seed=seed, trace=True, spans=spans)
    try:
        s0 = program.command("stats")
        own0 = self_cpu_s()
        cap = program.command("capacity", seconds=seconds * (1 - base_share))
        own1 = self_cpu_s()
        s1 = program.command("stats")
    finally:
        program.stop()
    check = check_sim(wl, seed, cap)
    n = len(cap["slot_ns"])
    t0, t1 = s0["trace"], s1["trace"]

    def mean_us(name):
        c, t, _ = _delta(t1, t0, name)
        return t / c / 1e3 if c else 0.0

    m = {}
    m["sim.fast.step_us"] = mean_us("sim.fast.step")
    m["sim.traffic.arrivals_us"] = mean_us("sim.traffic.arrivals_batch")
    m["core.kernels.batch_us"] = mean_us("core.kernels.batch")
    calls = _delta(t1, t0, "core.kernels.batch")[0]
    rows = t1["counts"].get("kernels.rows", 0) - t0["counts"].get("kernels.rows", 0)
    m["core.kernels.rows_per_call"] = rows / calls if calls else 0.0
    memo_metrics(m, s0["memo"], s1["memo"], n)
    m["sim.fast.row_cache_hit_ratio"] = m["core.memo.hit_ratio"]
    m["python.gc.ms_per_slot"] = (t1["gc_ns"] - t0["gc_ns"]) / n / 1e6
    m["loadgen.cpu_ms_per_slot"] = (own1 - own0) / n * 1e3
    base_rate = len(base["slot_ns"]) / (sum(base["slot_ns"]) / 1e9)
    m["trace.slots_per_s_ratio"] = n / (sum(cap["slot_ns"]) / 1e9) / base_rate
    m["error_ratio"] = 0.0
    return check, m


# -- reporting ----------------------------------------------------------------


def run_facts(wl, trace: bool) -> dict:
    import numpy

    from repro.core import kernels

    return {
        "workload": wl.name,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernels.get_backend().name,
        "transport": "TCP over loopback 127.0.0.1" if wl.tcp else "none (in-process)",
        "traced": trace,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool):
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    # The load generator must not add pauses of its own to what it times:
    # no cyclic garbage collection in this process during a run.
    gc.collect()
    gc.disable()
    try:
        if wl.tcp:
            runner = run_tcp_traced if trace else run_tcp
            check, metrics = asyncio.run(runner(wl, seed, seconds))
        else:
            runner = run_sim_traced if trace else run_sim
            check, metrics = runner(wl, seed, seconds)
    finally:
        gc.enable()
    facts = run_facts(wl, trace) | metrics.pop("_facts", {}) | {
        "mismatched": check["mismatched"], "conserved": check["conserved"],
    }
    if trace:
        facts["tracing_overhead"] = (
            f"traced slots/s = {metrics['trace.slots_per_s_ratio']:.3f} x untraced"
        )
    return check, metrics, facts


def result_line(check: dict, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": bool(check["correct"]),
        "attempted": int(check["attempted"]),
        "failed": int(check["failed"]),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    })


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(sorted(WORKLOADS))} or all", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(RUN_DEADLINE_S * len(names))
    spec = benchmark_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    units = (
        {m["name"]: m["unit"] for m in spec["per_layer"]}
        if args.trace else END_TO_END_UNITS
    )
    all_ok = True
    for name in names:
        check, metrics, facts = run_one(name, args.seed, seconds,
                                        bool(args.trace))
        for metric in units:
            # A layer this workload never crosses did no work: 0.
            metrics.setdefault(metric, 0.0)
        all_ok &= bool(check["correct"])
        print(json.dumps({"facts": facts}))
        if args.workload == "all":
            for metric, unit in units.items():
                print(f"{name:12s} {metric:28s} {metrics[metric]:14.4f} {unit}")
            print(f"{name:12s} correct={check['correct']} "
                  f"attempted={check['attempted']} failed={check['failed']}")
        else:
            print(result_line(check, metrics, units))
    return 0 if all_ok else 1


def _deadline(_signum, _frame):
    raise BenchError(f"run exceeded {RUN_DEADLINE_S} s")


if __name__ == "__main__":
    sys.exit(main())
