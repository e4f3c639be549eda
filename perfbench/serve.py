"""The program side of the benchmark: one process per workload backend.

    python3 perfbench/serve.py --workload tcp-perfd [--trace] [--spans FILE]

Builds the workload's program with default settings and prints one JSON
line ``{"ready": ...}`` on stdout once it can serve the first slot.  It
then reads JSON commands on stdin, one per line, and answers each with
one JSON line:

* ``{"cmd": "stats"}`` — cumulative telemetry, memo-cache and span
  counts (span duration samples are drained: each call returns the ones
  recorded since the previous call);
* ``{"cmd": "capacity", "seconds": S}`` — sim-perfd only: run the
  simulator's closed loop in this process for ``S`` seconds;
* ``{"cmd": "stop"}`` (or end of input) — shut down cleanly and exit.

TCP workloads serve ``NetServer`` on an ephemeral loopback port; the
benchmark's client drives every slot over the wire.  With ``--trace``
the process wraps the program's layer boundaries in spans
(:mod:`tracing`); ``--spans`` writes the raw spans there at exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import SIM_SLOTS, WORKLOADS, N_WORKERS  # noqa: E402

#: Span names whose every duration is kept (percentiles).
SAMPLED = (
    "service.durability.take_snapshot",
    "net.procpool.call_async",
    "service.server.tick",
    "net.procservice.tick",
    "service.queue.wait",
)


def _request_key(self, request, *_a, **_kw):
    return (self.slot, request.input_fiber, request.wavelength)


def _slot_key(self, *_a, **_kw):
    return self.slot


def install_server_tracing(tracer) -> None:
    """Wrap every layer boundary a slot's requests cross in this process."""
    from repro.core import distributed
    from repro.core.break_first_available import BreakFirstAvailableScheduler
    from repro.core.first_available import FirstAvailableScheduler
    from repro.core.policies import FixedPriorityPolicy
    from repro.graphs.request_graph import RequestGraph
    from repro.net import client as net_client
    from repro.net import protocol
    from repro.net import server as net_server
    from repro.net.procpool import ProcessShardPool
    from repro.net.procservice import ProcessShardedService
    from repro.service import shard as shard_mod
    from repro.service.durability import DurabilityManager
    from repro.service.edge import SubmissionEdge
    from repro.service.journal import ShardJournal
    from repro.service.queue import BoundedQueue
    from repro.service.server import SchedulingService
    from repro.service.shard import ShardWorker
    from repro.service.tickloop import InputAdmission
    from repro.util.framing import FrameDecoder

    w = tracer.wrap
    key = _request_key
    w(SchedulingService, "submit_nowait", "service.server.submit_nowait", key)
    w(SchedulingService, "tick", "service.server.tick", _slot_key)
    w(ProcessShardedService, "submit_nowait", "net.procservice.submit_nowait", key)
    w(ProcessShardedService, "tick", "net.procservice.tick", _slot_key)
    w(ProcessShardPool, "call_async", "net.procpool.call_async")
    for m in ("schedule", "commit", "advance"):
        w(ShardWorker, m, f"service.shard.{m}")

    def admitted(result, args, _kw):
        tracer.count("tickloop.drained", len(args[1]))
        tracer.count("tickloop.blocked", len(result[2]))

    w(InputAdmission, "admit", "service.tickloop.admit", after=admitted)
    w(BoundedQueue, "offer", "service.queue.offer")
    waits = tracer.samples["service.queue.wait"]

    def drained(result, _args, _kw):
        now = time.perf_counter()
        waits.extend(int((now - p.submitted_at) * 1e9) for p in result)

    w(BoundedQueue, "drain", "service.queue.drain", after=drained)
    w(SubmissionEdge, "resolve", "service.edge.resolve")
    w(SubmissionEdge, "resolve_rejected", "service.edge.resolve_rejected")
    for m in (
        "append", "accept", "dequeue", "evict", "grant_batch", "advance",
        "flush_deferred",
    ):
        w(ShardJournal, m, f"service.journal.{m}")
    w(DurabilityManager, "take_snapshot", "service.durability.take_snapshot")
    w(shard_mod, "schedule_output_fiber", "core.distributed.schedule_output_fiber")
    w(distributed, "distribute_grants", "core.distributed.distribute_grants")
    w(distributed, "validate_schedule", "core.base.validate_schedule")
    w(RequestGraph, "from_wavelengths", "graphs.request_graph.from_wavelengths")

    def scheduled(result, args, _kw):
        tracer.count("scheduler.grants", len(result.grants))
        tracer.count("scheduler.requests", sum(args[1].request_vector))

    for cls in (BreakFirstAvailableScheduler, FirstAvailableScheduler):
        w(cls, "schedule", "core.scheduler.schedule", after=scheduled)
    w(FixedPriorityPolicy, "select_requests", "core.policies.select")
    install_codec_tracing(tracer, (net_server, net_client), protocol, FrameDecoder)
    tracer.track_gc()


def install_codec_tracing(tracer, frame_users, protocol, frame_decoder) -> None:
    """Wrap the wire codec (used by both the server and the client)."""

    def message(_result, _args, _kw):
        tracer.count("protocol.messages")

    def framed(result, _args, _kw):
        tracer.count("framing.bytes", len(result))

    tracer.wrap(protocol, "encode_message", "net.protocol.encode_message", after=message)
    tracer.wrap(protocol, "decode_message", "net.protocol.decode_message")
    for module in frame_users:
        tracer.wrap(module, "encode_frame", "util.framing.encode_frame", after=framed)
    tracer.wrap(frame_decoder, "feed", "util.framing.feed")


def install_sim_tracing(tracer) -> None:
    from repro.sim import fast
    from repro.sim.traffic import BernoulliTraffic

    def rows(_result, args, _kw):
        tracer.count("kernels.rows", args[0].shape[0])

    tracer.wrap(fast.FastPacketSimulator, "step", "sim.fast.step")
    tracer.wrap(BernoulliTraffic, "arrivals_batch", "sim.traffic.arrivals_batch")
    for fn in ("batch_break_first_available", "batch_first_available"):
        tracer.wrap(fast, fn, "core.kernels.batch", after=rows)
    tracer.track_gc()


# -- building the program -----------------------------------------------------


def build_service(wl):
    if wl.backend == "workers":
        from repro.net.procservice import ProcessShardedService

        return ProcessShardedService(
            wl.n_fibers, wl.scheme(), wl.scheduler(), n_workers=N_WORKERS
        )
    from repro.service.server import SchedulingService

    return SchedulingService(wl.n_fibers, wl.scheme(), wl.scheduler())


def _stats(service, tracer, cache) -> dict:
    out = {
        "counters": service.telemetry.snapshot()["counters"] if service else {},
        "memo": cache.stats() if cache is not None else None,
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
        for samples in (*tracer.samples.values(), *tracer.sample_gc.values()):
            samples.clear()
    return out


def _reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


async def serve_tcp(wl, tracer) -> None:
    from repro.core.memo import get_default_cache
    from repro.net.server import NetServer

    service = build_service(wl)
    server = NetServer(service)
    await server.start()
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    cache = get_default_cache() if wl.backend == "inproc" else None
    _reply({"ready": True, "port": server.port})
    try:
        while True:
            line = await reader.readline()
            cmd = json.loads(line)["cmd"] if line.strip() else "stop"
            if cmd == "stop":
                break
            if cmd == "stats":
                _reply(_stats(service, tracer, cache))
            else:
                _reply({"error": f"unknown command {cmd!r}"})
    finally:
        await server.stop()
        await service.stop()


def _fresh_sim(wl, seed, cache):
    from repro.sim.fast import FastPacketSimulator

    return FastPacketSimulator(
        wl.n_fibers, wl.scheme(), wl.traffic(), seed=seed, cache=cache
    )


class CacheTally:
    """Memo-cache counts summed over the fresh cache of every repetition
    (each repetition replays the same slots, so caches are never shared)."""

    def __init__(self) -> None:
        self.totals = {"hits": 0, "misses": 0, "evictions": 0}
        self._current = None

    def fresh(self):
        from repro.core.memo import ScheduleCache

        self._fold()
        self._current = ScheduleCache()
        return self._current

    def _fold(self) -> None:
        if self._current is not None:
            for k, v in self._current.stats().items():
                if k in self.totals:
                    self.totals[k] += v
            self._current = None

    def stats(self) -> dict:
        self._fold()
        return dict(self.totals)


def sim_capacity(wl, seed, seconds, caches) -> dict:
    """Closed loop: replay the seed's first ``SIM_SLOTS`` slots on fresh
    simulators, back to back, for ``seconds``; every slot timed alone, and
    the machine's speed probed (:mod:`hostspeed`) before every replay and
    after the last."""
    from hostspeed import probe_ns

    slot_ns: list[int] = []
    requests: list[int] = []
    reps: list[list[int]] = []
    marks: list[tuple[int, float]] = []
    clock = time.perf_counter_ns
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        marks.append((len(slot_ns), probe_ns()))
        sim = _fresh_sim(wl, seed, caches.fresh())
        grants = []
        for _ in range(SIM_SLOTS):
            t0 = clock()
            c = sim.step()
            slot_ns.append(clock() - t0)
            requests.append(c["submitted"])
            grants.append(c["granted"])
        reps.append(grants)
    marks.append((len(slot_ns), probe_ns()))
    return {"slot_ns": slot_ns, "requests": requests, "reps": reps,
            "marks": marks}


def serve_sim(wl, seed, tracer) -> None:
    caches = CacheTally()
    _fresh_sim(wl, seed, None).step()
    _reply({"ready": True})
    for line in sys.stdin:
        msg = json.loads(line) if line.strip() else {"cmd": "stop"}
        cmd = msg["cmd"]
        if cmd == "stop":
            break
        if cmd == "capacity":
            _reply(sim_capacity(wl, seed, msg["seconds"], caches))
        elif cmd == "stats":
            _reply(_stats(None, tracer, caches))
        else:
            _reply({"error": f"unknown command {cmd!r}"})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="sim-perfd only")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="write raw spans here")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(
            sampled=SAMPLED,
            keep=100_000 if args.spans else 0,
            waits={"net.procservice.tick": "net.procpool.call_async"},
        )
        if wl.tcp:
            install_server_tracing(tracer)
        else:
            install_sim_tracing(tracer)
    if wl.tcp:
        asyncio.run(serve_tcp(wl, tracer))
    else:
        serve_sim(wl, args.seed, tracer)
    if tracer is not None and args.spans:
        with open(args.spans, "w") as fh:
            json.dump(tracer.spans, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
