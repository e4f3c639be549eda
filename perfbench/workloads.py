"""The benchmark's workloads: interconnect shape, traffic and fixed rates.

Every request stream is generated here from the run's ``--seed``; the
program under test only ever receives the generated requests.  The traffic
stream of a seed is the one ``FastPacketSimulator`` and ``SlottedSimulator``
draw for the same seed (the first of ``spawn_rngs(seed, 2)``), so the TCP
workloads and the simulator see the same arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``"sim"`` (FastPacketSimulator in one process), ``"inproc"``
    #: (SchedulingService behind NetServer) or ``"workers"``
    #: (ProcessShardedService behind NetServer).
    backend: str
    n_fibers: int
    k: int
    #: ``"circular"`` (BFA) or ``"noncircular"`` (FA), reaches e = f.
    conversion: str
    reach: int
    load: float
    mean_duration: float
    #: Open-loop slot rate (slots/s) of the TCP workloads, about a quarter
    #: of the capacity measured when the benchmark was defined.  At half
    #: capacity the open-loop tail swung with the shared machine's speed (a
    #: slower minute pushed the utilization up and the queueing delay with
    #: it: ten-run p90 spread 0.40 on tcp-perfd).  Fixed here, never
    #: adapted.  The simulator has no open loop (``None``).
    open_rate: float | None
    #: Slots run before any timing starts (caches fill, lazy set-up ends).
    warmup_slots: int
    why: str

    @property
    def tcp(self) -> bool:
        return self.backend != "sim"

    def scheme(self):
        from repro.graphs.conversion import (
            CircularConversion,
            NonCircularConversion,
        )

        cls = (
            CircularConversion
            if self.conversion == "circular"
            else NonCircularConversion
        )
        return cls(self.k, self.reach, self.reach)

    def scheduler(self, cache=True):
        from repro.core.break_first_available import (
            BreakFirstAvailableScheduler,
        )
        from repro.core.first_available import FirstAvailableScheduler

        if self.conversion == "circular":
            return BreakFirstAvailableScheduler(cache=cache)
        return FirstAvailableScheduler(cache=cache)

    def traffic(self):
        from repro.sim.duration import DeterministicDuration, GeometricDuration
        from repro.sim.traffic import BernoulliTraffic

        durations = (
            DeterministicDuration(1)
            if self.mean_duration == 1
            else GeometricDuration(self.mean_duration)
        )
        return BernoulliTraffic(
            self.n_fibers, self.k, self.load, durations=durations
        )


_PERFD = dict(
    n_fibers=16, k=16, conversion="circular", reach=1, load=0.9,
    mean_duration=1,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sim-perfd", "sim", **_PERFD, open_rate=None, warmup_slots=0,
            why="PERF-D point on FastPacketSimulator: kernels, row cache "
            "and traffic only; bypasses every service and net layer",
        ),
        Workload(
            "tcp-perfd", "inproc", **_PERFD, open_rate=12.0, warmup_slots=20,
            why="PERF-D arrivals (~230 requests/slot) over TCP to one "
            "SchedulingService process; per-request work dominates",
        ),
        Workload(
            "tcp-small", "inproc", n_fibers=8, k=4, conversion="noncircular",
            reach=1, load=0.3, mean_duration=3, open_rate=200.0,
            warmup_slots=100,
            why="N=8 k=4 FA, multi-slot durations (~10 requests/slot) over "
            "TCP; per-tick fixed costs, journal and snapshots dominate",
        ),
        Workload(
            "tcp-workers", "workers", **_PERFD, open_rate=12.0,
            warmup_slots=20,
            why="tcp-perfd traffic served by ProcessShardedService with 2 "
            "workers; the only workload crossing the procpool pickle hop",
        ),
    )
}

#: Worker processes of the ``workers`` backend.
N_WORKERS = 2

#: Slots in one sim-perfd repetition: every repetition replays the seed's
#: first ``SIM_SLOTS`` slots on a fresh simulator, so every slot timed is
#: also checked against SlottedSimulator.
SIM_SLOTS = 120


class ArrivalStream:
    """The seeded per-slot arrivals of one workload, slot after slot."""

    def __init__(self, workload: Workload, seed: int) -> None:
        from repro.util.rng import spawn_rngs

        self.traffic = workload.traffic()
        self._rng = spawn_rngs(seed, 2)[0]
        self.slot = 0

    def next_batch(self):
        batch = self.traffic.arrivals_batch(self.slot, self._rng)
        self.slot += 1
        return batch

    def next_requests(self) -> list:
        """The next slot's arrivals as ``SlotRequest`` objects, in the
        order the traffic model emits them (input fiber, then
        wavelength)."""
        from repro.core.distributed import SlotRequest

        b = self.next_batch()
        return [
            SlotRequest(i, w, o, d)
            for i, w, o, d in zip(
                b.input_fiber.tolist(),
                b.wavelength.tolist(),
                b.output_fiber.tolist(),
                b.duration.tolist(),
            )
        ]
