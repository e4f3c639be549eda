"""Deterministic, seeded *wire* fault plans for the TCP service stack.

:mod:`repro.faults.plan` models faults in the optical datapath (dark
channels, degraded converters, dead shards).  This module models the other
failure domain a distributed scheduler lives in: the network between its
clients and the front door.  A :class:`NetFaultPlan` declares, in slot
time, which wire faults a :class:`repro.net.chaos.ChaosProxy` injects into
the byte stream between a :class:`~repro.net.client.NetClient` and a
:class:`~repro.net.server.NetServer`:

* :class:`LatencySpike` — every relayed frame is delayed while the event
  is active (``[start, start + duration)`` slots), with a deterministic
  jitter spread.
* :class:`WriteStall` — one frame is dribbled out a few bytes at a time
  over ``seconds`` (a slow-loris writer); the peer's read loop must ride
  it out or its liveness machinery must trip, never hang forever.
* :class:`ConnReset` — the connection is torn down mid-frame: half a
  frame is written, then the transport aborts.  The reader must surface
  "closed mid-frame" and the resilient client must reconnect/redeliver.
* :class:`CorruptByte` — one payload byte of one frame is XOR-flipped.
  The strict :class:`~repro.util.framing.FrameDecoder` must kill the
  connection loudly (CRC mismatch); a wrong grant must never be
  delivered.
* :class:`DuplicateFrame` — the next SUBMIT_BATCH frame is delivered
  twice, byte-identical, so every request in it arrives twice.  The
  server's exactly-once dedup must absorb it.
* :class:`Partition` — from the trigger slot the link is severed and new
  connections are refused for ``seconds`` of wall time (slot time stops
  flowing during a full partition, so the healing edge must be wall
  clock).

One-shot events (everything but :class:`LatencySpike`) fire at the first
relayed frame at-or-after their slot, in the event's direction
(``"s2c"`` server→client or ``"c2s"`` client→server).  Plans are
immutable; :meth:`NetFaultPlan.random` draws a reproducible plan from one
seed — the chaos drill (``tests/test_net_chaos.py``) depends on one
``(seed, shape)`` pair always yielding the same plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.errors import InvalidParameterError
from repro.util.validation import check_nonnegative_int, check_positive_int

__all__ = [
    "LatencySpike",
    "WriteStall",
    "ConnReset",
    "CorruptByte",
    "DuplicateFrame",
    "Partition",
    "NetFaultPlan",
]

_DIRECTIONS = ("c2s", "s2c")


def _check_direction(direction: str, what: str) -> None:
    if direction not in _DIRECTIONS:
        raise InvalidParameterError(
            f"{what} direction must be one of {_DIRECTIONS}, got {direction!r}"
        )


def _check_seconds(seconds: float, what: str) -> None:
    if not seconds > 0:
        raise InvalidParameterError(f"{what} must be > 0, got {seconds}")


@dataclass(frozen=True, slots=True, order=True)
class LatencySpike:
    """Every frame relayed during ``[start, start + duration)`` slots is
    held for ``delay`` seconds plus a deterministic jitter in
    ``[0, jitter]`` (spread by frame index, not a clock)."""

    start: int
    duration: int
    delay: float = 0.01
    jitter: float = 0.0

    def active_at(self, slot: int) -> bool:
        return self.start <= slot < self.start + self.duration


@dataclass(frozen=True, slots=True, order=True)
class WriteStall:
    """The first ``direction`` frame at-or-after ``slot`` is written a few
    bytes at a time over ``seconds`` (slow-loris)."""

    slot: int
    seconds: float = 0.2
    direction: str = "s2c"


@dataclass(frozen=True, slots=True, order=True)
class ConnReset:
    """The connection is aborted halfway through the first ``direction``
    frame at-or-after ``slot``."""

    slot: int
    direction: str = "s2c"


@dataclass(frozen=True, slots=True, order=True)
class CorruptByte:
    """One payload byte (index ``offset`` modulo the payload length) of
    the first ``direction`` frame at-or-after ``slot`` is XOR-flipped with
    ``mask`` — a CRC-detectable single-byte corruption."""

    slot: int
    offset: int = 0
    mask: int = 0xFF
    direction: str = "s2c"


@dataclass(frozen=True, slots=True, order=True)
class DuplicateFrame:
    """The first client→server SUBMIT_BATCH frame at-or-after ``slot``
    is relayed twice, byte-identical (exactly-once dedup drill)."""

    slot: int


@dataclass(frozen=True, slots=True, order=True)
class Partition:
    """From the first activity at-or-after ``slot``, the link is severed
    and reconnects are refused for ``seconds`` of wall time."""

    slot: int
    seconds: float = 0.5


_ONE_SHOT = (WriteStall, ConnReset, CorruptByte, DuplicateFrame, Partition)


@dataclass(frozen=True)
class NetFaultPlan:
    """An immutable, validated collection of timed wire-fault events.

    Build one explicitly, or draw a reproducible randomized plan with
    :meth:`random`.  The plan is pure data; a
    :class:`repro.net.chaos.ChaosProxy` executes it against a live
    connection.
    """

    latencies: tuple[LatencySpike, ...] = ()
    stalls: tuple[WriteStall, ...] = ()
    resets: tuple[ConnReset, ...] = ()
    corruptions: tuple[CorruptByte, ...] = ()
    duplicates: tuple[DuplicateFrame, ...] = ()
    partitions: tuple[Partition, ...] = ()
    #: Free-form provenance (seed, generator parameters) for reports.
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def n_events(self) -> int:
        return (
            len(self.latencies)
            + len(self.stalls)
            + len(self.resets)
            + len(self.corruptions)
            + len(self.duplicates)
            + len(self.partitions)
        )

    @property
    def is_empty(self) -> bool:
        return self.n_events == 0

    def validate(self) -> "NetFaultPlan":
        """Raise :class:`InvalidParameterError` on any ill-formed event;
        returns the plan for chaining."""
        for ev in self.latencies:
            check_nonnegative_int(ev.start, "latency start")
            check_positive_int(ev.duration, "latency duration")
            if ev.delay < 0 or ev.jitter < 0:
                raise InvalidParameterError(
                    f"latency delay/jitter must be >= 0, got {ev}"
                )
        for ev in self.stalls:
            check_nonnegative_int(ev.slot, "stall slot")
            _check_seconds(ev.seconds, "stall seconds")
            _check_direction(ev.direction, "stall")
        for ev in self.resets:
            check_nonnegative_int(ev.slot, "reset slot")
            _check_direction(ev.direction, "reset")
        for ev in self.corruptions:
            check_nonnegative_int(ev.slot, "corruption slot")
            check_nonnegative_int(ev.offset, "corruption offset")
            _check_direction(ev.direction, "corruption")
            if not 1 <= ev.mask <= 0xFF:
                raise InvalidParameterError(
                    f"corruption mask must be in [1, 255], got {ev.mask}"
                )
        for ev in self.duplicates:
            check_nonnegative_int(ev.slot, "duplicate slot")
        for ev in self.partitions:
            check_nonnegative_int(ev.slot, "partition slot")
            _check_seconds(ev.seconds, "partition seconds")
        return self

    def horizon(self) -> int:
        """One past the last trigger slot (0 for an empty plan)."""
        ends: list[int] = []
        ends.extend(ev.start + ev.duration for ev in self.latencies)
        for group in (
            self.stalls, self.resets, self.corruptions,
            self.duplicates, self.partitions,
        ):
            ends.extend(ev.slot + 1 for ev in group)
        return max(ends, default=0)

    def merge(self, other: "NetFaultPlan") -> "NetFaultPlan":
        """Union of two plans (events concatenated, sorted)."""
        return NetFaultPlan(
            latencies=tuple(sorted(self.latencies + other.latencies)),
            stalls=tuple(sorted(self.stalls + other.stalls)),
            resets=tuple(sorted(self.resets + other.resets)),
            corruptions=tuple(sorted(self.corruptions + other.corruptions)),
            duplicates=tuple(sorted(self.duplicates + other.duplicates)),
            partitions=tuple(sorted(self.partitions + other.partitions)),
            meta={**self.meta, **other.meta},
        )

    @classmethod
    def from_events(cls, events: Iterable) -> "NetFaultPlan":
        """Sort a mixed event iterable into a plan."""
        buckets: dict[type, list] = {
            LatencySpike: [], WriteStall: [], ConnReset: [],
            CorruptByte: [], DuplicateFrame: [], Partition: [],
        }
        for ev in events:
            bucket = buckets.get(type(ev))
            if bucket is None:
                raise InvalidParameterError(f"unknown net fault event {ev!r}")
            bucket.append(ev)
        return cls(
            latencies=tuple(sorted(buckets[LatencySpike])),
            stalls=tuple(sorted(buckets[WriteStall])),
            resets=tuple(sorted(buckets[ConnReset])),
            corruptions=tuple(sorted(buckets[CorruptByte])),
            duplicates=tuple(sorted(buckets[DuplicateFrame])),
            partitions=tuple(sorted(buckets[Partition])),
        )

    @classmethod
    def random(
        cls,
        seed: int,
        horizon: int,
        *,
        n_latencies: int = 1,
        n_stalls: int = 1,
        n_resets: int = 2,
        n_corruptions: int = 1,
        n_duplicates: int = 2,
        n_partitions: int = 1,
        max_latency_slots: int = 8,
        max_stall_seconds: float = 0.2,
        max_partition_seconds: float = 0.4,
    ) -> "NetFaultPlan":
        """Draw a randomized-but-reproducible plan from one seed.

        Every trigger slot lands in ``[0, horizon)``; wall-clock
        durations are uniform in ``(0, max_*_seconds]``.  The draw order
        is fixed, so one ``(seed, shape)`` pair always yields the same
        plan — the net chaos drill depends on this.
        """
        check_positive_int(horizon, "horizon")
        rng = np.random.default_rng(seed)
        directions = np.array(_DIRECTIONS)
        latencies = tuple(
            sorted(
                LatencySpike(
                    start=int(rng.integers(horizon)),
                    duration=int(rng.integers(1, max_latency_slots + 1)),
                    delay=float(rng.uniform(0.001, 0.01)),
                    jitter=float(rng.uniform(0.0, 0.005)),
                )
                for _ in range(check_nonnegative_int(n_latencies, "n_latencies"))
            )
        )
        stalls = tuple(
            sorted(
                WriteStall(
                    slot=int(rng.integers(horizon)),
                    seconds=float(rng.uniform(0.01, max_stall_seconds)),
                    direction=str(rng.choice(directions)),
                )
                for _ in range(check_nonnegative_int(n_stalls, "n_stalls"))
            )
        )
        resets = tuple(
            sorted(
                ConnReset(
                    slot=int(rng.integers(horizon)),
                    direction=str(rng.choice(directions)),
                )
                for _ in range(check_nonnegative_int(n_resets, "n_resets"))
            )
        )
        corruptions = tuple(
            sorted(
                CorruptByte(
                    slot=int(rng.integers(horizon)),
                    offset=int(rng.integers(0, 64)),
                    mask=int(rng.integers(1, 256)),
                    direction=str(rng.choice(directions)),
                )
                for _ in range(
                    check_nonnegative_int(n_corruptions, "n_corruptions")
                )
            )
        )
        duplicates = tuple(
            sorted(
                DuplicateFrame(slot=int(rng.integers(horizon)))
                for _ in range(
                    check_nonnegative_int(n_duplicates, "n_duplicates")
                )
            )
        )
        partitions = tuple(
            sorted(
                Partition(
                    slot=int(rng.integers(horizon)),
                    seconds=float(rng.uniform(0.05, max_partition_seconds)),
                )
                for _ in range(
                    check_nonnegative_int(n_partitions, "n_partitions")
                )
            )
        )
        return cls(
            latencies=latencies,
            stalls=stalls,
            resets=resets,
            corruptions=corruptions,
            duplicates=duplicates,
            partitions=partitions,
            meta={"seed": seed, "horizon": horizon},
        ).validate()
