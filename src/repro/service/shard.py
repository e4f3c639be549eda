"""Shard workers: one per output fiber, owning scheduler and channel state.

The paper's structural result — requests partition by destination fiber and
the per-output decisions are independent — makes the output fiber the
natural service shard.  Each :class:`ShardWorker` owns

* its per-output scheduler instance (``first_available`` /
  ``break_first_available`` / any :class:`~repro.core.base.Scheduler`),
* its bounded request queue (see :mod:`repro.service.queue`),
* its channel-availability state across slot ticks: ``busy[b]`` counts the
  remaining slots output channel ``b`` is held by a granted multi-slot
  connection (paper Section V non-disturb mode — exactly the
  :class:`~repro.sim.engine.SlottedSimulator` bookkeeping, per shard).

Scheduling a tick is a *read* of shard state; committing grants and
advancing the clock are writes.  The service schedules all shards of a
tick with one batch-kernel call
(:func:`repro.core.distributed.schedule_tick`); :meth:`ShardWorker.schedule`
is the per-fiber path for the rows that call cannot express, and goes
through :func:`repro.core.distributed.schedule_output_fiber` — the same
code path as the batch simulator.  The simulator's independent per-fiber
decisions are what make service-vs-simulator grant equivalence testable
instead of aspirational.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.base import Scheduler
from repro.core.distributed import (
    GrantedRequest,
    SlotRequest,
    schedule_output_fiber,
)
from repro.core.policies import GrantPolicy
from repro.errors import ShardDownError, SimulationError
from repro.graphs.conversion import ConversionScheme
from repro.types import ScheduleResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.queue import BoundedQueue
    from repro.service.telemetry import Telemetry

__all__ = ["ShardWorker"]


class ShardWorker:
    """Per-output-fiber worker: scheduler + queue + channel occupancy."""

    def __init__(
        self,
        output_fiber: int,
        scheme: ConversionScheme,
        scheduler: Scheduler,
        policy: GrantPolicy,
        queue: "BoundedQueue",
        telemetry: "Telemetry",
    ) -> None:
        self.output_fiber = output_fiber
        self.scheme = scheme
        self.scheduler = scheduler
        self.policy = policy
        self.queue = queue
        self._busy = [0] * scheme.k
        #: Dark output channels this tick (fault injection); None = none.
        self._dark: list[bool] | None = None
        #: A down shard refuses every operation with ShardDownError until
        #: the supervisor restores it (see repro.service.supervisor).
        self.down = False
        self._crash_cause: BaseException | None = None
        prefix = f"shard.{output_fiber}"
        self._granted = telemetry.counter(f"{prefix}.granted")
        self._rejected = telemetry.counter(f"{prefix}.rejected")
        self._occupancy_gauge = telemetry.gauge(f"{prefix}.occupancy")

    # -- state views --------------------------------------------------------

    @property
    def k(self) -> int:
        return self.scheme.k

    @property
    def occupancy(self) -> int:
        """Output channels currently held by ongoing connections."""
        return sum(1 for b in self._busy if b > 0)

    def busy_snapshot(self) -> list[int]:
        """Copy of ``busy[]`` for the supervisor's checkpoints."""
        return list(self._busy)

    def availability(self) -> list[bool]:
        """Free-channel mask for the current slot tick.

        Dark channels (injected outages) read as unavailable, exactly like
        Section-V occupied channels, so the scheduler routes around them;
        connections already holding a channel that goes dark complete
        normally.
        """
        if self._dark is None:
            return [b == 0 for b in self._busy]
        return [
            b == 0 and not dark for b, dark in zip(self._busy, self._dark)
        ]

    def set_dark(self, dark: Sequence[bool] | None) -> None:
        """Install this tick's dark-channel row (None = fully lit)."""
        self._dark = None if dark is None else list(dark)

    # -- crash / restore (see repro.service.supervisor) ----------------------

    def crash(self, cause: BaseException | None = None) -> None:
        """Kill the worker: its in-memory channel state is lost.

        ``busy[]`` is wiped — that is the whole point of the supervisor's
        checkpoints — and every later operation raises
        :class:`~repro.errors.ShardDownError` until :meth:`restore`.
        """
        self.down = True
        self._busy = [0] * self.k
        self._crash_cause = cause

    def restore(self, busy: Sequence[int]) -> None:
        """Bring the worker back with the supervisor's aged ``busy[]``."""
        if len(busy) != self.k:
            raise SimulationError(
                f"shard {self.output_fiber}: restore vector has length "
                f"{len(busy)}, expected k={self.k}"
            )
        self._busy = [int(b) for b in busy]
        self.down = False
        self._crash_cause = None
        self._occupancy_gauge.set(self.occupancy)

    def _check_up(self) -> None:
        if self.down:
            raise ShardDownError(
                f"shard {self.output_fiber} is down"
            ) from self._crash_cause

    # -- one slot tick ------------------------------------------------------

    def schedule(
        self,
        requests: Sequence[SlotRequest],
        degradations: "dict[int, tuple[int, int]] | None" = None,
    ) -> tuple[ScheduleResult | None, list[GrantedRequest], list[SlotRequest]]:
        """Resolve this tick's contention; does NOT commit (pure read).

        Fails fast with a typed :class:`~repro.errors.ShardDownError` when
        the worker is down, and wraps any defect raised by the underlying
        scheduler in the same type (``raise ... from`` keeps the original
        on the chain), marking the worker down — a broken scheduler is a
        crashed shard, not a silent wrong answer.
        """
        self._check_up()
        if not requests:
            return None, [], []
        try:
            result, granted, rejected = schedule_output_fiber(
                self.scheme,
                self.scheduler,
                self.policy,
                self.output_fiber,
                requests,
                self.availability(),
                degradations,
            )
        except ShardDownError:
            raise
        except Exception as exc:
            self.crash(exc)
            raise ShardDownError(
                f"shard {self.output_fiber} crashed while scheduling: {exc}"
            ) from exc
        return result, granted, rejected

    def commit(self, granted: Sequence[GrantedRequest]) -> None:
        """Hold each granted channel for the connection's duration."""
        self._check_up()
        for g in granted:
            if self._busy[g.channel] > 0:
                raise SimulationError(
                    f"shard {self.output_fiber}: channel {g.channel} granted "
                    "while occupied"
                )
            if self._dark is not None and self._dark[g.channel]:
                raise SimulationError(
                    f"shard {self.output_fiber}: channel {g.channel} granted "
                    "while dark"
                )
            self._busy[g.channel] = g.request.duration
        self._granted.inc(len(granted))
        self._occupancy_gauge.set(self.occupancy)

    def record_rejected(self, n: int) -> None:
        self._rejected.inc(n)

    def advance(self) -> None:
        """End of slot tick: ongoing connections age by one slot."""
        self._busy = [b - 1 if b > 0 else 0 for b in self._busy]
        self._occupancy_gauge.set(self.occupancy)
