"""Shard supervision: crash detection, checkpointed state, delayed restart.

A :class:`~repro.service.shard.ShardWorker` that crashes — by injection
(:class:`~repro.faults.ShardCrash`) or organically (its tick raised) — loses
its in-memory channel-occupancy state ``busy[]``.  Losing that state is not
just a throughput hiccup: a restarted shard that believes every channel is
free will double-book channels still held by in-flight multi-slot
connections.  The supervisor therefore keeps a per-shard *checkpoint* of
``busy[]`` (taken each tick, after the clock advance, so a checkpoint for
tick ``t`` describes the state entering ``t``) and restores it on restart,
aged by the downtime::

    restored[b] = max(0, checkpoint[b] - (restart_tick - checkpoint_tick))

Aging is exact, not approximate: ``busy[]`` decays by exactly one per tick
whether or not the shard is running, because the optical connections it
tracks live in the interconnect, not in the worker process.

Restarts are delayed by ``restart_delay_ticks`` (≥ 1), modelling the real
cost of re-spawning a worker; during the gap the shard refuses requests
(``SHARD_DOWN``) and its circuit breaker is forced open.  All timing is in
slot ticks — deterministic, like everything else in the chaos harness.

With the durability layer on (the default — see
:mod:`repro.service.durability`), restarts are seeded by exact
snapshot+journal replay instead of aged checkpoints; the supervisor then
only tracks downtime and restart accounting (:meth:`restore_source`).
The aged-checkpoint path remains the fallback when durability is disabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.util.validation import check_nonnegative_int, check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.telemetry import Telemetry

__all__ = ["SupervisorConfig", "ShardSupervisor"]


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision tuning, in slot ticks.

    ``restart_delay_ticks`` — ticks a crashed shard stays down before the
    supervisor restarts it (≥ 1: a crash is never healed in the same tick
    it happened, so a crash slot always observes the outage).
    """

    restart_delay_ticks: int = 1

    def __post_init__(self) -> None:
        check_positive_int(self.restart_delay_ticks, "restart_delay_ticks")


class ShardSupervisor:
    """Bookkeeping half of shard supervision (the server does the spawning).

    The supervisor never touches a worker object: it records checkpoints and
    crash times, decides *when* a shard is due for restart, and produces the
    aged ``busy[]`` to seed the replacement with.  Keeping it pure data makes
    the restart logic unit-testable without an event loop.
    """

    def __init__(
        self,
        config: SupervisorConfig | None = None,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self.config = config or SupervisorConfig()
        #: shard -> (checkpoint tick, busy[] copy); checkpoint tick is the
        #: tick the state is valid *entering*.
        self._checkpoints: dict[int, tuple[int, list[int]]] = {}
        self._down_since: dict[int, int] = {}
        #: shard -> how its last restart was seeded ("snapshot+journal",
        #: "journal", "checkpoint", or "cold") — restart accounting for
        #: the chaos drill's never-cold assertion.
        self._restore_sources: dict[int, str] = {}
        self._telemetry = telemetry
        self._restarts = (
            telemetry.counter("server.shard_restarts")
            if telemetry is not None
            else None
        )

    # -- state views ---------------------------------------------------------

    @property
    def down_shards(self) -> tuple[int, ...]:
        """Shards currently crashed and awaiting restart (sorted)."""
        return tuple(sorted(self._down_since))

    def is_down(self, shard: int) -> bool:
        return shard in self._down_since

    def checkpoint_of(self, shard: int) -> tuple[int, list[int]] | None:
        """Latest checkpoint ``(tick, busy[])`` for introspection/tests."""
        entry = self._checkpoints.get(shard)
        return (entry[0], list(entry[1])) if entry is not None else None

    def restore_source(self, shard: int) -> str | None:
        """How ``shard``'s most recent restore was seeded (None = never
        restored): ``"snapshot+journal"`` / ``"journal"`` when durability
        replayed it, ``"checkpoint"`` for the aged-checkpoint fallback,
        ``"cold"`` when no durable state existed at all."""
        return self._restore_sources.get(shard)

    # -- protocol ------------------------------------------------------------

    def note_checkpoint(
        self, shard: int, tick: int, busy: Sequence[int]
    ) -> None:
        """Record ``busy[]`` as the state entering ``tick``.

        Called by the server after each tick's clock advance.  Down
        shards are not checkpointed (their live state is gone — the last
        good checkpoint is exactly what the restart needs).
        """
        check_nonnegative_int(tick, "tick")
        if shard in self._down_since:
            return
        self._checkpoints[shard] = (tick, list(busy))

    def record_crash(self, shard: int, tick: int) -> None:
        """Mark ``shard`` as crashed at ``tick`` (idempotent while down)."""
        check_nonnegative_int(tick, "tick")
        self._down_since.setdefault(shard, tick)

    def due_for_restart(self, tick: int) -> tuple[int, ...]:
        """Shards whose ``restart_delay_ticks`` have elapsed by ``tick``."""
        return tuple(
            sorted(
                s
                for s, since in self._down_since.items()
                if tick - since >= self.config.restart_delay_ticks
            )
        )

    def restore_busy(self, shard: int, tick: int, k: int) -> list[int]:
        """The aged ``busy[]`` a shard restarted at ``tick`` must start with.

        Falls back to an all-free vector when the shard crashed before its
        first checkpoint.
        """
        entry = self._checkpoints.get(shard)
        if entry is None:
            return [0] * k
        ckpt_tick, busy = entry
        age = max(0, tick - ckpt_tick)
        return [max(0, b - age) for b in busy]

    def mark_restarted(self, shard: int, source: str = "checkpoint") -> None:
        """Clear the down mark after the server has spawned the new worker.

        ``source`` records how the replacement's state was seeded (see
        :meth:`restore_source`); each restore also lands on a
        ``server.restore.<source>`` counter so the chaos drill can assert
        the cold path was never taken.
        """
        self._restore_sources[shard] = source
        if self._telemetry is not None:
            self._telemetry.counter(
                f"server.restore.{source.replace('+', '_')}"
            ).inc()
        if shard in self._down_since:
            del self._down_since[shard]
            if self._restarts is not None:
                self._restarts.inc()

    def __repr__(self) -> str:
        return (
            f"ShardSupervisor(down={list(self.down_shards)}, "
            f"checkpoints={len(self._checkpoints)})"
        )
