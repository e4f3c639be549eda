"""Shard workers in OS processes: spawn, RPC, crash recovery, respawn.

Each worker process owns the shards the consistent-hash ring places on
it (:mod:`repro.net.placement`) as :class:`~repro.service.shard.ShardWorker`
objects — the same shard class the in-process service holds — each with
its ``busy[]`` channel clock and the scheduler.  The worker keeps their
journals and snapshots in one
:class:`~repro.service.durability.DurabilityManager` with the default
:class:`~repro.service.durability.DurabilityConfig`, over the worker's
**own directory** (``<journal_dir>/worker-<i>/shard-NNNN.wal`` and
``shard-NNNN.tick-*.snap``, the in-process file layout; in memory without
a journal directory), so two processes never share a file.  A tick is the
same :func:`~repro.service.shard.tick_shards` call the in-process service
makes, and each shard snapshots itself and compacts its journal every
``snapshot_interval`` slots
(:meth:`~repro.service.shard.ShardWorker.advance`), as in process; the
worker adds only redelivery, missed-slot catch-up and the policy-slice
hand-off around it.

The parent drives workers over ``multiprocessing`` pipes with a tiny
request/response protocol (tuples, one in flight per worker).  The
correctness contract under crashes is the same write-ahead discipline as
PR 5, extended across the process boundary:

* a tick journals its GRANT batches **before** committing them, and an
  ADVANCE record **after** every owned shard committed — so a journal's
  tail after a kill is either complete ticks, or complete ticks plus
  uncommitted GRANTs of the in-flight tick;
* worker start-up **strips** any records after the last ADVANCE (the
  write-ahead of a tick the parent never saw complete), rewrites the
  journal, and rebuilds ``busy[]`` exactly from the latest snapshot plus
  the records since (:meth:`~repro.service.shard.ShardWorker.resume`);
* a tick the worker already completed (its slot is behind the recovered
  clock: it died after advancing, before replying) is **run again** —
  the shard drops that slot's records and any snapshot taken after its
  start, rebuilds from the latest snapshot at or before it
  (:meth:`~repro.service.shard.ShardWorker.rewind`), and schedules from
  the same start-of-slot ``busy[]`` and the same policy slice, so parent
  retries return bit-identical grants;
* a shard whose scheduling crashed is rewound the same way, so only that
  tick's requests are lost and its clock lives on in the worker.

Start-up, both rewinds and a migration adopt are one rebuild,
:meth:`~repro.service.durability.DurabilityManager.recover`; a shard's
journal holds at most the records since the snapshot before its latest,
so a respawn reads a bounded journal however long the worker ran.

Workers hold no grant-policy state between ticks.  The parent's service
front owns the live policy and sends each contended shard's slice
(:meth:`~repro.core.policies.GrantPolicy.export_output_state`) with its
``run_tick`` row; the reply carries the post-tick slice back.  A respawn
therefore has no policy state to lose.

The parent's retry loop (:meth:`ProcessShardPool.call`) respawns a dead
worker and re-sends the same payload; repeated failures of one call
raise a typed :class:`~repro.errors.WorkerProcessError`.

Start-up is two steps per worker: start the process, then await its
``ready`` handshake (sent once its shards are rebuilt).  The pool's
constructor starts every worker before it awaits any, so the spawned
interpreters boot side by side; a respawn or
:meth:`ProcessShardPool.add_worker` starts and awaits one.  A worker
that dies before ``ready``, or misses the handshake budget, raises
:class:`~repro.errors.WorkerProcessError` chained from the cause; a
failing constructor first kills and reaps every worker it started and
shuts its executor down.  Nothing a worker imports loads scipy, so its
cold start pays for NumPy and this package only.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from repro.core.distributed import SlotRequest
from repro.errors import (
    InvalidParameterError,
    MigrationError,
    ShardDownError,
    WorkerProcessError,
)
from repro.net.placement import HashRing
from repro.service.durability import DurabilityConfig, DurabilityManager
from repro.service.journal import FAULT_CRASH
from repro.service.shard import ShardWorker, tick_shards
from repro.service.telemetry import Telemetry
from repro.util.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    import asyncio

    from repro.core.base import Scheduler
    from repro.core.policies import GrantPolicy
    from repro.graphs.conversion import ConversionScheme

__all__ = ["ProcessShardPool", "worker_main"]

#: Poison modes accepted by the test-only ``poison`` op.
POISON_AFTER_GRANT = "after_grant"
POISON_BEFORE_REPLY = "before_reply"
#: Die after installing an adopted shard, before acknowledging it — the
#: destination-side mid-handoff kill (the parent's retry re-adopts).
POISON_AFTER_ADOPT = "after_adopt"
#: Stall (sleep) before answering the next op — the unresponsive-worker
#: drill: the worker is alive but wedged, so the parent's receive
#: timeout must trip, kill it, and respawn.  ``("stall", seconds)``.
POISON_STALL = "stall"


# -- worker process ----------------------------------------------------------


def worker_main(
    conn,
    worker_id: int,
    shard_ids: Sequence[int],
    scheme: "ConversionScheme",
    scheduler: "Scheduler",
    policy: "GrantPolicy",
    journal_dir: str | None,
) -> None:
    """Entry point of one shard worker process (module-level: spawn picks
    it up by reference).  Serves ops off ``conn`` until ``stop`` or EOF."""
    telemetry = Telemetry()
    # One durability manager for the shards this worker owns, over its
    # own directory: the in-process service's file layout, default cadence.
    durability = DurabilityManager(
        DurabilityConfig()
        if journal_dir is None
        else DurabilityConfig(
            backend="file",
            directory=Path(journal_dir) / f"worker-{worker_id}",
        ),
        0,
        scheme.k,
    )

    def open_shard(o: int) -> ShardWorker:
        # The same shard class as the in-process service, rebuilt from
        # the latest snapshot and journal this worker holds for it.
        shard = ShardWorker(o, scheme, scheduler, policy, None, telemetry)
        shard.attach(durability)
        shard.resume()
        return shard

    shards = {o: open_shard(o) for o in shard_ids}
    poison: str | None = None
    stall_s = 0.0
    conn.send(("ready", {o: s.next_tick for o, s in shards.items()}))
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        op = msg[0]
        if poison == POISON_STALL and op != "poison":
            # Wedged, not dead: sleep through the parent's receive
            # timeout (it kills and respawns us), then serve normally —
            # one-shot, like the other poisons.
            poison = None
            time.sleep(stall_s)
        if op == "run_tick":
            # The shard tick (tick_shards, the function the in-process
            # service ticks with) over every owned shard of this slot.
            # Work entries are (o, request tuples, policy slice); reply
            # entries are (o, grant tuples, rejected pairs, policy slice),
            # or (o, None, reason, policy slice) for a shard that crashed.
            # The front owns the live policy: each slice is absorbed
            # before scheduling and handed back after, so the worker keeps
            # no policy state between ticks.
            slot, work = msg[1], msg[2]
            for o, _req_tuples, policy_slice in work:
                shard = shards[o]
                if slot < shard.next_tick:
                    # Redelivery of a tick this worker completed but never
                    # acknowledged: run it again from the same start-of-
                    # slot busy[] and policy slice — same grants.
                    shard.rewind(slot)
                # Catch up slots this shard missed while its worker was
                # unreachable (parent ticks kept running): pure journaled
                # clock decay, so availability reflects the start of
                # ``slot`` exactly as if the worker had been up.
                while shard.next_tick < slot:
                    shard.advance(shard.next_tick)
                policy.absorb_output_state(o, policy_slice)
            outcomes = tick_shards(
                scheme,
                policy,
                shards,
                slot,
                [
                    (o, [SlotRequest(*t) for t in req_tuples])
                    for o, req_tuples, _slice in work
                ],
            )
            result: list[tuple[int, list | None, list | str, object]] = []
            granted_any = False
            for (o, _req_tuples, _slice), outcome in zip(work, outcomes):
                if isinstance(outcome, ShardDownError):
                    # Only this tick's requests are lost: the shard's
                    # clock lives on in this worker (rebuilt from its
                    # journal), and the crash is journaled for the audit.
                    shards[o].rewind(slot)
                    shards[o].journal.fault(slot, FAULT_CRASH)
                    outcome = (None, str(outcome))
                granted_any = granted_any or bool(outcome[0])
                result.append((o, *outcome, policy.export_output_state(o)))
                policy.absorb_output_state(o, None)
            if poison == POISON_AFTER_GRANT and granted_any:
                os._exit(1)  # died between grant journaling and advance
            for shard in shards.values():
                # The while form also catches up idle shards that missed
                # slots during a partition (journaled ADVANCE per missed
                # slot keeps crash replay exact).
                while shard.next_tick <= slot:
                    shard.advance(shard.next_tick)
            if poison == POISON_BEFORE_REPLY:
                os._exit(1)  # died after completing, before replying
            conn.send(("tick_done", result))
        elif op == "export_shard":
            o = msg[1]
            shard = shards.get(o)
            if shard is None:
                conn.send(
                    ("error", f"worker {worker_id} does not own shard {o}")
                )
                continue
            blob = durability.export(o)
            conn.send(
                ("handoff", (shard.next_tick, shard.busy_snapshot(), blob))
            )
        elif op == "adopt_shard":
            # Idempotent: a retried adopt replaces the previous replica
            # (its journal and snapshots included).  A handoff that fails
            # its checks installs nothing.
            o, blob = msg[1], msg[2]
            try:
                adopted = durability.adopt(o, blob)
            except MigrationError as exc:
                conn.send(("error", f"adopt_shard {o}: {exc}"))
                continue
            shard = shards[o] = open_shard(o)
            if poison == POISON_AFTER_ADOPT:
                os._exit(1)  # died with the replica installed, unacked
            conn.send(
                ("adopted", (shard.next_tick, shard.busy_snapshot(), adopted))
            )
        elif op == "release_shard":
            # Idempotent cleanup of the shard's journal and snapshots:
            # safe on a worker that never owned (or already released) it.
            o = msg[1]
            shards.pop(o, None)
            durability.release(o)
            conn.send(("ok",))
        elif op == "busy":
            conn.send(
                ("busy", {o: s.busy_snapshot() for o, s in shards.items()})
            )
        elif op == "poison":
            poison = msg[1]
            if poison == POISON_STALL:
                stall_s = float(msg[2]) if len(msg) > 2 else 60.0
            conn.send(("ok",))
        elif op == "stop":
            durability.close()
            conn.send(("ok",))
            break
        else:
            conn.send(("error", f"unknown op {op!r}"))


# -- parent-side pool --------------------------------------------------------


class _WorkerUnresponsive(Exception):
    """A live worker process stopped answering within the pool's receive
    timeout (wedged, not dead) — the caller kills and respawns it."""


class _WorkerHandle:
    __slots__ = (
        "worker_id",
        "process",
        "conn",
        "lock",
        "respawns",
        "retired",
        "partitioned",
    )

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.process = None
        self.conn = None
        self.lock = threading.Lock()
        self.respawns = 0
        # A retired worker's id stays allocated (ids are dense list
        # indices) but it has no process and accepts no calls.
        self.retired = False
        # Chaos hook (partition_worker): while True, calls fail fast as
        # WorkerProcessError — the parent-side view of an edge↔worker
        # partition (the process is fine; we just cannot reach it).
        self.partitioned = False


class ProcessShardPool:
    """Spawns, supervises, and talks to the shard worker processes.

    ``call`` is the only RPC surface: it is thread-safe per worker, runs
    on the pool's executor (so asyncio callers use
    :meth:`call_async`), respawns dead workers (journal recovery happens
    in the worker's ``__init__``) and retries the payload — safe because
    ticks are idempotent on redelivery.
    """

    #: Respawn-and-retry attempts per call before giving up.
    MAX_RETRIES = 3

    def __init__(
        self,
        n_fibers: int,
        scheme: "ConversionScheme",
        scheduler: "Scheduler",
        policy: "GrantPolicy",
        *,
        n_workers: int = 2,
        journal_dir: str | os.PathLike | None = None,
        unresponsive_timeout: float = 30.0,
        telemetry=None,
    ) -> None:
        self.n_fibers = check_positive_int(n_fibers, "n_fibers")
        check_positive_int(n_workers, "n_workers")
        if unresponsive_timeout <= 0:
            raise InvalidParameterError(
                "unresponsive_timeout must be > 0, got "
                f"{unresponsive_timeout}"
            )
        self.scheme = scheme
        self.scheduler = scheduler
        self.policy = policy
        self.journal_dir = None if journal_dir is None else str(journal_dir)
        #: How long ``_recv`` waits for a *live* worker before declaring
        #: it wedged.  A wedged worker is killed and respawned like a
        #: crashed one (ticks are idempotent on redelivery).
        self.unresponsive_timeout = float(unresponsive_timeout)
        self.telemetry = telemetry
        self._c_unresponsive = (
            None if telemetry is None
            else telemetry.counter("procpool.unresponsive")
        )
        self.ring = HashRing(range(n_workers))
        #: Live shard → worker map.  Seeded from the bounded-load ring,
        #: then *mutated* by live migration: :meth:`set_owner` flips one
        #: entry atomically between ticks, and worker respawns read this
        #: map (never the ring), so a respawned worker reopens exactly the
        #: shards it currently owns.
        self.placement = self.ring.placement(n_fibers)
        self._ctx = mp.get_context("spawn")
        self._workers = [_WorkerHandle(i) for i in range(n_workers)]
        self._executor_width = n_workers
        self._executor = ThreadPoolExecutor(
            max_workers=n_workers, thread_name_prefix="repro-procpool"
        )
        self._closed = False
        # Start every worker before awaiting any: the interpreters boot
        # side by side instead of one after another.
        try:
            for h in self._workers:
                self._start(h)
            for h in self._workers:
                self._await_ready(h)
        except BaseException:
            for h in self._workers:
                self._kill(h)
            self._executor.shutdown(wait=True)
            raise

    @property
    def n_workers(self) -> int:
        """Allocated worker ids (including retired ones — see
        :meth:`active_workers` for the live set)."""
        return len(self._workers)

    def active_workers(self) -> list[int]:
        """Ascending ids of workers that accept calls (not retired)."""
        return [h.worker_id for h in self._workers if not h.retired]

    def shards_of(self, worker_id: int) -> list[int]:
        """Ascending shards currently placed on ``worker_id`` (live map,
        not the ring — migrations move entries)."""
        return sorted(o for o, w in self.placement.items() if w == worker_id)

    def set_owner(self, shard: int, worker_id: int) -> None:
        """Atomically flip one shard's owner (the migration engine's FLIP
        phase; callers must hold the tick boundary)."""
        if not 0 <= shard < self.n_fibers:
            raise InvalidParameterError(
                f"shard must be in [0, {self.n_fibers}), got {shard}"
            )
        h = self._check_worker(worker_id)
        if h.retired:
            raise WorkerProcessError(
                f"worker {worker_id} is retired; cannot own shard {shard}"
            )
        self.placement[shard] = worker_id

    def _check_worker(self, worker_id: int) -> _WorkerHandle:
        if not 0 <= worker_id < len(self._workers):
            raise InvalidParameterError(
                f"no worker {worker_id} (ids 0..{len(self._workers) - 1})"
            )
        return self._workers[worker_id]

    # -- lifecycle ----------------------------------------------------------

    def _spawn(self, h: _WorkerHandle) -> None:
        self._start(h)
        self._await_ready(h)

    def _start(self, h: _WorkerHandle) -> None:
        """Start ``h``'s process; :meth:`_await_ready` awaits its handshake."""
        parent_conn, child_conn = self._ctx.Pipe()
        h.process = self._ctx.Process(
            target=worker_main,
            args=(
                child_conn,
                h.worker_id,
                self.shards_of(h.worker_id),
                self.scheme,
                self.scheduler,
                self.policy,
                self.journal_dir,
            ),
            name=f"repro-shard-worker-{h.worker_id}",
            daemon=True,
        )
        h.process.start()
        child_conn.close()
        h.conn = parent_conn

    def _await_ready(self, h: _WorkerHandle) -> None:
        """Wait for ``h``'s ``ready`` handshake; any failure to start,
        including dying first, raises :class:`WorkerProcessError`."""
        try:
            # Start-up is not a liveness question: a fresh interpreter +
            # journal replay legitimately takes longer than a tuned-down
            # ``unresponsive_timeout``, so the ready handshake gets its
            # own (generous) budget.
            tag, _payload = self._recv(
                h, timeout=max(30.0, self.unresponsive_timeout)
            )
        except (EOFError, OSError, _WorkerUnresponsive) as exc:
            raise WorkerProcessError(
                f"worker {h.worker_id} failed to start: {exc}"
            ) from exc
        if tag != "ready":
            raise WorkerProcessError(
                f"worker {h.worker_id} failed to start: {tag!r}"
            )

    def _recv(self, h: _WorkerHandle, timeout: float | None = None):
        """Receive one reply, noticing a dead process promptly.

        ``timeout`` defaults to the pool's ``unresponsive_timeout``;
        exceeding it raises :class:`_WorkerUnresponsive` so ``call`` can
        kill and respawn the wedged process.
        """
        if timeout is None:
            timeout = self.unresponsive_timeout
        waited = 0.0
        step = 0.02
        while not h.conn.poll(step):
            waited += step
            if not h.process.is_alive():
                raise EOFError(f"worker {h.worker_id} died")
            if waited >= timeout:
                raise _WorkerUnresponsive(
                    f"worker {h.worker_id} unresponsive for {timeout}s"
                )
        return h.conn.recv()

    def call(self, worker_id: int, op: str, *args) -> Any:
        """Send one op and wait for its reply, respawning on crash."""
        if self._closed:
            raise WorkerProcessError("pool is stopped")
        h = self._check_worker(worker_id)
        if h.retired:
            raise WorkerProcessError(f"worker {worker_id} is retired")
        if h.partitioned:
            raise WorkerProcessError(
                f"worker {worker_id} unreachable (partitioned)"
            )
        with h.lock:
            last: BaseException | None = None
            for _attempt in range(self.MAX_RETRIES):
                try:
                    if h.conn is None or not h.process.is_alive():
                        raise EOFError(f"worker {worker_id} is down")
                    h.conn.send((op, *args))
                    tag, *payload = self._recv(h)
                    if tag == "error":
                        raise WorkerProcessError(
                            f"worker {worker_id}: {payload[0]}"
                        )
                    return payload[0] if payload else None
                except (
                    EOFError, OSError, BrokenPipeError, _WorkerUnresponsive,
                ) as exc:
                    last = exc
                    if isinstance(exc, _WorkerUnresponsive):
                        if self._c_unresponsive is not None:
                            self._c_unresponsive.inc()
                    self._respawn_locked(h)
            raise WorkerProcessError(
                f"worker {worker_id} kept dying "
                f"({self.MAX_RETRIES} respawns)"
            ) from last

    async def call_async(
        self, loop: "asyncio.AbstractEventLoop", worker_id: int, op: str, *args
    ) -> Any:
        return await loop.run_in_executor(
            self._executor, lambda: self.call(worker_id, op, *args)
        )

    def _respawn_locked(self, h: _WorkerHandle) -> None:
        """Replace a dead or wedged worker (caller holds ``h.lock``).

        Kills the old process if it is still alive — an unresponsive
        worker must not linger next to its replacement (it would fight
        over the journal on the next respawn).
        """
        self._kill(h)
        h.respawns += 1
        self._spawn(h)

    def _kill(self, h: _WorkerHandle) -> None:
        """Close ``h``'s pipe and kill and reap its process, if any."""
        if h.conn is not None:
            h.conn.close()
            h.conn = None
        if h.process is not None:
            if h.process.is_alive():
                h.process.kill()
            h.process.join(timeout=5.0)

    # -- elasticity ----------------------------------------------------------

    def add_worker(self) -> int:
        """Spawn a fresh worker with no shards; returns its id.

        The autoscaler's scale-out primitive: the new worker only becomes
        useful once the migration engine moves shards onto it.  Grows the
        call executor so every active worker still gets its own thread
        (safe between ticks — no calls are in flight at the boundary).
        """
        if self._closed:
            raise WorkerProcessError("pool is stopped")
        worker_id = len(self._workers)
        h = _WorkerHandle(worker_id)
        self._workers.append(h)
        n_active = len(self.active_workers())
        if n_active > self._executor_width:
            old = self._executor
            self._executor_width = n_active
            self._executor = ThreadPoolExecutor(
                max_workers=n_active, thread_name_prefix="repro-procpool"
            )
            old.shutdown(wait=True)
        self._spawn(h)
        return worker_id

    def remove_worker(self, worker_id: int) -> None:
        """Retire an empty worker: stop its process, refuse future calls.

        The worker must own no shards (migrate them away first) — the
        pool refuses to orphan placed shards.  Idempotent.  Ids are never
        reused; :meth:`active_workers` shrinks instead.
        """
        h = self._check_worker(worker_id)
        if h.retired:
            return
        owned = self.shards_of(worker_id)
        if owned:
            raise WorkerProcessError(
                f"worker {worker_id} still owns shards {owned}; "
                "migrate them away before removing it"
            )
        if len(self.active_workers()) <= 1:
            raise WorkerProcessError(
                "cannot remove the last active worker"
            )
        with h.lock:
            self._shutdown_worker_locked(h)
            h.retired = True

    # -- chaos / shutdown ----------------------------------------------------

    def kill_worker(self, worker_id: int) -> None:
        """Hard-kill a worker (tests/chaos): SIGKILL, no cleanup."""
        h = self._check_worker(worker_id)
        if h.process is not None and h.process.is_alive():
            h.process.kill()
            h.process.join(timeout=5.0)

    def partition_worker(self, worker_id: int, active: bool = True) -> None:
        """Simulate an edge↔worker partition (tests/chaos).

        While active, :meth:`call` fails fast with
        :class:`WorkerProcessError` — the process itself keeps running
        with its state intact, exactly like a network split.  Pass
        ``active=False`` to heal.
        """
        self._check_worker(worker_id).partitioned = active

    def _shutdown_worker_locked(self, h: _WorkerHandle) -> None:
        """Cleanly stop one worker process (caller holds ``h.lock``)."""
        try:
            if h.conn is not None and h.process.is_alive():
                h.conn.send(("stop",))
                self._recv(h, timeout=5.0)
        except (
            EOFError, OSError, BrokenPipeError, WorkerProcessError,
            _WorkerUnresponsive,
        ):
            pass
        finally:
            if h.conn is not None:
                h.conn.close()
                h.conn = None
            if h.process is not None:
                h.process.join(timeout=5.0)
                if h.process.is_alive():
                    h.process.kill()
                    h.process.join(timeout=5.0)

    def stop(self) -> None:
        """Stop every worker cleanly; idempotent."""
        if self._closed:
            return
        self._closed = True
        for h in self._workers:
            if h.retired:
                continue
            with h.lock:
                self._shutdown_worker_locked(h)
        self._executor.shutdown(wait=True)
