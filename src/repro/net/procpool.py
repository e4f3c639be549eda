"""Shard workers in OS processes: spawn, RPC, crash recovery, respawn.

Each worker process owns the shards the consistent-hash ring places on
it (:mod:`repro.net.placement`): their ``busy[]`` channel clocks, their
scheduler, and — when a journal directory is given — one write-ahead
journal per shard in the worker's **own directory**
(``<journal_dir>/worker-<i>/shard-<o>.wal``), so two processes never
share a file.

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
  journal, and replays the rest to rebuild ``busy[]`` exactly;
* a tick the worker already completed (its slot is behind the recovered
  clock) is answered **from the journal** — the replayed GRANT records —
  never re-scheduled, so parent retries after a crash-between-commit-and
  -reply return bit-identical grants.

The parent's retry loop (:meth:`ProcessShardPool.call`) respawns a dead
worker and re-sends the same payload; repeated failures of one call
raise a typed :class:`~repro.errors.WorkerProcessError`.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from repro.core.distributed import FiberRow, SlotRequest, schedule_tick
from repro.errors import (
    InvalidParameterError,
    MigrationError,
    ShardDownError,
    WorkerProcessError,
)
from repro.net.placement import HashRing
from repro.service.durability import replay_journal
from repro.service.journal import (
    FAULT_CRASH,
    FileJournal,
    MemoryJournal,
    RecordType,
    ShardJournal,
)
from repro.service.resharding import HandoffPayload
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


class _WorkerShard:
    """One owned shard inside a worker process: clock + journal."""

    __slots__ = ("output_fiber", "busy", "journal", "next_tick")

    def __init__(self, output_fiber: int, k: int, journal: ShardJournal) -> None:
        self.output_fiber = output_fiber
        self.journal = journal
        # Strip the write-ahead of an in-flight tick: everything after the
        # last ADVANCE is GRANTs the parent never saw committed, and the
        # parent will re-send that tick.  Keeping them would double-apply.
        records, _torn = journal.reload()
        last_advance = -1
        for i, rec in enumerate(records):
            if rec.type is RecordType.ADVANCE:
                last_advance = i
        kept = records[: last_advance + 1]
        if len(kept) != len(records):
            journal.rewrite_records(kept)
        busy, _queue, tick, _n = replay_journal(kept, None, k)
        self.busy = busy
        self.next_tick = tick

    def availability(self) -> list[bool]:
        return [b == 0 for b in self.busy]

    def advance(self, slot: int) -> None:
        self.journal.advance(slot)
        self.busy = [b - 1 if b > 0 else 0 for b in self.busy]
        self.next_tick = slot + 1

    def replayed_grants(self, slot: int) -> list[tuple[int, int, int, int]]:
        """GRANT tuples this shard journaled for an already-run ``slot``."""
        out: list[tuple[int, int, int, int]] = []
        for rec in self.journal.records():
            if rec.type is RecordType.GRANT and rec.tick == slot:
                v = rec.values
                out.extend(
                    (v[i], v[i + 1], v[i + 2], v[i + 3])
                    for i in range(0, len(v), 4)
                )
        return out

    def crashed_at(self, slot: int) -> bool:
        """Whether this shard journaled a scheduling crash at ``slot``."""
        return any(
            rec.type is RecordType.FAULT
            and rec.tick == slot
            and rec.values[0] == FAULT_CRASH
            for rec in self.journal.records()
        )


def _journal_path(journal_dir: str, worker_id: int, o: int) -> Path:
    return Path(journal_dir) / f"worker-{worker_id}" / f"shard-{o}.wal"


def _open_journal(journal_dir: str | None, worker_id: int, o: int) -> ShardJournal:
    if journal_dir is None:
        return ShardJournal(MemoryJournal())
    path = _journal_path(journal_dir, worker_id, o)
    path.parent.mkdir(parents=True, exist_ok=True)
    return ShardJournal(FileJournal(path))


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
    shards = {
        o: _WorkerShard(o, scheme.k, _open_journal(journal_dir, worker_id, o))
        for o in shard_ids
    }
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
            # One batch-kernel call for every owned shard of this tick
            # (schedule_tick, the same function the in-process service
            # ticks with).  Reply entries are (o, grant tuples, rejected
            # pairs), or (o, None, reason) for a shard that crashed.
            _slot, work = msg[1], msg[2]
            result: list[tuple[int, list | None, list | str]] = []
            rows: list[FiberRow] = []
            for o, req_tuples in work:
                shard = shards[o]
                requests = [SlotRequest(*t) for t in req_tuples]
                if _slot < shard.next_tick:
                    # Redelivery of a completed tick: answer from the
                    # journal, never re-schedule (busy[] has moved on).
                    if shard.crashed_at(_slot):
                        result.append((o, None, "crashed (replayed)"))
                        continue
                    winners = shard.replayed_grants(_slot)
                    won = {(w[0], w[1]) for w in winners}
                    rejected = [
                        (r.input_fiber, r.wavelength)
                        for r in requests
                        if (r.input_fiber, r.wavelength) not in won
                    ]
                    result.append((o, winners, rejected))
                    continue
                # Catch up slots this shard missed while its worker was
                # unreachable (parent ticks kept running): pure journaled
                # clock decay, so availability reflects the start of
                # ``_slot`` exactly as if the worker had been up.
                while shard.next_tick < _slot:
                    shard.advance(shard.next_tick)
                rows.append(
                    FiberRow(o, requests, shard.availability(), scheduler)
                )
            granted_any = False
            for row, outcome in zip(rows, schedule_tick(scheme, policy, rows)):
                o = row.output_fiber
                entry = _commit_outcome(shards[o], _slot, outcome)
                granted_any = granted_any or bool(entry[0])
                result.append((o, *entry))
            if poison == POISON_AFTER_GRANT and granted_any:
                os._exit(1)  # died between grant journaling and advance
            for shard in shards.values():
                # The while form also catches up idle shards that missed
                # slots during a partition (journaled ADVANCE per missed
                # slot keeps crash replay exact).
                while shard.next_tick <= _slot:
                    shard.advance(shard.next_tick)
            if poison == POISON_BEFORE_REPLY:
                os._exit(1)  # died after completing, before replying
            conn.send(("tick_done", result))
        elif op == "run_shard":
            # Stateful-policy mode: one shard, policy state threaded
            # through the reply (see ProcessShardedService's stateful
            # tick).  Never answered from the journal — a respawn strips
            # this call's write-ahead GRANTs (they sit after the last
            # ADVANCE), so the retry re-runs the identical computation
            # on the identical pre-draw policy state.
            _slot, o, req_tuples, policy_state = msg[1], msg[2], msg[3], msg[4]
            shard = shards[o]
            if _slot < shard.next_tick:
                conn.send(
                    (
                        "error",
                        f"stateful tick {_slot} redelivered to shard {o} "
                        f"after its clock advanced to {shard.next_tick}",
                    )
                )
                continue
            policy.restore_state(policy_state)
            # Same missed-slot catch-up as run_tick (partition healing).
            while shard.next_tick < _slot:
                shard.advance(shard.next_tick)
            requests = [SlotRequest(*t) for t in req_tuples]
            row = FiberRow(o, requests, shard.availability(), scheduler)
            (outcome,) = schedule_tick(scheme, policy, [row])
            grant_tuples, rejected = _commit_outcome(shard, _slot, outcome)
            if grant_tuples and poison == POISON_AFTER_GRANT:
                os._exit(1)  # died between grant journaling and reply
            if poison == POISON_BEFORE_REPLY:
                os._exit(1)
            conn.send(
                ("shard_done", (grant_tuples, rejected, policy.export_state()))
            )
        elif op == "finish_tick":
            # Stateful-policy mode, end of tick: advance every owned
            # shard.  Self-healing: a respawn between the per-shard calls
            # and here stripped the already-granted shards' write-ahead
            # GRANTs, so the parent sends every shard's grant tuples back
            # and any shard whose journal lost them re-applies before
            # advancing (idempotent — a shard that kept its grants skips).
            _slot, grants_by_shard = msg[1], msg[2]
            for o, shard in shards.items():
                if _slot < shard.next_tick:
                    continue
                # Partition healing: decay the missed slots *before*
                # re-applying this slot's grants (they were computed
                # against availability at the start of ``_slot``).
                while shard.next_tick < _slot:
                    shard.advance(shard.next_tick)
                if not shard.replayed_grants(_slot):
                    tuples = grants_by_shard.get(o) or []
                    if tuples:
                        shard.journal.grant_batch(_slot, tuples)
                        for _in, _wl, ch, dur in tuples:
                            shard.busy[ch] = dur
                shard.advance(_slot)
            conn.send(("ok",))
        elif op == "export_shard":
            o = msg[1]
            shard = shards.get(o)
            if shard is None:
                conn.send(
                    ("error", f"worker {worker_id} does not own shard {o}")
                )
                continue
            payload = HandoffPayload.from_records(
                o,
                scheme.k,
                shard.next_tick,
                shard.busy,
                shard.journal.records(),
                policy.export_output_state(o),
            )
            conn.send(("handoff", payload.encode()))
        elif op == "adopt_shard":
            o, blob = msg[1], msg[2]
            try:
                payload = HandoffPayload.decode(blob)
                if payload.shard != o:
                    raise MigrationError(
                        f"payload is for shard {payload.shard}, not {o}"
                    )
                records = payload.records()
            except MigrationError as exc:
                conn.send(("error", f"adopt_shard {o}: {exc}"))
                continue
            # Idempotent: a retried adopt replaces the previous replica.
            old = shards.pop(o, None)
            if old is not None:
                old.journal.close()
            journal = _open_journal(journal_dir, worker_id, o)
            journal.rewrite_records(records)
            shard = _WorkerShard(o, scheme.k, journal)
            policy.absorb_output_state(o, payload.policy_state)
            shards[o] = shard
            if poison == POISON_AFTER_ADOPT:
                os._exit(1)  # died with the replica installed, unacked
            conn.send(("adopted", (shard.next_tick, list(shard.busy))))
        elif op == "release_shard":
            # Idempotent cleanup: safe on a worker that never owned (or
            # already released) the shard.
            o = msg[1]
            shard = shards.pop(o, None)
            if shard is not None:
                shard.journal.close()
            policy.discard_output_state(o)
            if journal_dir is not None:
                try:
                    _journal_path(journal_dir, worker_id, o).unlink(
                        missing_ok=True
                    )
                except OSError:
                    pass
            conn.send(("ok",))
        elif op == "busy":
            conn.send(("busy", {o: list(s.busy) for o, s in shards.items()}))
        elif op == "poison":
            poison = msg[1]
            if poison == POISON_STALL:
                stall_s = float(msg[2]) if len(msg) > 2 else 60.0
            conn.send(("ok",))
        elif op == "stop":
            for s in shards.values():
                s.journal.close()
            conn.send(("ok",))
            break
        else:
            conn.send(("error", f"unknown op {op!r}"))


def _commit_outcome(
    shard: _WorkerShard, slot: int, outcome
) -> tuple[list | None, list | str]:
    """Journal (write-ahead) and commit one shard's scheduled tick.

    Returns the reply pair ``(grant tuples, rejected (input, wavelength)
    pairs)``, or ``(None, reason)`` when the shard crashed while
    scheduling: nothing is granted, the crash is journaled for the audit
    trail, and the shard's clock is untouched (it lives on in this
    worker), so only this tick's requests are lost.
    """
    if isinstance(outcome, ShardDownError):
        shard.journal.fault(slot, FAULT_CRASH)
        return None, str(outcome)
    granted, rejected = outcome
    grant_tuples = [
        (
            g.request.input_fiber,
            g.request.wavelength,
            g.channel,
            g.request.duration,
        )
        for g in granted
    ]
    if grant_tuples:
        # Write-ahead: journal before committing.
        shard.journal.grant_batch(slot, grant_tuples)
        for _in, _wl, ch, dur in grant_tuples:
            shard.busy[ch] = dur
    return grant_tuples, [(r.input_fiber, r.wavelength) for r in rejected]


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
        ring_replicas: int = 256,
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
        self.ring_replicas = ring_replicas
        #: How long ``_recv`` waits for a *live* worker before declaring
        #: it wedged.  A wedged worker is killed and respawned like a
        #: crashed one (ticks are idempotent on redelivery).
        self.unresponsive_timeout = float(unresponsive_timeout)
        self.telemetry = telemetry
        self._c_unresponsive = (
            None if telemetry is None
            else telemetry.counter("procpool.unresponsive")
        )
        self.ring = HashRing(range(n_workers), replicas=ring_replicas)
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
        for h in self._workers:
            self._spawn(h)

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
        try:
            # Start-up is not a liveness question: a fresh interpreter +
            # journal replay legitimately takes longer than a tuned-down
            # ``unresponsive_timeout``, so the ready handshake gets its
            # own (generous) budget.
            tag, _payload = self._recv(
                h, timeout=max(30.0, self.unresponsive_timeout)
            )
        except _WorkerUnresponsive as exc:
            raise WorkerProcessError(str(exc)) from exc
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
        if h.conn is not None:
            h.conn.close()
            h.conn = None
        if h.process is not None:
            if h.process.is_alive():
                h.process.kill()
            h.process.join(timeout=5.0)
        h.respawns += 1
        self._spawn(h)

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
        h = self._workers[worker_id]
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
