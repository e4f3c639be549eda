"""The multi-process sharded service: semantics, crashes, recovery.

Worker processes are spawned (not forked), so each service bring-up
costs real time — the tests share stacks where the scenarios allow it.
"""

import asyncio
import multiprocessing
import random
import shutil

import pytest

pytestmark = [pytest.mark.net, pytest.mark.slow]

from repro.core.distributed import SlotRequest
from repro.core.first_available import FirstAvailableScheduler
from repro.core.policies import FixedPriorityPolicy, RandomPolicy
from repro.errors import InvalidParameterError, WorkerProcessError
from repro.graphs.conversion import CircularConversion, NonCircularConversion
from repro.net.procpool import (
    POISON_AFTER_GRANT,
    POISON_BEFORE_REPLY,
    POISON_STALL,
    ProcessShardPool,
)
from repro.net.procservice import ProcessShardedService
from repro.service.breaker import BreakerConfig
from repro.service.durability import DurabilityConfig
from repro.service.journal import JournalRecord, RecordType, encode_record
from repro.service.queue import OverflowPolicy
from repro.service.server import Rejected, RejectReason, ServiceGrant
from tests.test_tick_isolation import OutOfWindowBFA

N_FIBERS, K = 4, 3


def _service(**kwargs) -> ProcessShardedService:
    kwargs.setdefault("n_workers", 2)
    return ProcessShardedService(
        N_FIBERS,
        NonCircularConversion(K, 1, 1),
        FirstAvailableScheduler(),
        **kwargs,
    )


def run(coro):
    return asyncio.run(coro)


class TestConstruction:
    def test_stateful_policy_is_accepted(self):
        # Pre-resharding builds refused stateful policies; the front now
        # owns the policy and ships each shard's slice with the tick
        # (see docs/SERVICE.md).
        async def go():
            service = _service(policy=RandomPolicy(seed=1))
            try:
                await service.tick()
            finally:
                await service.stop()

        run(go())

    def test_placement_covers_every_shard(self):
        async def go():
            service = _service()
            try:
                placement = service.placement
                assert sorted(placement) == list(range(N_FIBERS))
                assert set(placement.values()) <= set(
                    range(service.n_workers)
                )
                # Both workers own shards (bounded-load floor).
                assert len(set(placement.values())) == 2
            finally:
                await service.stop()

        run(go())


class TestTickSemantics:
    def test_grants_contention_and_busy_cross_process(self):
        async def go():
            service = _service()
            try:
                # Three inputs race for output 0 wavelength 0 (reachable
                # channels {0, 1} under (1,1) conversion — some must lose);
                # an independent request on another shard lands too.
                futs = [
                    service.submit_nowait(SlotRequest(i, 0, 0, duration=3))
                    for i in range(3)
                ]
                futs.append(service.submit_nowait(SlotRequest(3, 1, 1)))
                n = await service.tick()
                outcomes = [await f for f in futs]
                grants = [o for o in outcomes if isinstance(o, ServiceGrant)]
                rejects = [o for o in outcomes if isinstance(o, Rejected)]
                assert n == len(grants)
                assert len(grants) + len(rejects) == 4
                # wl 0 reaches 2 channels: the 3-way race grants exactly 2.
                assert sum(
                    1 for g in grants if g.request.output_fiber == 0
                ) == 2
                assert any(g.request.output_fiber == 1 for g in grants)
                assert all(
                    r.reason is RejectReason.CONTENTION for r in rejects
                )
                # The owning worker's busy[] reflects the duration-3 hold
                # (one tick already elapsed at commit).
                busy0 = service.worker_busy(0)
                assert max(busy0) == 2
                # Idle shards' clocks advanced too (no stuck channels).
                assert all(b == 0 for b in service.worker_busy(2))
            finally:
                await service.stop()

        run(go())

    def test_conservation_over_random_load(self):
        async def go():
            import random

            rng = random.Random(42)
            service = _service()
            try:
                futures = []
                for _ in range(60):
                    futures.append(
                        service.submit_nowait(
                            SlotRequest(
                                rng.randrange(N_FIBERS),
                                rng.randrange(K),
                                rng.randrange(N_FIBERS),
                            )
                        )
                    )
                    if rng.random() < 0.3:
                        await service.tick()
                await service.drain()
                # A queue drained at the admission layer can still hold
                # blocked requeues; a few extra ticks settle everything.
                outcomes = await asyncio.wait_for(
                    asyncio.gather(*futures), 30
                )
                granted = sum(
                    1 for o in outcomes if isinstance(o, ServiceGrant)
                )
                rejected = sum(1 for o in outcomes if isinstance(o, Rejected))
                assert granted + rejected == 60
                assert granted > 0
            finally:
                await service.stop()

        run(go())

    def test_dedup_replays_grant_exactly_once(self):
        async def go():
            service = _service(dedup_capacity=16)
            try:
                f1 = service.submit_nowait(
                    SlotRequest(0, 0, 0), request_id="req-1"
                )
                await service.tick()
                out1 = await f1
                assert isinstance(out1, ServiceGrant)
                # Same id again: the original grant replays, nothing is
                # scheduled twice.
                f2 = service.submit_nowait(
                    SlotRequest(0, 0, 0), request_id="req-1"
                )
                out2 = await f2
                assert out2 is out1
                assert service.queue_depth_total == 0
            finally:
                await service.stop()

        run(go())

    def test_queue_overflow_rejects(self):
        async def go():
            service = _service(queue_capacity=2)
            try:
                futs = [
                    service.submit_nowait(SlotRequest(i % N_FIBERS, 0, 0))
                    for i in range(3)
                ]
                out = await futs[2]
                assert isinstance(out, Rejected)
                assert out.reason is RejectReason.QUEUE_FULL
            finally:
                await service.stop()

        run(go())

    def test_stop_flushes_queued_as_shutdown(self):
        async def go():
            service = _service()
            fut = service.submit_nowait(SlotRequest(0, 0, 0))
            await service.stop()
            out = await fut
            assert isinstance(out, Rejected)
            assert out.reason is RejectReason.SHUTDOWN

        run(go())


class TestCrashRecovery:
    def test_kill_worker_respawns_with_busy_intact(self, tmp_path):
        async def go():
            service = _service(journal_dir=tmp_path)
            try:
                fut = service.submit_nowait(SlotRequest(0, 0, 0, duration=5))
                await service.tick()
                assert isinstance(await fut, ServiceGrant)
                busy_before = service.worker_busy(0)
                assert max(busy_before) == 4
                victim = service.placement[0]
                service.kill_worker(victim)
                # The next access respawns the worker; journal replay
                # rebuilds the channel clock exactly.
                assert service.worker_busy(0) == busy_before
                # And ticking still works (clock keeps decaying).
                await service.tick()
                assert max(service.worker_busy(0)) == 3
            finally:
                await service.stop()

        run(go())

    def test_torn_tail_is_cut_before_new_appends(self, tmp_path):
        """A record torn by the kill is cut off at respawn, so the records
        the respawned worker appends after it stay readable at the next
        respawn."""

        async def go():
            service = _service(journal_dir=tmp_path)
            try:
                service.submit_nowait(SlotRequest(0, 0, 0, duration=5))
                await service.tick()
                victim = service.placement[0]
                service.kill_worker(victim)
                wal = tmp_path / f"worker-{victim}" / "shard-0000.wal"
                with open(wal, "ab") as fh:
                    fh.write(b"\x00\x00\x00\x30torn")
                await service.tick()
                await service.tick()
                busy = service.worker_busy(0)
                assert max(busy) == 2
                service.kill_worker(victim)
                assert service.worker_busy(0) == busy
            finally:
                await service.stop()

        run(go())

    def test_poison_after_grant_redelivery_is_idempotent(self, tmp_path):
        """Worker dies between journaling grants and advancing: the
        parent's retry re-runs the tick on the respawned worker, which
        strips the uncommitted write-ahead and re-schedules — the caller
        sees exactly one grant."""

        async def go():
            service = _service(journal_dir=tmp_path)
            try:
                victim = service.placement[0]
                service.pool.call(victim, "poison", POISON_AFTER_GRANT)
                fut = service.submit_nowait(SlotRequest(0, 0, 0, duration=2))
                n = await service.tick()
                out = await fut
                assert n == 1
                assert isinstance(out, ServiceGrant)
                assert max(service.worker_busy(0)) == 1
                # Exactly one respawn happened.
                assert service.pool._workers[victim].respawns == 1
            finally:
                await service.stop()

        run(go())

    def test_poison_before_reply_answers_from_journal(self, tmp_path):
        """Worker dies after completing the tick but before replying: the
        redelivered tick is behind the recovered clock, so the respawned
        worker answers from the journal — same grants, not re-scheduled
        against the already-advanced busy[]."""

        async def go():
            service = _service(journal_dir=tmp_path)
            try:
                victim = service.placement[0]
                service.pool.call(victim, "poison", POISON_BEFORE_REPLY)
                fut = service.submit_nowait(SlotRequest(0, 0, 0, duration=4))
                n = await service.tick()
                out = await fut
                assert n == 1
                assert isinstance(out, ServiceGrant)
                # The completed tick advanced before the kill; the journal
                # answer must not double-apply the hold or re-advance.
                assert max(service.worker_busy(0)) == 3
            finally:
                await service.stop()

        run(go())


class TestPoolEdges:
    def test_call_after_stop_raises_typed(self):
        pool = ProcessShardPool(
            N_FIBERS,
            NonCircularConversion(K, 1, 1),
            FirstAvailableScheduler(),
            None,
            n_workers=1,
        )
        pool.stop()
        pool.stop()  # idempotent
        with pytest.raises(WorkerProcessError, match="stopped"):
            pool.call(0, "busy")

    def test_unknown_op_is_a_typed_error(self):
        pool = ProcessShardPool(
            N_FIBERS,
            NonCircularConversion(K, 1, 1),
            FirstAvailableScheduler(),
            None,
            n_workers=1,
        )
        try:
            with pytest.raises(WorkerProcessError, match="unknown op"):
                pool.call(0, "no-such-op")
        finally:
            pool.stop()

    @pytest.mark.parametrize("worker_id", [-1, 1])
    def test_kill_worker_rejects_unknown_ids(self, worker_id):
        pool = ProcessShardPool(
            N_FIBERS,
            NonCircularConversion(K, 1, 1),
            FirstAvailableScheduler(),
            None,
            n_workers=1,
        )
        try:
            with pytest.raises(InvalidParameterError, match="no worker"):
                pool.kill_worker(worker_id)
            # Nothing was killed: -1 must not wrap to the last worker.
            assert pool._workers[0].process.is_alive()
            pool.call(0, "busy")
            assert pool._workers[0].respawns == 0
        finally:
            pool.stop()


class TestWorkerStartup:
    """A worker that dies before its ``ready`` handshake is a typed
    :class:`WorkerProcessError`, and a failed constructor leaves no
    process behind."""

    def test_constructor_failure_is_typed_and_reaps_workers(self, tmp_path):
        # A regular file where worker 1's journal directory belongs:
        # worker 1 dies on mkdir while worker 0 starts normally.
        (tmp_path / "worker-1").write_text("not a directory")
        with pytest.raises(WorkerProcessError, match="failed to start") as ei:
            ProcessShardPool(
                N_FIBERS,
                NonCircularConversion(K, 1, 1),
                FirstAvailableScheduler(),
                FixedPriorityPolicy(),
                n_workers=2,
                journal_dir=tmp_path,
            )
        assert isinstance(ei.value.__cause__, (EOFError, OSError))
        assert multiprocessing.active_children() == []

    def test_respawn_dying_before_ready_is_typed(self, tmp_path):
        pool = ProcessShardPool(
            N_FIBERS,
            NonCircularConversion(K, 1, 1),
            FirstAvailableScheduler(),
            FixedPriorityPolicy(),
            n_workers=2,
            journal_dir=tmp_path,
        )
        try:
            pool.kill_worker(1)
            shutil.rmtree(tmp_path / "worker-1")
            (tmp_path / "worker-1").write_text("not a directory")
            with pytest.raises(WorkerProcessError, match="failed to start"):
                pool.call(1, "busy")
            assert pool.call(0, "busy") is not None
        finally:
            pool.stop()
        assert multiprocessing.active_children() == []


class TestPartitionUnavailable:
    """Edge↔worker partitions degrade to typed UNAVAILABLE rejects and
    feed the breakers; healing replays missed slots (PR 10)."""

    def test_partition_degrades_then_heals(self):
        async def go():
            service = _service(
                breaker=BreakerConfig(failure_threshold=1, reset_ticks=2)
            )
            try:
                victim = service.placement[0]
                dark = set(service.pool.shards_of(victim))
                healthy_out = next(
                    o for o in range(N_FIBERS) if o not in dark
                )
                service.pool.partition_worker(victim)

                # Slot 0: the dark shard's request degrades UNAVAILABLE;
                # the healthy worker's shard still grants — a partition
                # never blows up the whole tick.
                f_dark = service.submit_nowait(SlotRequest(0, 0, 0))
                f_ok = service.submit_nowait(SlotRequest(1, 0, healthy_out))
                await service.tick()
                out = await f_dark
                assert isinstance(out, Rejected)
                assert out.reason is RejectReason.UNAVAILABLE
                assert isinstance(await f_ok, ServiceGrant)

                # The failure opened shard 0's breaker: the next submit
                # short-circuits CIRCUIT_OPEN without touching the pool.
                out = await service.submit_nowait(SlotRequest(0, 0, 0))
                assert isinstance(out, Rejected)
                assert out.reason is RejectReason.CIRCUIT_OPEN

                # Heal.  The next ticks redeliver the missed slots to the
                # worker (catch-up ADVANCE), and once reset_ticks elapse
                # the half-open probe goes through and closes the breaker.
                service.pool.partition_worker(victim, active=False)
                await service.tick()
                await service.tick()
                f_probe = service.submit_nowait(SlotRequest(0, 0, 0))
                await service.tick()
                assert isinstance(await f_probe, ServiceGrant)

                counters = service.telemetry.snapshot()["counters"]
                assert counters["server.rejected.unavailable"] == 1
                assert counters["server.rejected.circuit_open"] == 1
                # Conservation: every submission resolved exactly once.
                assert counters["server.submitted"] == 4
                assert counters["server.granted"] == 2
                assert (
                    counters["server.granted"]
                    + counters["server.rejected.unavailable"]
                    + counters["server.rejected.circuit_open"]
                    == counters["server.submitted"]
                )
            finally:
                await service.stop()

        run(go())

    def test_partitioned_call_fails_fast_without_respawn(self):
        pool = ProcessShardPool(
            N_FIBERS,
            NonCircularConversion(K, 1, 1),
            FirstAvailableScheduler(),
            None,
            n_workers=1,
        )
        try:
            pool.partition_worker(0)
            with pytest.raises(WorkerProcessError, match="partitioned"):
                pool.call(0, "busy")
            # The process is alive the whole time — a partition is a
            # network condition, not a crash.
            assert pool._workers[0].respawns == 0
            pool.partition_worker(0, active=False)
            pool.call(0, "busy")  # healed: answers again
        finally:
            pool.stop()


class TestUnresponsiveWorker:
    """A wedged (not dead) worker trips the pool's receive timeout and is
    killed + respawned — configurable, observable, fast (PR 10)."""

    def test_stalled_worker_is_replaced_within_timeout(self):
        async def go():
            service = _service(unresponsive_timeout=0.3)
            try:
                victim = service.placement[0]
                # Wedge the worker for far longer than the pool tolerates
                # (but far less than the legacy hardwired 30 s).
                service.pool.call(victim, "poison", POISON_STALL, 2.0)
                loop = asyncio.get_running_loop()
                t0 = loop.time()
                fut = service.submit_nowait(SlotRequest(0, 0, 0))
                n = await service.tick()
                out = await fut
                elapsed = loop.time() - t0
                assert n == 1
                assert isinstance(out, ServiceGrant)
                # One kill + respawn, attributed in telemetry.
                assert service.pool._workers[victim].respawns == 1
                counters = service.telemetry.snapshot()["counters"]
                assert counters["procpool.unresponsive"] >= 1
                # The whole recovery ran on the configured budget, not
                # the old 30-second constant.
                assert elapsed < 10.0
            finally:
                await service.stop()

        run(go())

    def test_unresponsive_timeout_is_validated(self):
        with pytest.raises(InvalidParameterError, match="unresponsive"):
            ProcessShardPool(
                N_FIBERS,
                NonCircularConversion(K, 1, 1),
                FirstAvailableScheduler(),
                None,
                n_workers=1,
                unresponsive_timeout=0.0,
            )


class TestWorkerSnapshots:
    """Worker shards snapshot and compact like in-process ones, and every
    rebuild — respawn, redelivery rewind, crash rewind — starts from the
    latest snapshot at or before its target tick."""

    INTERVAL = DurabilityConfig().snapshot_interval

    def test_idle_journal_stays_bounded(self, tmp_path):
        """Each shard's journal bytes after 2000 idle slots stay within
        one snapshot interval's records of its bytes after 500."""
        one_interval = self.INTERVAL * len(
            encode_record(JournalRecord(RecordType.ADVANCE, 0))
        ) + len(encode_record(JournalRecord(RecordType.SNAPSHOT, 0, (0,))))

        def sizes():
            wals = sorted((tmp_path / "worker-0").glob("shard-*.wal"))
            assert len(wals) == 2
            return [wal.stat().st_size for wal in wals]

        async def go():
            service = ProcessShardedService(
                2,
                NonCircularConversion(K, 1, 1),
                FirstAvailableScheduler(),
                n_workers=1,
                journal_dir=tmp_path,
            )
            try:
                await service.run_ticks(500)
                at_500 = sizes()
                await service.run_ticks(1500)
                return at_500, sizes()
            finally:
                await service.stop()

        at_500, at_2000 = run(go())
        for before, after in zip(at_500, at_2000):
            assert abs(after - before) <= one_interval, (at_500, at_2000)

    @staticmethod
    def _drill(tmp_path, poison):
        """Three-plus intervals of seeded multi-slot traffic on one worker.

        At each slot whose advance takes a snapshot (``interval − 1`` and
        ``2·interval − 1``) shard 1's scheduler crashes (a λ5 request
        under :class:`OutOfWindowBFA`) and, with ``poison``, the worker
        dies there too.  Returns every outcome, every shard's ``busy[]``
        after every slot, and the respawn count."""
        interval = TestWorkerSnapshots.INTERVAL
        snapshot_slots = (interval - 1, 2 * interval - 1)
        rng = random.Random(31)
        schedule = []
        for slot in range(3 * interval + 4):
            requests = [
                SlotRequest(i, rng.randrange(4), rng.randrange(3),
                            duration=rng.randint(1, 6))
                for i in range(3)
                if rng.random() < 0.7
            ]
            if slot in snapshot_slots:
                requests.append(SlotRequest(0, 5, 1))  # crashes shard 1
                requests.append(SlotRequest(2, 4, 0))  # a grant to lose
            schedule.append(requests)

        async def go():
            service = ProcessShardedService(
                3,
                CircularConversion(6, 1, 1),
                OutOfWindowBFA(),
                n_workers=1,
                journal_dir=tmp_path,
            )
            try:
                futures, busy = [], []
                for slot, requests in enumerate(schedule):
                    if poison is not None and slot in snapshot_slots:
                        service.pool.call(0, "poison", poison)
                    futures += [service.submit_nowait(r) for r in requests]
                    await service.tick()
                    busy.append(service.pool.call(0, "busy"))
                outcomes = [
                    (o.slot, o.channel)
                    if isinstance(o, ServiceGrant)
                    else (o.slot, o.reason)
                    for o in [await f for f in futures]
                ]
                return outcomes, busy, service.pool._workers[0].respawns
            finally:
                await service.stop()

        return run(go())

    @pytest.mark.parametrize(
        "poison", [POISON_BEFORE_REPLY, POISON_AFTER_GRANT]
    )
    def test_rewind_across_a_snapshot_boundary(self, tmp_path, poison):
        outcomes, busy, respawns = self._drill(tmp_path / "clean", None)
        assert respawns == 0
        snapshot_slots = {self.INTERVAL - 1, 2 * self.INTERVAL - 1}
        down = {s for s, why in outcomes if why is RejectReason.SHARD_DOWN}
        assert down == snapshot_slots
        # Both poisons need a grant at each poisoned slot to lose.
        granted = {s for s, channel in outcomes if isinstance(channel, int)}
        assert snapshot_slots <= granted

        drilled = self._drill(tmp_path / "poisoned", poison)
        assert drilled == (outcomes, busy, 2)
        snaps = sorted(
            (tmp_path / "poisoned" / "worker-0").glob("shard-0001.tick-*.snap")
        )
        assert [p.name[-16:-5] for p in snaps] == [
            f"{2 * self.INTERVAL:011d}", f"{3 * self.INTERVAL:011d}"
        ]
