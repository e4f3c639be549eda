"""Live shard migration (:mod:`repro.service.resharding`).

Three layers of coverage:

* the handoff, :meth:`DurabilityManager.export` / ``adopt`` —
  bit-identical round trips, typed :class:`~repro.errors.MigrationError`
  on truncation/corruption and on a snapshot of another shard or k, with
  nothing installed;
* the migration engine against real worker processes — placement flips,
  busy[] survives the move bit-identically, policy slices travel, and a
  run with migrations interleaved makes the same grants as one without;
* crash injection — an armed :class:`~repro.faults.CrashPoints` kills
  the engine at every phase of the state machine and a re-drive
  converges; a worker process dying *mid-handoff* (``os._exit`` after
  adoption) is healed by the pool's respawn+redeliver machinery.
"""

import asyncio

import pytest

pytestmark = [pytest.mark.net, pytest.mark.slow]

from repro.core.distributed import SlotRequest
from repro.core.first_available import FirstAvailableScheduler
from repro.core.policies import RoundRobinPolicy
from repro.errors import (
    CrashPointError,
    InvalidParameterError,
    MigrationError,
    WorkerProcessError,
)
from repro.faults import CrashPoints
from repro.graphs.conversion import NonCircularConversion
from repro.net.procpool import POISON_AFTER_ADOPT
from repro.net.procservice import ProcessShardedService
from repro.service.durability import DurabilityConfig, DurabilityManager
from repro.service.journal import RecordType
from repro.service.resharding import MIGRATION_PHASES, ShardMove
from repro.service.server import ServiceGrant
from repro.service.snapshot import ShardSnapshot, encode_snapshot
from repro.util.framing import encode_frame

N_FIBERS, K = 4, 3


def run(coro):
    return asyncio.run(coro)


def _service(**kwargs) -> ProcessShardedService:
    kwargs.setdefault("n_workers", 2)
    return ProcessShardedService(
        N_FIBERS,
        NonCircularConversion(K, 1, 1),
        FirstAvailableScheduler(),
        **kwargs,
    )


def _exporter(*, snapshot: bool = False) -> DurabilityManager:
    """Shard 2 of a k=3 placement after one granted slot; with
    ``snapshot``, also a snapshot entering slot 1 and one more grant."""
    manager = DurabilityManager(DurabilityConfig(), 0, K)
    journal = manager.journal(2)
    journal.grant_batch(0, [(0, 0, 1, 4)])
    journal.advance(0)
    if snapshot:
        manager.take_snapshot(2, 1, (0, 3, 0), (), None)
        journal.grant_batch(1, [(1, 0, 0, 2)])
        journal.advance(1)
    return manager


def _refused(destination: DurabilityManager, shard: int, blob, match=None):
    """``adopt`` raises :class:`MigrationError` and leaves what
    ``destination`` held for ``shard`` byte for byte as it was."""
    before = destination.export(shard)
    with pytest.raises(MigrationError, match=match):
        destination.adopt(shard, blob)
    assert destination.export(shard) == before


class TestHandoffPayload:
    """The handoff is :meth:`DurabilityManager.export`'s one frame;
    :meth:`DurabilityManager.adopt` checks all of it before installing."""

    def _destination(self) -> DurabilityManager:
        # Already holds a replica of shard 2, which a refused adopt keeps.
        destination = DurabilityManager(DurabilityConfig(), 0, K)
        destination.adopt(2, _exporter().export(2))
        return destination

    def test_round_trip_is_bit_identical(self):
        source = _exporter()
        blob = source.export(2)
        destination = DurabilityManager(DurabilityConfig(), 0, K)
        assert destination.adopt(2, blob) == 2
        rebuilt, exported = destination.recover(2), source.recover(2)
        assert (rebuilt.tick, rebuilt.busy) == (1, (0, 3, 0))
        assert (rebuilt.tick, rebuilt.busy) == (exported.tick, exported.busy)
        assert destination.export(2) == blob
        assert [r.type for r in destination.journal(2).records()] == [
            RecordType.GRANT,
            RecordType.ADVANCE,
        ]

    def test_round_trip_with_snapshot(self):
        blob = _exporter(snapshot=True).export(2)
        destination = DurabilityManager(DurabilityConfig(), 0, K)
        destination.adopt(2, blob)
        rebuilt = destination.recover(2)
        assert rebuilt.source == "snapshot+journal"
        assert rebuilt.snapshot_tick == 1
        assert (rebuilt.tick, rebuilt.busy) == (2, (1, 2, 0))
        assert destination.export(2) == blob

    def test_truncation_at_every_boundary_is_typed(self):
        destination = self._destination()
        for snapshot in (False, True):
            blob = _exporter(snapshot=snapshot).export(2)
            for cut in range(len(blob)):
                _refused(destination, 2, blob[:cut])

    def test_single_byte_corruption_is_typed(self):
        destination = self._destination()
        for snapshot in (False, True):
            blob = _exporter(snapshot=snapshot).export(2)
            for pos in range(len(blob)):
                hostile = bytearray(blob)
                hostile[pos] ^= 0xFF
                _refused(destination, 2, bytes(hostile))

    def test_trailing_garbage_is_typed(self):
        blob = _exporter(snapshot=True).export(2)
        destination = self._destination()
        _refused(destination, 2, blob + b"x")
        _refused(destination, 2, blob + blob)

    def test_bad_magic_is_typed(self):
        # Every CRC holds; the snapshot inside does not decode.
        snapshot = encode_snapshot(ShardSnapshot(2, 1, (0, 3, 0)))
        blob = encode_frame(encode_frame(b"NOPE" + snapshot[4:]))
        _refused(self._destination(), 2, blob, match="magic")

    def test_torn_journal_stream_is_typed(self):
        source = _exporter()
        # Half a record frame at the durable tail, as a severed write
        # leaves it.
        source.journal(2).backend.append(b"\x00\x00\x00\x13\x00")
        _refused(self._destination(), 2, source.export(2), match="torn")

    def test_snapshot_of_another_shard_is_typed(self):
        other = DurabilityManager(DurabilityConfig(), 0, K)
        other.take_snapshot(5, 32, (0, 4, 0), (), None)
        destination = self._destination()
        _refused(destination, 2, other.export(5), match="shard 5")
        assert destination.store.ticks(5) == ()
        fresh = DurabilityManager(DurabilityConfig(), 0, K)
        with pytest.raises(MigrationError):
            fresh.adopt(2, other.export(5))
        assert fresh.store.ticks(5) == ()
        assert fresh.recover(2).source == "cold"

    def test_snapshot_of_another_k_is_typed(self):
        wide = DurabilityManager(DurabilityConfig(), 0, 5)
        wide.take_snapshot(1, 32, (0, 4, 0, 9, 9), (), None)
        destination = DurabilityManager(DurabilityConfig(), 0, K)
        _refused(destination, 1, wide.export(1), match="k=3")
        rebuilt = destination.recover(1)
        assert (rebuilt.source, rebuilt.busy) == ("cold", (0, 0, 0))


class TestLiveMigration:
    def test_placement_flips_and_busy_survives(self):
        async def go():
            service = _service()
            try:
                fut = service.submit_nowait(SlotRequest(0, 0, 0, duration=5))
                await service.tick()
                assert isinstance(await fut, ServiceGrant)
                busy_before = service.worker_busy(0)
                source = service.placement[0]
                destination = 1 - source
                report = service.migrate_shard(0, destination)
                assert service.placement[0] == destination
                assert report.source == source
                assert report.destination == destination
                assert report.journal_records >= 2
                assert not report.resumed
                # The destination's replica carries the identical clock.
                assert service.worker_busy(0) == busy_before
                # And keeps ticking from it.
                await service.tick()
                assert max(service.worker_busy(0)) == max(busy_before) - 1
            finally:
                await service.stop()

        run(go())

    def test_migrated_run_grants_identically(self):
        """The tentpole bit-identity claim in miniature: interleaving
        migrations between ticks changes no grant decision."""

        def traffic(slot):
            return [
                SlotRequest(
                    (slot + i) % N_FIBERS, i % K, (slot * 2 + i) % N_FIBERS
                )
                for i in range(3)
            ]

        async def drive(migrate_at):
            service = _service()
            slots = []
            try:
                for slot in range(12):
                    if slot in migrate_at:
                        shard = migrate_at[slot]
                        destination = 1 - service.placement[shard]
                        service.migrate_shard(shard, destination)
                    pairs = [
                        (r, service.submit_nowait(r)) for r in traffic(slot)
                    ]
                    await service.tick()
                    slots.append(
                        sorted(
                            (
                                r.input_fiber,
                                r.wavelength,
                                r.output_fiber,
                                f.result().channel
                                if isinstance(f.result(), ServiceGrant)
                                else -1,
                            )
                            for r, f in pairs
                        )
                    )
            finally:
                await service.stop()
            return slots

        reference = run(drive({}))
        migrated = run(drive({3: 0, 6: 2, 9: 0}))
        assert migrated == reference

    def test_round_robin_policy_slice_travels(self):
        """RoundRobinPolicy partitions per output: the migrating shard's
        pointer slice must move with it, so post-move rotation continues
        where the old owner left off (same winners as an unmigrated run)."""

        def burst(slot):
            # Three inputs race for output 0, wavelength 0, every slot.
            return [SlotRequest(i, 0, 0) for i in range(3)]

        async def drive(migrate):
            service = _service(policy=RoundRobinPolicy())
            winners = []
            try:
                for slot in range(6):
                    if migrate and slot == 3:
                        service.migrate_shard(0, 1 - service.placement[0])
                    pairs = [
                        (r, service.submit_nowait(r)) for r in burst(slot)
                    ]
                    await service.tick()
                    winners.append(
                        sorted(
                            r.input_fiber
                            for r, f in pairs
                            if isinstance(f.result(), ServiceGrant)
                        )
                    )
            finally:
                await service.stop()
            return winners

        assert run(drive(True)) == run(drive(False))

    def test_rebalance_to_target_placement(self):
        async def go():
            service = _service()
            try:
                before = dict(service.placement)
                target = {o: o % 2 for o in range(N_FIBERS)}
                reports = service.rebalance(target=target)
                assert service.placement == target
                # The moves were exactly the disagreeing shards.
                assert {r.shard for r in reports} == {
                    o for o in range(N_FIBERS) if before[o] != target[o]
                }
                await service.tick()
            finally:
                await service.stop()

        run(go())

    def test_compacted_shard_migrates_with_its_snapshot(self, tmp_path):
        """After two snapshot intervals a worker shard's journal is
        compacted against its snapshots, so its export carries the latest
        snapshot; adopt rebuilds the identical ``(next_tick, busy)`` from
        it, and release deletes the source's ``.wal`` and ``.snap``
        files."""
        interval = DurabilityConfig().snapshot_interval
        n_slots = 2 * interval + 3

        async def go():
            service = _service(journal_dir=tmp_path)
            try:
                for slot in range(n_slots):
                    if slot % 5 == 0:
                        service.submit_nowait(
                            SlotRequest(0, slot % K, 0, duration=7)
                        )
                    await service.tick()
                source = service.placement[0]
                destination = 1 - source
                next_tick, busy, blob = service.pool.call(
                    source, "export_shard", 0
                )
                assert next_tick == n_slots
                assert busy == service.worker_busy(0)
                assert max(busy) > 0
                # Read the export back through the one rebuild path.
                local = DurabilityManager(DurabilityConfig(), 0, K)
                local.adopt(0, blob)
                assert local.store.latest(0).tick == 2 * interval
                # Compacted to the oldest retained snapshot.
                assert min(r.tick for r in local.journal(0).records()) == (
                    interval
                )
                rebuilt = local.recover(0)
                assert (rebuilt.tick, list(rebuilt.busy)) == (next_tick, busy)

                adopted = service.pool.call(
                    destination, "adopt_shard", 0, blob
                )
                assert (adopted[0], adopted[1]) == (next_tick, busy)
                assert adopted[2] == len(local.journal(0).records())
                report = service.migrate_shard(0, destination)
                assert report.next_tick == n_slots
                assert service.worker_busy(0) == busy

                src = tmp_path / f"worker-{source}"
                assert not (src / "shard-0000.wal").exists()
                assert not list(src.glob("shard-0000.*"))
                dst = tmp_path / f"worker-{destination}"
                assert (dst / "shard-0000.wal").exists()
                assert list(dst.glob("shard-0000.tick-*.snap"))
                # The replica keeps ticking from the adopted clock.
                await service.tick()
                assert service.worker_busy(0) == [max(b - 1, 0) for b in busy]
            finally:
                await service.stop()

        run(go())

    def test_worker_refuses_a_corrupt_handoff(self):
        """A flipped byte reaches the destination worker's own check: the
        ``adopt_shard`` op replies an error, installs nothing, and the
        next migration of the shard still verifies and flips."""

        async def go():
            service = _service()
            try:
                fut = service.submit_nowait(SlotRequest(0, 0, 0, duration=4))
                await service.tick()
                assert isinstance(await fut, ServiceGrant)
                busy_before = service.worker_busy(0)
                source = service.placement[0]
                destination = 1 - source
                _tick, _busy, blob = service.pool.call(
                    source, "export_shard", 0
                )
                hostile = bytearray(blob)
                hostile[len(blob) // 2] ^= 0xFF
                with pytest.raises(WorkerProcessError, match="adopt_shard"):
                    service.pool.call(
                        destination, "adopt_shard", 0, bytes(hostile)
                    )
                assert 0 not in service.pool.call(destination, "busy")
                assert service.placement[0] == source
                report = service.migrate_shard(0, destination)
                assert not report.resumed
                assert service.placement[0] == destination
                assert service.worker_busy(0) == busy_before
            finally:
                await service.stop()

        run(go())

    def test_bad_moves_are_typed(self):
        async def go():
            service = _service()
            try:
                with pytest.raises(MigrationError, match="not active"):
                    service.migrate_shard(0, 99)
                with pytest.raises(MigrationError, match="not placed"):
                    service.migrate_shard(99, 0)
                with pytest.raises(InvalidParameterError, match="exactly one"):
                    service.rebalance()
                with pytest.raises(InvalidParameterError, match="exactly one"):
                    service.rebalance(
                        moves=[ShardMove(0, 0, 1)], target={0: 1}
                    )
            finally:
                await service.stop()

        run(go())


class TestElasticity:
    def test_add_then_drain_then_remove(self):
        async def go():
            service = _service()
            try:
                new = service.add_worker()
                assert new == 2
                assert service.active_workers() == [0, 1, 2]
                service.migrate_shard(0, new)
                service.migrate_shard(1, new)
                fut = service.submit_nowait(SlotRequest(0, 0, 0))
                await service.tick()
                assert isinstance(await fut, ServiceGrant)
                # Removing while the worker owns shards requires a drain.
                with pytest.raises(WorkerProcessError, match="migrate"):
                    service.pool.remove_worker(new)
                reports = service.remove_worker(new)
                assert {r.shard for r in reports} == {0, 1}
                assert service.active_workers() == [0, 1]
                # The retired id is a tombstone, not reusable.
                with pytest.raises(WorkerProcessError, match="retired"):
                    service.pool.call(new, "busy")
                assert service.add_worker() == 3
                # Traffic still flows after the churn.
                fut2 = service.submit_nowait(SlotRequest(1, 1, 0))
                await service.tick()
                assert isinstance(await fut2, ServiceGrant)
            finally:
                await service.stop()

        run(go())

    def test_cannot_remove_last_worker(self):
        async def go():
            service = _service(n_workers=1)
            try:
                # The pool refuses while shards are owned; the service's
                # drain path refuses because there is nowhere to drain to.
                with pytest.raises(WorkerProcessError, match="owns shards"):
                    service.pool.remove_worker(0)
                with pytest.raises(InvalidParameterError, match="last active"):
                    service.remove_worker(0)
            finally:
                await service.stop()

        run(go())


class TestCrashInjection:
    @pytest.mark.parametrize("phase", MIGRATION_PHASES)
    def test_kill_at_every_phase_then_redrive_converges(self, phase):
        async def go():
            service = _service()
            try:
                fut = service.submit_nowait(SlotRequest(0, 0, 0, duration=4))
                await service.tick()
                assert isinstance(await fut, ServiceGrant)
                busy_before = service.worker_busy(0)
                source = service.placement[0]
                destination = 1 - source
                crashpoints = CrashPoints(arm=[phase])
                with pytest.raises(CrashPointError, match=phase):
                    service.migrate_shard(
                        0, destination, crashpoints=crashpoints
                    )
                # Pre-flip deaths leave the source authoritative;
                # post-flip deaths leave the destination authoritative.
                pre_flip = phase in MIGRATION_PHASES[:3]
                assert service.placement[0] == (
                    source if pre_flip else destination
                )
                # Re-driving the same move converges either way...
                report = service.migrate_shard(
                    0, destination, crashpoints=crashpoints
                )
                assert service.placement[0] == destination
                assert report.resumed == (not pre_flip)
                # ...with the replica's clock bit-identical throughout.
                assert service.worker_busy(0) == busy_before
                await service.tick()
                assert max(service.worker_busy(0)) == max(busy_before) - 1
            finally:
                await service.stop()

        run(go())

    def test_worker_death_mid_handoff_is_healed(self):
        """The destination process dies (``os._exit``) immediately after
        journaling the adopted replica: the pool respawns it, redelivers
        the adopt, and the migration completes with the identical clock."""

        async def go():
            service = _service()
            try:
                fut = service.submit_nowait(SlotRequest(0, 0, 0, duration=4))
                await service.tick()
                assert isinstance(await fut, ServiceGrant)
                busy_before = service.worker_busy(0)
                source = service.placement[0]
                destination = 1 - source
                service.pool.call(destination, "poison", POISON_AFTER_ADOPT)
                report = service.migrate_shard(0, destination)
                assert service.pool._workers[destination].respawns == 1
                assert service.placement[0] == destination
                assert not report.resumed
                assert service.worker_busy(0) == busy_before
                await service.tick()
                assert max(service.worker_busy(0)) == max(busy_before) - 1
            finally:
                await service.stop()

        run(go())
