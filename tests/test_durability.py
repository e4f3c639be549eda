"""Crash-consistent recovery: the kill-at-every-tick equivalence gate.

The durability contract (``docs/ROBUSTNESS.md``, "Durability & recovery")
is that a shard rebuilt from *latest valid snapshot + deterministic journal
replay* is **bit-identical** to one that never crashed.  The main test here
enforces exactly that, the hard way: for every tick boundary of a reference
run, kill **all** shards at that boundary, recover them from durable state,
finish the run, and require

* the same outcome for every submitted request (grants with the same
  channel and slot, rejections with the same reason and slot),
* the same final ``busy[]`` residuals on every shard,
* the same grant-path telemetry counters,

for both conversion types and multi-slot durations.  The rest of the file
covers the snapshot codec, recovery from a fresh process over the file
backend, torn journal tails, and the queue cross-check defect detector.
"""

import asyncio

import pytest

from repro.core.break_first_available import BreakFirstAvailableScheduler
from repro.core.distributed import SlotRequest
from repro.core.first_available import FirstAvailableScheduler
from repro.core.policies import RandomPolicy
from repro.errors import DurabilityError, InvalidParameterError
from repro.graphs.conversion import CircularConversion, NonCircularConversion
from repro.service import (
    DurabilityConfig,
    Rejected,
    SchedulingService,
    ServiceGrant,
)
from repro.service.journal import JournalRecord, RecordType
from repro.service.queue import OverflowPolicy
from repro.service.durability import DurabilityManager, replay_journal
from repro.service.snapshot import (
    FileSnapshotStore,
    MemorySnapshotStore,
    ShardSnapshot,
    decode_snapshot,
    encode_snapshot,
)
from repro.util.rng import make_rng

N_FIBERS = 3
K = 6
N_SLOTS = 12
SNAPSHOT_INTERVAL = 4

#: The grant-path counters that must be bit-identical across a crash.
EQUIV_COUNTERS = (
    "server.submitted",
    "server.granted",
    "server.rejected.contention",
    "server.rejected.source_blocked",
    "server.dropped",
    "server.rejected.queue_full",
    "server.timed_out",
    "server.shutdown",
)

CASES = [
    pytest.param(
        CircularConversion(K, 1, 1), BreakFirstAvailableScheduler, id="bfa"
    ),
    pytest.param(
        NonCircularConversion(K, 1, 1), FirstAvailableScheduler, id="fa"
    ),
]


def run(coro):
    return asyncio.run(coro)


def build_schedule(seed=11, n_slots=N_SLOTS, load=0.8, max_duration=3):
    """A deterministic multi-slot request schedule, computed once so the
    baseline and every crash run submit byte-identical traffic."""
    rng = make_rng(seed)
    schedule = []
    for _slot in range(n_slots):
        slot_requests = []
        for i in range(N_FIBERS):
            for w in range(K):
                if rng.random() < load:
                    slot_requests.append(
                        SlotRequest(
                            i,
                            w,
                            int(rng.integers(N_FIBERS)),
                            duration=int(rng.integers(1, max_duration + 1)),
                        )
                    )
        schedule.append(slot_requests)
    return schedule


def make_service(scheme, scheduler_cls, **kwargs):
    kwargs.setdefault(
        "durability", DurabilityConfig(snapshot_interval=SNAPSHOT_INTERVAL)
    )
    kwargs.setdefault("max_batch_per_tick", 2)  # forces queue carryover
    return SchedulingService(
        N_FIBERS,
        scheme,
        scheduler_cls(),
        policy=RandomPolicy(seed=7),
        **kwargs,
    )


async def drive(service, schedule, crash_ticks=()):
    """Run the schedule, killing + recovering every shard at each boundary
    in ``crash_ticks``.  Returns (outcomes, recovery states)."""
    futures = []
    states = []
    for slot, slot_requests in enumerate(schedule):
        if slot in crash_ticks:
            for o in range(N_FIBERS):
                service.shards[o].crash()
            for o in range(N_FIBERS):
                states.append(service.recover_shard(o))
        for r in slot_requests:
            futures.append(service.submit_nowait(r))
        await service.tick()
    await service.drain()
    return list(await asyncio.gather(*futures)), states


def counters_of(service):
    counters = service.telemetry.snapshot()["counters"]
    return {name: counters.get(name, 0) for name in EQUIV_COUNTERS}


class TestKillAtEveryTick:
    @pytest.mark.parametrize("scheme, scheduler_cls", CASES)
    def test_recovered_run_is_bit_identical(self, scheme, scheduler_cls):
        schedule = build_schedule()

        async def baseline():
            service = make_service(scheme, scheduler_cls)
            outcomes, _ = await drive(service, schedule)
            return (
                outcomes,
                [s.busy_snapshot() for s in service.shards],
                counters_of(service),
            )

        base_outcomes, base_busy, base_counters = run(baseline())
        assert any(isinstance(o, ServiceGrant) for o in base_outcomes)
        assert any(
            isinstance(o, ServiceGrant) and o.request.duration > 1
            for o in base_outcomes
        ), "schedule must exercise multi-slot connections"

        for crash_tick in range(N_SLOTS):

            async def crashed():
                service = make_service(scheme, scheduler_cls)
                outcomes, states = await drive(
                    service, schedule, crash_ticks=(crash_tick,)
                )
                return (
                    outcomes,
                    [s.busy_snapshot() for s in service.shards],
                    counters_of(service),
                    states,
                )

            outcomes, busy, counters, states = run(crashed())
            label = f"crash at tick {crash_tick}"
            assert outcomes == base_outcomes, label
            assert busy == base_busy, label
            assert counters == base_counters, label
            # Recovery provenance: cold is only legitimate before anything
            # was ever journaled; once a snapshot exists it anchors replay.
            for state in states:
                assert state.tick == crash_tick, label
                if crash_tick == 0:
                    assert state.source == "cold", label
                else:
                    assert state.source != "cold", label
                if crash_tick > SNAPSHOT_INTERVAL:
                    assert state.source == "snapshot+journal", label
                    assert state.snapshot_tick is not None

    @pytest.mark.parametrize("scheme, scheduler_cls", CASES[:1])
    def test_equivalence_survives_drop_oldest_evictions(
        self, scheme, scheduler_cls
    ):
        """The WAL's predicted-eviction path (plan_offer) must replay too."""
        schedule = build_schedule(seed=29, load=0.95)
        kwargs = dict(
            queue_capacity=2,
            overflow=OverflowPolicy.DROP_OLDEST,
            max_batch_per_tick=1,
        )

        async def go(crash_ticks):
            service = make_service(scheme, scheduler_cls, **kwargs)
            outcomes, _ = await drive(service, schedule, crash_ticks)
            return outcomes, [s.busy_snapshot() for s in service.shards]

        base = run(go(()))
        assert any(
            isinstance(o, Rejected) for o in base[0]
        ), "overflow pressure never materialized"
        for crash_tick in (1, 5, 9):
            assert run(go((crash_tick,))) == base, f"crash at {crash_tick}"


class TestFileBackendRecovery:
    def _config(self, tmp_path):
        return DurabilityConfig(
            snapshot_interval=SNAPSHOT_INTERVAL,
            backend="file",
            directory=tmp_path,
        )

    def test_fresh_process_recovers_from_the_directory(self, tmp_path):
        """Simulated process death: a brand-new service over the same
        directory rebuilds each shard's exact pre-death state."""
        scheme = CircularConversion(K, 1, 1)
        schedule = build_schedule(seed=3, n_slots=7)

        async def first_life():
            service = make_service(
                scheme,
                BreakFirstAvailableScheduler,
                durability=self._config(tmp_path),
            )
            await drive(service, schedule)
            busy = [s.busy_snapshot() for s in service.shards]
            slot = service.slot
            # Process dies: no stop(), just the file handles closing.
            service.durability.close()
            return busy, slot

        busy_at_death, slot_at_death = run(first_life())
        assert slot_at_death >= len(schedule)

        async def second_life():
            service = make_service(
                scheme,
                BreakFirstAvailableScheduler,
                durability=self._config(tmp_path),
            )
            states = [service.recover_shard(o) for o in range(N_FIBERS)]
            busy = [s.busy_snapshot() for s in service.shards]
            service.durability.close()
            return states, busy

        states, busy = run(second_life())
        assert busy == busy_at_death
        for state in states:
            assert state.tick == slot_at_death
            assert state.source == "snapshot+journal"
            assert state.queue == ()

    def test_torn_journal_tail_is_tolerated(self, tmp_path):
        scheme = CircularConversion(K, 1, 1)
        schedule = build_schedule(seed=5, n_slots=6)

        async def first_life():
            service = make_service(
                scheme,
                BreakFirstAvailableScheduler,
                durability=self._config(tmp_path),
            )
            await drive(service, schedule)
            busy = [s.busy_snapshot() for s in service.shards]
            service.durability.close()
            return busy

        busy_at_death = run(first_life())
        # Power loss mid-append: garbage bytes at one journal's tail.
        wal = tmp_path / "shard-0000.wal"
        assert wal.exists()
        with open(wal, "ab") as fh:
            fh.write(b"\x00\x01half-a-record")

        async def second_life():
            service = make_service(
                scheme,
                BreakFirstAvailableScheduler,
                durability=self._config(tmp_path),
            )
            state = service.recover_shard(0)
            counters = service.telemetry.snapshot()["counters"]
            busy = service.shards[0].busy_snapshot()
            service.durability.close()
            return state, busy, counters

        state, busy, counters = run(second_life())
        assert busy == busy_at_death[0]
        assert state.torn_tail
        assert counters["durability.torn_tails"] == 1

    def test_corrupt_latest_snapshot_falls_back_to_older(self, tmp_path):
        scheme = CircularConversion(K, 1, 1)
        schedule = build_schedule(seed=9, n_slots=9)  # snapshots at 4 and 8

        async def first_life():
            service = make_service(
                scheme,
                BreakFirstAvailableScheduler,
                durability=self._config(tmp_path),
            )
            await drive(service, schedule)
            busy = [s.busy_snapshot() for s in service.shards]
            service.durability.close()
            return busy, service.slot

        busy_at_death, slot_at_death = run(first_life())
        snaps = sorted(tmp_path.glob("shard-0000.tick-*.snap"))
        assert len(snaps) == 2
        older_tick = int(snaps[0].stem.rsplit("tick-", 1)[1])
        snaps[-1].write_bytes(b"RSNPgarbage")  # newest snapshot torn on disk

        async def second_life():
            service = make_service(
                scheme,
                BreakFirstAvailableScheduler,
                durability=self._config(tmp_path),
            )
            state = service.recover_shard(0)
            busy = service.shards[0].busy_snapshot()
            service.durability.close()
            return state, busy

        state, busy = run(second_life())
        # The older valid snapshot anchors a longer replay; same end state.
        assert busy == busy_at_death[0]
        assert state.tick == slot_at_death
        assert state.snapshot_tick == older_tick


class TestCrossCheck:
    def test_journal_queue_disagreement_raises(self):
        """A journal that disagrees with the surviving live queue is a
        crash-consistency defect, not a degraded mode."""

        async def go():
            service = make_service(
                CircularConversion(K, 1, 1), BreakFirstAvailableScheduler
            )
            await service.tick()
            # Forge an ACCEPT the live queue never saw.
            service.durability.journal(0).append(
                JournalRecord(RecordType.ACCEPT, 1, (0, 0, 0, 1, 0))
            )
            service.shards[0].crash()
            with pytest.raises(DurabilityError):
                service.recover_shard(0)

        run(go())

    def test_recover_shard_requires_durability(self):
        async def go():
            service = SchedulingService(
                N_FIBERS,
                CircularConversion(K, 1, 1),
                BreakFirstAvailableScheduler(),
                durability=False,
            )
            assert service.durability is None
            with pytest.raises(InvalidParameterError):
                service.recover_shard(0)

        run(go())


class TestSnapshotCodec:
    def _snapshot(self):
        return ShardSnapshot(
            shard=2,
            tick=40,
            busy=(0, 3, 1, 0, 2, 0),
            queue=((0, 1, 2, 3, 0, 0), (2, 5, 2, 1, 1, 4)),
            policy_state={"pointers": [[2, 1, 0]]},
        )

    def test_round_trip(self):
        snap = self._snapshot()
        assert decode_snapshot(encode_snapshot(snap)) == snap

    def test_round_trip_empty(self):
        snap = ShardSnapshot(shard=0, tick=0, busy=(0,) * K)
        assert decode_snapshot(encode_snapshot(snap)) == snap

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda b: b[:5],
            lambda b: b"XXXX" + b[4:],
            lambda b: b[:-3],
            lambda b: b[:-1] + bytes([b[-1] ^ 0xFF]),
            lambda b: b"",
        ],
        ids=["short", "magic", "truncated", "bitflip", "empty"],
    )
    def test_corruption_raises(self, mutate):
        blob = encode_snapshot(self._snapshot())
        with pytest.raises(DurabilityError):
            decode_snapshot(mutate(blob))

    def test_memory_store_latest_skips_corrupt(self):
        store = MemorySnapshotStore()
        good = ShardSnapshot(shard=1, tick=8, busy=(1, 0, 0, 0, 0, 2))
        store.save(good)
        store.save(ShardSnapshot(shard=1, tick=16, busy=(0,) * K))
        store._blobs[1][-1] = (16, b"RSNPtorn")
        assert store.latest(1) == good
        assert store.ticks(1) == (8, 16)
        store.prune(1, retain=1)
        assert store.ticks(1) == (16,)

    def test_file_store_prune_and_ordering(self, tmp_path):
        store = FileSnapshotStore(tmp_path)
        for tick in (4, 8, 12):
            store.save(ShardSnapshot(shard=0, tick=tick, busy=(tick,)))
        assert store.ticks(0) == (4, 8, 12)
        assert store.latest(0).tick == 12
        store.prune(0, retain=2)
        assert store.ticks(0) == (8, 12)
        # Other shards' files are untouched namespaces.
        assert store.latest(3) is None


class TestTenantBackCompat:
    """Durable state has one, tenant-carrying, form: v1 snapshots and
    5-value ACCEPT records are refused with a typed error, never widened."""

    def test_v1_snapshot_rejected(self):
        import json
        import struct
        import zlib

        from repro.service import snapshot as snap_mod

        busy = (0, 2, 0, 1, 0, 0)
        queue_v1 = ((0, 1, 2, 3, 0), (2, 5, 2, 1, 1))  # 5 ints: no tenant
        policy = json.dumps(None).encode("utf-8")
        body = snap_mod._BODY_HEAD.pack(1, 7, len(busy), len(queue_v1), len(policy))
        body += struct.pack(f"!{len(busy)}q", *busy)
        for entry in queue_v1:
            body += struct.pack("!5q", *entry)
        body += policy
        blob = (
            snap_mod._PREFIX.pack(snap_mod._MAGIC, 1, len(body), zlib.crc32(body))
            + body
        )
        with pytest.raises(DurabilityError, match="snapshot version 1"):
            decode_snapshot(blob)

    def test_unknown_snapshot_version_rejected(self):
        import struct
        import zlib

        from repro.service import snapshot as snap_mod

        body = snap_mod._BODY_HEAD.pack(0, 0, 0, 0, 4) + b"null"
        blob = (
            snap_mod._PREFIX.pack(snap_mod._MAGIC, 9, len(body), zlib.crc32(body))
            + body
        )
        with pytest.raises(DurabilityError):
            decode_snapshot(blob)

    def test_five_value_accept_raises_on_recovery(self):
        """A journal holding a pre-tenant ACCEPT fails recovery typed."""
        manager = DurabilityManager(DurabilityConfig(), 1, K)
        journal = manager.journal(0)
        journal.append(JournalRecord(RecordType.ACCEPT, 0, (1, 4, 0, 1, 1, 9)))
        journal.append(JournalRecord(RecordType.ACCEPT, 0, (0, 1, 0, 3, 0)))
        with pytest.raises(DurabilityError, match="5 values, expected 6"):
            manager.recover(0)

    def test_evict_record_replays_the_shed(self):
        """EVICT(i) must reproduce the admission decision on replay: the
        evicted entry is gone, later entries keep their order."""
        records = [
            JournalRecord(RecordType.ACCEPT, 0, (0, 1, 0, 2, 0, 5)),
            JournalRecord(RecordType.ACCEPT, 0, (1, 2, 0, 1, 0, 6)),
            JournalRecord(RecordType.EVICT, 1, (0,)),
            JournalRecord(RecordType.ACCEPT, 1, (2, 3, 0, 1, 1, 7)),
        ]
        _, queue, _, _ = replay_journal(records, None, K)
        assert queue == ((1, 2, 0, 1, 0, 6), (2, 3, 0, 1, 1, 7))

    def test_out_of_range_evict_is_ignored(self):
        """Records older than the snapshot are skipped, which can orphan an
        EVICT whose target entry lives inside the snapshot; replay must
        tolerate the dangling index rather than crash."""
        records = [
            JournalRecord(RecordType.EVICT, 0, (3,)),
            JournalRecord(RecordType.ACCEPT, 0, (0, 1, 0, 1, 0, 0)),
        ]
        _, queue, _, _ = replay_journal(records, None, K)
        assert queue == ((0, 1, 0, 1, 0, 0),)

    def test_shard_journal_evict_round_trips_through_codec(self):
        """ShardJournal.evict writes a record that decodes back intact."""
        from repro.service.journal import MemoryJournal, ShardJournal

        backend = MemoryJournal()
        journal = ShardJournal(backend)
        journal.accept(0, SlotRequest(0, 1, 0, 2, 0, 5))
        journal.evict(1, 0)
        records = journal.records()
        assert [r.type for r in records] == [RecordType.ACCEPT, RecordType.EVICT]
        assert records[0].values == (0, 1, 0, 2, 0, 5)
        assert records[1].values == (0,)
