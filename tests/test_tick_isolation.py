"""A faulty fiber crashes only its own shard, in both service cores.

Each tick schedules every fiber with one batch-kernel call, so one bad row
must not take the tick down: the row that fails the array check (here, a
kernel that grants a channel outside the conversion window) or whose
scheduler raises after the kernel call itself raised crashes its shard —
its requests resolve ``SHARD_DOWN`` and ``server.shard_crashes`` counts
one — while every other shard's grants are journaled write-ahead and
committed.  The same scenarios run under the in-process
:class:`~repro.service.server.SchedulingService` and the multi-process
:class:`~repro.net.procservice.ProcessShardedService` (the schedulers
below are module-level so worker processes can unpickle them).
"""

import asyncio

import numpy as np
import pytest

from repro.core.break_first_available import BreakFirstAvailableScheduler
from repro.core.distributed import SlotRequest
from repro.core.kernels import batch_break_first_available
from repro.graphs.conversion import CircularConversion
from repro.net.procpool import POISON_BEFORE_REPLY
from repro.net.procservice import ProcessShardedService
from repro.service.journal import (
    FAULT_CRASH,
    FileJournal,
    RecordType,
    ShardJournal,
)
from repro.service.server import (
    Rejected,
    RejectReason,
    SchedulingService,
    ServiceGrant,
)

SCHEME = CircularConversion(6, 1, 1)
N_FIBERS = 3
#: Output 1's only request is on λ5 — the faulty row in every scenario.
REQUESTS = (
    SlotRequest(0, 0, 0),
    SlotRequest(1, 0, 0),
    SlotRequest(2, 5, 1),
    SlotRequest(1, 3, 2),
    SlotRequest(2, 3, 2),
)
FAULTY = SlotRequest(2, 5, 1)


def _out_of_window_kernel(req, avail, e, f, *, check=True):
    assign = batch_break_first_available(req, avail, e, f, check=check)
    for j in np.flatnonzero(req[:, 5]).tolist():
        assign[j, :] = -1
        assign[j, 2] = 5  # λ5 reaches channels {4, 5, 0} only
    return assign


def _raising_kernel(req, avail, e, f, *, check=True):
    if req[:, 5].any():
        raise RuntimeError("kernel fault")
    return batch_break_first_available(req, avail, e, f, check=check)


class OutOfWindowBFA(BreakFirstAvailableScheduler):
    """BFA whose batch kernel grants λ5 a channel outside its window."""

    def batch_kernel(self, scheme):
        return _out_of_window_kernel


class RaisingBFA(BreakFirstAvailableScheduler):
    """BFA whose kernel raises on any λ5 row and whose per-fiber schedule
    raises on the λ5 fiber only."""

    def batch_kernel(self, scheme):
        return _raising_kernel

    def schedule(self, rg):
        if rg.request_vector[5]:
            raise RuntimeError("scheduler fault")
        return super().schedule(rg)


SCHEDULERS = [
    pytest.param(OutOfWindowBFA, id="kernel-row-out-of-window"),
    pytest.param(RaisingBFA, id="kernel-raises"),
]


def _check(outcomes, crashes, journals):
    """Shared assertions; ``journals`` maps shard → its records."""
    down = outcomes[FAULTY]
    assert isinstance(down, Rejected)
    assert down.reason is RejectReason.SHARD_DOWN
    assert crashes == 1
    for r in REQUESTS:
        if r != FAULTY:
            assert isinstance(outcomes[r], ServiceGrant), outcomes[r]
    for o in (0, 2):
        records = journals[o]
        kinds = [rec.type for rec in records if rec.tick == 0]
        # Write-ahead: the tick's grants are journaled before the tick's
        # ADVANCE closes it.
        assert RecordType.GRANT in kinds
        assert kinds.index(RecordType.GRANT) < kinds.index(RecordType.ADVANCE)
        granted = {
            (v[0], v[1], v[2])
            for rec in records
            if rec.type is RecordType.GRANT
            for v in zip(*[iter(rec.values)] * 4)
        }
        assert granted == {
            (r.input_fiber, r.wavelength, outcomes[r].channel)
            for r in REQUESTS
            if r.output_fiber == o
        }
    assert not any(rec.type is RecordType.GRANT for rec in journals[1])


@pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
def test_in_process_service_isolates_the_faulty_shard(scheduler_cls):
    async def go():
        service = SchedulingService(N_FIBERS, SCHEME, scheduler_cls())
        futures = {r: service.submit_nowait(r) for r in REQUESTS}
        await service.tick()
        crashes = service.telemetry.counters("server.")[
            "server.shard_crashes"
        ]
        journals = {
            o: service.durability.journal(o).records()
            for o in range(N_FIBERS)
        }
        await service.stop()
        return {r: f.result() for r, f in futures.items()}, crashes, journals

    outcomes, crashes, journals = asyncio.run(go())
    _check(outcomes, crashes, journals)
    assert any(
        rec.type is RecordType.FAULT and rec.values[0] == FAULT_CRASH
        for rec in journals[1]
    )


@pytest.mark.net
@pytest.mark.slow
@pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
def test_process_service_isolates_the_faulty_shard(scheduler_cls, tmp_path):
    async def go():
        service = ProcessShardedService(
            N_FIBERS, SCHEME, scheduler_cls(), n_workers=2,
            journal_dir=tmp_path,
        )
        try:
            futures = {r: service.submit_nowait(r) for r in REQUESTS}
            await service.tick()
            crashes = service.telemetry.counters("server.")[
                "server.shard_crashes"
            ]
            placement = service.placement
            # The crash stayed inside the shard: no worker died.
            assert all(h.respawns == 0 for h in service.pool._workers)
        finally:
            await service.stop()
        return (
            {r: f.result() for r, f in futures.items()}, crashes, placement
        )

    outcomes, crashes, placement = asyncio.run(go())
    journals = {}
    for o in range(N_FIBERS):
        path = tmp_path / f"worker-{placement[o]}" / f"shard-{o:04d}.wal"
        journal = ShardJournal(FileJournal(path))
        journals[o] = journal.reload()[0]
        journal.close()
    _check(outcomes, crashes, journals)
    assert any(
        rec.type is RecordType.FAULT and rec.values[0] == FAULT_CRASH
        for rec in journals[1]
    )


@pytest.mark.net
@pytest.mark.slow
def test_redelivered_tick_replays_the_crash(tmp_path):
    """The worker dies after journaling the tick (the faulty shard's crash
    record included) but before replying: the parent's retry runs the tick
    again from the same inputs, and the faulty shard still resolves
    SHARD_DOWN."""
    async def go():
        service = ProcessShardedService(
            N_FIBERS, SCHEME, OutOfWindowBFA(), n_workers=1,
            journal_dir=tmp_path,
        )
        try:
            service.pool.call(0, "poison", POISON_BEFORE_REPLY)
            futures = {r: service.submit_nowait(r) for r in REQUESTS}
            await service.tick()
            crashes = service.telemetry.counters("server.")[
                "server.shard_crashes"
            ]
            assert service.pool._workers[0].respawns == 1
        finally:
            await service.stop()
        return {r: f.result() for r, f in futures.items()}, crashes

    outcomes, crashes = asyncio.run(go())
    assert outcomes[FAULTY].reason is RejectReason.SHARD_DOWN
    assert crashes == 1
    assert all(
        isinstance(outcomes[r], ServiceGrant) for r in REQUESTS if r != FAULTY
    )
