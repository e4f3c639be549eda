"""Multi-process service vs. SlottedSimulator equivalence.

The acceptance bar for the PR-6 subsystem: a run driven through the
multi-process shard workers — and through the TCP front door — must make
*identical grant decisions* to :class:`~repro.sim.engine.SlottedSimulator`
on the same seeded traffic: same winners, same assigned channels, same
contention losses, same blocked-at-source counts, slot by slot, **bit
identical across the process boundary** — including a kill-and-recover
run that SIGKILLs shard workers mid-stream and leans on the PR-5 journal
machinery to resume without drifting a single grant.

Both sides default to the stateless :class:`~repro.core.policies.
FixedPriorityPolicy`, so the only random stream is the seeded traffic,
mirrored exactly via ``spawn_rngs(seed, 2)`` — the simulator's own
construction.  The stateful-policy drills pass the same policy to both
sides; the service front owns its state and ships each shard's slice to
the worker with the tick.
"""

import asyncio

import pytest

pytestmark = [pytest.mark.net, pytest.mark.slow]

from repro.core.break_first_available import BreakFirstAvailableScheduler
from repro.core.distributed import SlotRequest
from repro.core.first_available import FirstAvailableScheduler
from repro.core.policies import (
    FixedPriorityPolicy,
    RandomPolicy,
    RoundRobinPolicy,
)
from repro.graphs.conversion import CircularConversion, NonCircularConversion
from repro.net import protocol as proto
from repro.net.client import NetClient
from repro.net.procpool import POISON_BEFORE_REPLY
from repro.net.procservice import ProcessShardedService
from repro.net.server import NetServer
from repro.service import Rejected, RejectReason, ServiceGrant
from repro.sim.duration import DeterministicDuration
from repro.sim.engine import SlottedSimulator
from repro.sim.traffic import BernoulliTraffic
from repro.util.rng import spawn_rngs

N_FIBERS = 4
N_SLOTS = 30
SEED = 20030422
LOAD = 0.9


def _run_simulator(scheme, scheduler, traffic, n_slots, policy=None):
    sim = SlottedSimulator(
        N_FIBERS,
        scheme,
        scheduler,
        traffic,
        policy=policy if policy is not None else FixedPriorityPolicy(),
        seed=SEED,
    )
    slots = []
    original = sim.distributed.schedule_slot

    def recording(requests, availability=None):
        schedule = original(requests, availability)
        slots.append(
            {
                "granted": {
                    (
                        g.request.input_fiber,
                        g.request.wavelength,
                        g.request.output_fiber,
                        g.channel,
                    )
                    for g in schedule.granted
                },
                "rejected": {
                    (r.input_fiber, r.wavelength, r.output_fiber)
                    for r in schedule.rejected
                },
            }
        )
        return schedule

    sim.distributed.schedule_slot = recording
    blocked = [sim.step()["blocked_source"] for _ in range(n_slots)]
    return slots, blocked


def _sort_outcomes(pairs):
    """Split (request, outcome) pairs into one slot's decision sets."""
    granted = set()
    rejected = set()
    n_blocked = 0
    for r, outcome in pairs:
        if isinstance(outcome, ServiceGrant):
            granted.add(
                (r.input_fiber, r.wavelength, r.output_fiber, outcome.channel)
            )
        elif isinstance(outcome, proto.Grant):
            granted.add(
                (r.input_fiber, r.wavelength, r.output_fiber, outcome.channel)
            )
        else:
            reason = outcome.reason
            if reason is RejectReason.SOURCE_BLOCKED:
                n_blocked += 1
            else:
                assert reason is RejectReason.CONTENTION, reason
                rejected.add((r.input_fiber, r.wavelength, r.output_fiber))
    return granted, rejected, n_blocked


def _run_proc_service(
    scheme,
    scheduler,
    traffic,
    n_slots,
    *,
    journal_dir=None,
    kill_at=(),
    poison_at=(),
    policy=None,
):
    """Drive ProcessShardedService one tick per traffic slot; optionally
    SIGKILL worker ``slot % n_workers`` before the slots in ``kill_at``,
    or make it die after completing (before acknowledging) the slots in
    ``poison_at`` — exercising respawn + journal recovery mid-stream."""
    traffic_rng, _policy_rng = spawn_rngs(SEED, 2)

    async def go():
        service = ProcessShardedService(
            N_FIBERS,
            scheme,
            scheduler,
            n_workers=2,
            journal_dir=journal_dir,
            policy=policy,
        )
        slots = []
        blocked = []
        try:
            for slot in range(n_slots):
                if slot in kill_at:
                    service.kill_worker(slot % service.n_workers)
                if slot in poison_at:
                    service.pool.call(
                        slot % service.n_workers, "poison", POISON_BEFORE_REPLY
                    )
                pairs = []
                for p in traffic.arrivals(slot, traffic_rng):
                    r = SlotRequest(
                        p.input_fiber,
                        p.wavelength,
                        p.output_fiber,
                        p.duration,
                        p.priority,
                    )
                    pairs.append((r, service.submit_nowait(r)))
                await service.tick()
                granted, rejected, n_blocked = _sort_outcomes(
                    (r, f.result()) for r, f in pairs
                )
                slots.append({"granted": granted, "rejected": rejected})
                blocked.append(n_blocked)
        finally:
            await service.stop()
        return slots, blocked

    return asyncio.run(go())


def _run_over_tcp(scheme, scheduler, traffic, n_slots):
    """Same drive, but through the wire: NetClient → NetServer →
    ProcessShardedService — the full PR-6 stack."""
    traffic_rng, _policy_rng = spawn_rngs(SEED, 2)

    async def go():
        service = ProcessShardedService(
            N_FIBERS, scheme, scheduler, n_workers=2
        )
        server = NetServer(service)
        await server.start()
        client = await NetClient.connect("127.0.0.1", server.port)
        slots = []
        blocked = []
        try:
            for slot in range(n_slots):
                pairs = []
                for p in traffic.arrivals(slot, traffic_rng):
                    r = SlotRequest(
                        p.input_fiber,
                        p.wavelength,
                        p.output_fiber,
                        p.duration,
                        p.priority,
                    )
                    pairs.append((r, client.submit_nowait(r)))
                await client.tick(1)
                outcomes = await asyncio.wait_for(
                    asyncio.gather(*(f for _, f in pairs)), 30
                )
                granted, rejected, n_blocked = _sort_outcomes(
                    (r, o) for (r, _), o in zip(pairs, outcomes)
                )
                slots.append({"granted": granted, "rejected": rejected})
                blocked.append(n_blocked)
        finally:
            await client.close()
            await server.stop()
            await service.stop()
        return slots, blocked

    return asyncio.run(go())


def _assert_identical(sim_slots, sim_blocked, svc_slots, svc_blocked):
    assert len(sim_slots) == len(svc_slots)
    for slot, (sim, svc) in enumerate(zip(sim_slots, svc_slots)):
        assert sim["granted"] == svc["granted"], f"grant mismatch in slot {slot}"
        assert sim["rejected"] == svc["rejected"], (
            f"reject mismatch in slot {slot}"
        )
    assert sim_blocked == svc_blocked
    # Sanity: the workload exercised contention (else the test is vacuous).
    assert sum(len(s["granted"]) for s in sim_slots) > 0
    assert sum(len(s["rejected"]) for s in sim_slots) > 0


CASES = [
    pytest.param(
        CircularConversion(8, 1, 1),
        BreakFirstAvailableScheduler,
        DeterministicDuration(3),
        id="bfa-circular-multi-slot",
    ),
    pytest.param(
        NonCircularConversion(8, 1, 1),
        FirstAvailableScheduler,
        DeterministicDuration(2),
        id="fa-noncircular-multi-slot",
    ),
]


def _traffic(scheme, durations):
    return BernoulliTraffic(N_FIBERS, scheme.k, load=LOAD, durations=durations)


@pytest.mark.parametrize("scheme, scheduler_cls, durations", CASES)
def test_process_boundary_is_bit_identical(scheme, scheduler_cls, durations):
    sim_slots, sim_blocked = _run_simulator(
        scheme, scheduler_cls(), _traffic(scheme, durations), N_SLOTS
    )
    svc_slots, svc_blocked = _run_proc_service(
        scheme, scheduler_cls(), _traffic(scheme, durations), N_SLOTS
    )
    _assert_identical(sim_slots, sim_blocked, svc_slots, svc_blocked)
    if durations.mean > 1:
        assert sum(sim_blocked) > 0


def test_kill_and_recover_does_not_drift_a_grant(tmp_path):
    """SIGKILL both workers at different points mid-run: journal replay
    rebuilds the channel clocks exactly, so the remaining slots' grants
    still match the simulator bit for bit."""
    scheme = NonCircularConversion(8, 1, 1)
    durations = DeterministicDuration(3)
    sim_slots, sim_blocked = _run_simulator(
        scheme, FirstAvailableScheduler(), _traffic(scheme, durations), N_SLOTS
    )
    svc_slots, svc_blocked = _run_proc_service(
        scheme,
        FirstAvailableScheduler(),
        _traffic(scheme, durations),
        N_SLOTS,
        journal_dir=tmp_path,
        kill_at=(8, 17),  # 8 % 2 == 0 kills worker 0; 17 % 2 kills worker 1
    )
    _assert_identical(sim_slots, sim_blocked, svc_slots, svc_blocked)


def test_stateful_random_policy_is_bit_identical():
    """RandomPolicy keeps one RNG stream per output fiber.  The front
    ships each contended shard's stream state with its row and absorbs
    the state the worker returns, so every draw lands in the same
    sequence as the simulator's single-process policy."""
    scheme = NonCircularConversion(8, 1, 1)
    durations = DeterministicDuration(2)
    sim_slots, sim_blocked = _run_simulator(
        scheme,
        FirstAvailableScheduler(),
        _traffic(scheme, durations),
        N_SLOTS,
        policy=RandomPolicy(seed=777),
    )
    svc_slots, svc_blocked = _run_proc_service(
        scheme,
        FirstAvailableScheduler(),
        _traffic(scheme, durations),
        N_SLOTS,
        policy=RandomPolicy(seed=777),
    )
    _assert_identical(sim_slots, sim_blocked, svc_slots, svc_blocked)


STATEFUL_POLICIES = [
    pytest.param(lambda: RandomPolicy(seed=777), id="random"),
    pytest.param(RoundRobinPolicy, id="round-robin"),
]


@pytest.mark.parametrize("make_policy", STATEFUL_POLICIES)
def test_stateful_kill_and_recover_does_not_drift(tmp_path, make_policy):
    """SIGKILL workers mid-run under a stateful policy: the respawn
    strips uncommitted write-ahead and replays ``busy[]``, and the policy
    state never lived in the killed worker — the front re-sends each
    shard's slice with the tick — so no grant drifts."""
    scheme = NonCircularConversion(8, 1, 1)
    durations = DeterministicDuration(3)
    sim_slots, sim_blocked = _run_simulator(
        scheme,
        FirstAvailableScheduler(),
        _traffic(scheme, durations),
        N_SLOTS,
        policy=make_policy(),
    )
    svc_slots, svc_blocked = _run_proc_service(
        scheme,
        FirstAvailableScheduler(),
        _traffic(scheme, durations),
        N_SLOTS,
        journal_dir=tmp_path,
        kill_at=(8, 17),
        policy=make_policy(),
    )
    _assert_identical(sim_slots, sim_blocked, svc_slots, svc_blocked)


def test_stateful_redelivery_after_completed_tick_does_not_drift(tmp_path):
    """Workers die after completing a tick, before replying: the
    redelivered tick drops that slot's journal records and runs again from
    the same start-of-slot ``busy[]`` and round-robin slice — the grants
    and the post-tick pointers come out identical."""
    scheme = NonCircularConversion(8, 1, 1)
    durations = DeterministicDuration(3)
    sim_slots, sim_blocked = _run_simulator(
        scheme,
        FirstAvailableScheduler(),
        _traffic(scheme, durations),
        N_SLOTS,
        policy=RoundRobinPolicy(),
    )
    svc_slots, svc_blocked = _run_proc_service(
        scheme,
        FirstAvailableScheduler(),
        _traffic(scheme, durations),
        N_SLOTS,
        journal_dir=tmp_path,
        poison_at=(5, 12),  # 5 % 2 poisons worker 1; 12 % 2 worker 0
        policy=RoundRobinPolicy(),
    )
    _assert_identical(sim_slots, sim_blocked, svc_slots, svc_blocked)


def test_tcp_front_door_is_bit_identical():
    """The full stack — wire protocol, front door, worker processes —
    changes nothing about the decisions."""
    scheme = CircularConversion(8, 1, 1)
    durations = DeterministicDuration(2)
    sim_slots, sim_blocked = _run_simulator(
        scheme,
        BreakFirstAvailableScheduler(),
        _traffic(scheme, durations),
        N_SLOTS,
    )
    svc_slots, svc_blocked = _run_over_tcp(
        scheme,
        BreakFirstAvailableScheduler(),
        _traffic(scheme, durations),
        N_SLOTS,
    )
    _assert_identical(sim_slots, sim_blocked, svc_slots, svc_blocked)
