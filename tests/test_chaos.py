"""Seeded chaos harness for the scheduling service.

One deterministic drill injects the full fault menu — a shard crash, multiple
channel outages, a converter degradation — into a running service and then
audits the wreckage:

* **conservation** — every submitted request resolved exactly once, and the
  telemetry counters add up (``submitted == granted + every reject reason``);
* **feasibility** — every grant the service issued is re-validated from
  scratch against the fault plan: never on a dark channel, always inside the
  (possibly degraded) conversion window, never double-booking an output
  channel still held by an earlier multi-slot grant (this is the check that
  would catch a supervisor restoring a stale or un-aged checkpoint);
* **recovery** — the crashed shard is restarted by the supervisor, its
  breaker closes again, and post-fault throughput returns to the fault-free
  baseline's level.

Everything is seeded; a failure reproduces exactly.
"""

import asyncio

import pytest

pytestmark = pytest.mark.chaos

from repro.core.break_first_available import BreakFirstAvailableScheduler
from repro.core.distributed import SlotRequest
from repro.faults import (
    ChannelOutage,
    ConverterDegradation,
    FaultInjector,
    FaultPlan,
    ShardCrash,
)
from repro.graphs.conversion import CircularConversion
from repro.service import (
    BreakerConfig,
    BreakerState,
    DurabilityConfig,
    OverflowPolicy,
    Rejected,
    RejectReason,
    RetryPolicy,
    SchedulingClient,
    SchedulingService,
    ServiceGrant,
    SupervisorConfig,
)
from repro.core.policies import WeightedFairPolicy
from repro.service import SloAccountant, TenantAdmission
from repro.sim.duration import GeometricDuration
from repro.sim.traffic import (
    BernoulliTraffic,
    HotspotDestinations,
    MultiTenantOnOffTraffic,
    TenantSpec,
)
from repro.util.rng import make_rng

N_FIBERS = 4
K = 8
N_SLOTS = 60

#: The drill's fault plan: 1 shard kill, 3 dark channels, 1 degraded
#: converter — all healed well before the run ends.
DRILL_PLAN = FaultPlan(
    outages=(
        ChannelOutage(fiber=0, wavelength=3, start=5, duration=15),
        ChannelOutage(fiber=2, wavelength=5, start=8, duration=10),
        ChannelOutage(fiber=1, wavelength=1, start=12, duration=6),
    ),
    degradations=(
        ConverterDegradation(input_fiber=3, start=6, duration=12, e=0, f=0),
    ),
    crashes=(ShardCrash(fiber=2, slot=10),),
)


def run(coro):
    return asyncio.run(coro)


def make_chaos_service(faults=DRILL_PLAN, **kwargs):
    kwargs.setdefault("breaker", BreakerConfig(failure_threshold=2, reset_ticks=4))
    kwargs.setdefault("supervisor", SupervisorConfig(restart_delay_ticks=3))
    kwargs.setdefault("durability", DurabilityConfig(snapshot_interval=4))
    return SchedulingService(
        N_FIBERS,
        CircularConversion(K, 1, 1),
        BreakFirstAvailableScheduler(),
        faults=faults,
        **kwargs,
    )


async def drive(service, n_slots=N_SLOTS, seed=23, load=0.7):
    """Submit seeded traffic one slot per tick; returns the outcome list."""
    traffic = BernoulliTraffic(
        N_FIBERS, K, load, durations=GeometricDuration(2.0)
    )
    rng = make_rng(seed)
    futures = []
    for slot in range(n_slots):
        for p in traffic.arrivals(slot, rng):
            futures.append(
                service.submit_nowait(
                    SlotRequest(
                        p.input_fiber,
                        p.wavelength,
                        p.output_fiber,
                        p.duration,
                        p.priority,
                    )
                )
            )
        await service.tick()
        await asyncio.sleep(0)
    await service.drain()
    return list(await asyncio.gather(*futures))


class TestChaosDrill:
    @pytest.fixture(scope="class")
    def drill(self):
        """Run the drill once; every test audits the same wreckage."""
        async def go():
            service = make_chaos_service()
            outcomes = await drive(service)
            return service, outcomes

        return run(go())

    def test_every_submission_resolved_exactly_once(self, drill):
        service, outcomes = drill
        counters = service.telemetry.snapshot()["counters"]
        resolved = counters["server.granted"] + sum(
            counters.get(name, 0)
            for name in (
                "server.rejected.contention",
                "server.rejected.source_blocked",
                "server.rejected.queue_full",
                "server.dropped",
                "server.timed_out",
                "server.shutdown",
                "server.rejected.shard_down",
                "server.rejected.circuit_open",
                "server.duplicate",
            )
        )
        assert counters["server.submitted"] == resolved == len(outcomes)

    def test_faults_actually_fired(self, drill):
        service, outcomes = drill
        counters = service.telemetry.snapshot()["counters"]
        assert counters["faults.outages"] == 3
        assert counters["faults.degradations"] == 1
        assert counters["faults.crashes"] == 1
        assert counters["server.shard_crashes"] == 1
        # The kill was visible to callers, not silently absorbed.
        reasons = {
            o.reason for o in outcomes if isinstance(o, Rejected)
        }
        assert RejectReason.SHARD_DOWN in reasons or (
            RejectReason.CIRCUIT_OPEN in reasons
        )

    def test_no_infeasible_grant_ever_issued(self, drill):
        """Re-validate every grant against the plan, from scratch."""
        service, outcomes = drill
        scheme = CircularConversion(K, 1, 1)
        injector = FaultInjector(DRILL_PLAN, N_FIBERS, K)
        # busy_until[(fiber, channel)] = first slot the channel is free again
        busy_until: dict[tuple[int, int], int] = {}
        grants = sorted(
            (o for o in outcomes if isinstance(o, ServiceGrant)),
            key=lambda g: g.slot,
        )
        assert grants, "drill produced no grants at all"
        for g in grants:
            r = g.request
            out = r.output_fiber
            # 1. never on a dark channel
            assert not injector.dark_mask(g.slot)[out, g.channel], (
                f"slot {g.slot}: granted dark channel ({out}, {g.channel})"
            )
            # 2. inside the conversion window, degraded if applicable
            eff = scheme
            deg = injector.degradations_at(g.slot).get(r.input_fiber)
            if deg is not None:
                eff = scheme.degraded(*deg)
            assert eff.can_convert(r.wavelength, g.channel), (
                f"slot {g.slot}: λ{r.wavelength}→{g.channel} outside the "
                f"effective window of input {r.input_fiber}"
            )
            # 3. never double-booked (catches stale checkpoint restores)
            key = (out, g.channel)
            assert busy_until.get(key, 0) <= g.slot, (
                f"slot {g.slot}: channel {key} still held until "
                f"{busy_until[key]}"
            )
            busy_until[key] = g.slot + r.duration

    def test_crashed_shard_recovers(self, drill):
        service, outcomes = drill
        counters = service.telemetry.snapshot()["counters"]
        assert counters["server.shard_restarts"] == 1
        assert service.supervisor.down_shards == ()
        assert not service.shards[2].down
        # The restart was seeded by exact snapshot+journal replay — the
        # chaos drill must never take the cold path (losing busy[] state).
        assert service.supervisor.restore_source(2) == "snapshot+journal"
        assert counters["server.restore.snapshot_journal"] == 1
        assert counters.get("server.restore.cold", 0) == 0
        assert counters["durability.recoveries"] >= 1
        assert counters["durability.snapshots"] >= 1
        # The breaker tripped during the drill and closed again afterwards.
        assert counters["breaker.transitions.opened"] >= 1
        assert service.breakers[2].state is BreakerState.CLOSED
        # Shard 2 grants again after the restart slot (10 + delay 3).
        post = [
            o
            for o in outcomes
            if isinstance(o, ServiceGrant)
            and o.request.output_fiber == 2
            and o.slot >= 13
        ]
        assert post, "no grants on the restarted shard"

    def test_throughput_returns_to_baseline(self, drill):
        """In the post-fault tail the drill grants at the baseline's level."""
        service, outcomes = drill

        async def baseline():
            svc = make_chaos_service(faults=None)
            return await drive(svc)

        base = run(baseline())
        horizon = DRILL_PLAN.horizon()  # last fault effect ends here

        def tail_grants(outs):
            return sum(
                1
                for o in outs
                if isinstance(o, ServiceGrant) and o.slot >= horizon + 5
            )

        chaos_tail, base_tail = tail_grants(outcomes), tail_grants(base)
        assert base_tail > 0
        assert chaos_tail >= 0.9 * base_tail


class TestRetryUnderChaos:
    def test_retry_rides_out_a_crash(self):
        """submit(policy=) keeps trying through SHARD_DOWN / CIRCUIT_OPEN
        and lands a grant once the supervisor has healed the shard."""

        async def go():
            service = make_chaos_service(
                faults=FaultPlan(crashes=(ShardCrash(fiber=0, slot=0),)),
                breaker=BreakerConfig(failure_threshold=1, reset_ticks=2),
                supervisor=SupervisorConfig(restart_delay_ticks=2),
            )
            client = SchedulingClient(service, seed=1)
            policy = RetryPolicy(max_attempts=200, base_delay=0.0)
            task = asyncio.ensure_future(
                client.submit(SlotRequest(1, 2, 0), policy=policy)
            )
            for _ in range(30):
                await service.tick()
                await asyncio.sleep(0)
                if task.done():
                    break
            outcome = await task
            return service, outcome

        service, outcome = run(go())
        assert isinstance(outcome, ServiceGrant)
        counters = service.telemetry.snapshot()["counters"]
        assert counters["client.retries"] >= 1
        assert counters["client.retry_exhausted"] == 0
        hist = service.telemetry.snapshot()["histograms"]["client.attempts"]
        assert hist["count"] == 1

    def test_budget_stops_a_retry_storm(self):
        """An exhausted shared budget surfaces the rejection instead of
        hammering a dead shard forever."""
        from repro.service import RetryBudget

        async def go():
            # No supervisor healing within the horizon: crash, never restart
            # (delay far beyond the ticks we run).
            service = make_chaos_service(
                faults=FaultPlan(crashes=(ShardCrash(fiber=0, slot=0),)),
                breaker=None,
                supervisor=SupervisorConfig(restart_delay_ticks=1000),
            )
            client = SchedulingClient(service, seed=2)
            budget = RetryBudget(tokens=3.0, refill_per_success=0.0)
            policy = RetryPolicy(max_attempts=100, base_delay=0.0)
            await service.tick()  # applies the crash
            outcome = await client.submit(
                SlotRequest(1, 2, 0), policy=policy, budget=budget
            )
            return service, outcome, budget

        service, outcome, budget = run(go())
        assert isinstance(outcome, Rejected)
        assert outcome.reason is RejectReason.SHARD_DOWN
        assert budget.tokens < 1.0
        counters = service.telemetry.snapshot()["counters"]
        assert counters["client.retry_exhausted"] == 1
        # 3 tokens -> exactly 3 retries after the first attempt.
        assert counters["client.retries"] == 3


class TestBackpressureUnderFaults:
    """Bounded-queue edge cases while the fault machinery is active."""

    def _service(self, capacity, overflow, **kwargs):
        kwargs.setdefault(
            "faults", FaultPlan(crashes=(ShardCrash(fiber=0, slot=0),))
        )
        return make_chaos_service(
            queue_capacity=capacity, overflow=overflow, **kwargs
        )

    def test_capacity_zero_rejects_everything(self):
        async def go():
            service = make_chaos_service(
                faults=None, queue_capacity=0, overflow=OverflowPolicy.REJECT
            )
            outcome = await service.submit(SlotRequest(0, 1, 1))
            return outcome

        outcome = run(go())
        assert isinstance(outcome, Rejected)
        assert outcome.reason is RejectReason.QUEUE_FULL

    def test_capacity_one_drop_oldest_under_burst(self):
        async def go():
            service = make_chaos_service(
                faults=None,
                queue_capacity=1,
                overflow=OverflowPolicy.DROP_OLDEST,
            )
            f1 = service.submit_nowait(SlotRequest(0, 1, 1))
            f2 = service.submit_nowait(SlotRequest(1, 2, 1))
            await service.tick()
            return await f1, await f2

        o1, o2 = run(go())
        assert isinstance(o1, Rejected) and o1.reason is RejectReason.DROPPED
        assert isinstance(o2, ServiceGrant)

    def test_open_breaker_bypasses_queue_accounting(self):
        """CIRCUIT_OPEN rejections never touch the queue: no drops, no
        offered-counter increments, depth stays zero."""

        async def go():
            service = self._service(1, OverflowPolicy.DROP_OLDEST)
            await service.tick()  # applies the crash; breaker forced open
            outcomes = [
                await service.submit(SlotRequest(1, w, 0)) for w in range(3)
            ]
            return service, outcomes

        service, outcomes = run(go())
        assert all(
            isinstance(o, Rejected)
            and o.reason is RejectReason.CIRCUIT_OPEN
            for o in outcomes
        )
        assert service.shards[0].queue.depth == 0
        counters = service.telemetry.snapshot()["counters"]
        assert counters.get("server.dropped", 0) == 0

    def test_crash_drains_queue_as_shard_down(self):
        """Requests already queued when the shard dies fail fast, for every
        overflow policy."""

        async def go(overflow):
            service = make_chaos_service(
                faults=FaultPlan(crashes=(ShardCrash(fiber=0, slot=1),)),
                queue_capacity=4,
                overflow=overflow,
            )
            await service.tick()  # slot 0: healthy
            futures = [
                service.submit_nowait(SlotRequest(1, w, 0)) for w in range(3)
            ]
            # Tick 1 applies the crash before draining — queued work dies.
            await service.tick()
            return await asyncio.gather(*futures)

        for overflow in OverflowPolicy:
            outcomes = run(go(overflow))
            assert [o.reason for o in outcomes] == (
                [RejectReason.SHARD_DOWN] * 3
            ), f"policy {overflow}"


# ---------------------------------------------------------------------------
# Multi-tenant QoS drill: seeded overload + SHED admission + a shard crash
# ---------------------------------------------------------------------------

QOS_WEIGHTS = {0: 4, 1: 2, 2: 1}
QOS_SLOTS = 80
#: Crash one shard mid-overload; the supervisor restores it from
#: snapshot + journal (the journal now replays EVICT records, so the
#: recovered queue reflects every admission decision the shed made).
QOS_PLAN = FaultPlan(crashes=(ShardCrash(fiber=1, slot=20),))


def make_qos_service(faults=QOS_PLAN, **kwargs):
    kwargs.setdefault("breaker", BreakerConfig(failure_threshold=2, reset_ticks=4))
    kwargs.setdefault("supervisor", SupervisorConfig(restart_delay_ticks=3))
    kwargs.setdefault("durability", DurabilityConfig(snapshot_interval=4))
    return SchedulingService(
        N_FIBERS,
        CircularConversion(K, 1, 1),
        BreakFirstAvailableScheduler(),
        policy=WeightedFairPolicy(QOS_WEIGHTS),
        queue_capacity=6,
        overflow=OverflowPolicy.SHED,
        admission=TenantAdmission(QOS_WEIGHTS),
        faults=faults,
        **kwargs,
    )


async def drive_tenants(service, n_slots=QOS_SLOTS, seed=31):
    """Seeded bursty overload: three tenants, 90% hotspot, tiny queues."""
    traffic = MultiTenantOnOffTraffic(
        N_FIBERS,
        K,
        tuple(
            TenantSpec(t, weight=w, load=0.9, burst_length=5.0)
            for t, w in QOS_WEIGHTS.items()
        ),
        destinations=HotspotDestinations(N_FIBERS, hot_fiber=0, hot_fraction=0.9),
    )
    rng = make_rng(seed)
    futures = []
    for slot in range(n_slots):
        for p in traffic.arrivals(slot, rng):
            futures.append(
                service.submit_nowait(
                    SlotRequest(
                        p.input_fiber,
                        p.wavelength,
                        p.output_fiber,
                        p.duration,
                        p.priority,
                        p.tenant,
                    )
                )
            )
        await service.tick()
        await asyncio.sleep(0)
    await service.drain()
    return list(await asyncio.gather(*futures))


#: Every terminal reject reason a submission can resolve to, as counter
#: suffixes under ``server.rejected.`` / ``tenant.<t>.rejected.``.
REJECT_SUFFIXES = tuple(r.value for r in RejectReason)


class TestQoSChaosDrill:
    @pytest.fixture(scope="class")
    def drill(self):
        async def go():
            service = make_qos_service()
            outcomes = await drive_tenants(service)
            return service, outcomes

        return run(go())

    def _tenant_ledger(self, counters, tenant):
        submitted = counters.get(f"tenant.{tenant}.submitted", 0)
        granted = counters.get(f"tenant.{tenant}.granted", 0)
        rejected = {
            sfx: counters.get(f"tenant.{tenant}.rejected.{sfx}", 0)
            for sfx in REJECT_SUFFIXES
        }
        return submitted, granted, rejected

    def test_overload_and_crash_actually_happened(self, drill):
        service, outcomes = drill
        counters = service.telemetry.snapshot()["counters"]
        assert counters.get("server.rejected.admission_shed", 0) > 0
        assert counters["server.shard_crashes"] == 1
        assert counters["server.shard_restarts"] == 1
        assert service.supervisor.down_shards == ()

    def test_per_tenant_conservation(self, drill):
        """arrivals == grants + rejects (every typed reason) per tenant,
        crash and recovery included — no tenant's requests evaporate."""
        service, outcomes = drill
        counters = service.telemetry.snapshot()["counters"]
        by_tenant_outcomes = {t: 0 for t in QOS_WEIGHTS}
        for o in outcomes:
            by_tenant_outcomes[o.request.tenant] += 1
        for t in QOS_WEIGHTS:
            submitted, granted, rejected = self._tenant_ledger(counters, t)
            assert submitted == by_tenant_outcomes[t], f"tenant {t}"
            assert submitted == granted + sum(rejected.values()), (
                f"tenant {t}: {submitted} != {granted} + {rejected}"
            )

    def test_tenant_ledgers_sum_to_aggregate(self, drill):
        service, outcomes = drill
        counters = service.telemetry.snapshot()["counters"]
        totals = [self._tenant_ledger(counters, t) for t in QOS_WEIGHTS]
        assert sum(s for s, _, _ in totals) == counters["server.submitted"]
        assert sum(g for _, g, _ in totals) == counters["server.granted"]
        for sfx in REJECT_SUFFIXES:
            agg = counters.get(f"server.rejected.{sfx}", 0)
            if sfx in ("dropped", "timed_out", "shutdown", "duplicate"):
                # These live under server.<name>, not server.rejected.<name>.
                agg = counters.get(f"server.{sfx}", 0)
            assert agg == sum(r[sfx] for _, _, r in totals), sfx

    def test_no_tenant_starves(self, drill):
        """Starvation-freedom under overload *and* a crash: every tenant
        lands grants, and the weight order is respected."""
        service, outcomes = drill
        grants = {t: 0 for t in QOS_WEIGHTS}
        for o in outcomes:
            if isinstance(o, ServiceGrant):
                grants[o.request.tenant] += 1
        assert all(g > 0 for g in grants.values()), grants
        total = sum(grants.values())
        # The lightest tenant keeps a non-trivial share (no priority cliff).
        assert grants[2] / total >= 0.05, grants

    def test_shed_victims_skew_to_over_share_tenants(self, drill):
        """SHED evicts the most-over-share class first, so the weight-1
        tenant absorbs at least its weight share of the shedding."""
        service, outcomes = drill
        counters = service.telemetry.snapshot()["counters"]
        sheds = {
            t: counters.get(f"tenant.{t}.rejected.admission_shed", 0)
            for t in QOS_WEIGHTS
        }
        assert sum(sheds.values()) > 0
        # Equal offered loads, weights 4:2:1 -> tenant 2 is over-share
        # whenever queues fill, tenant 0 under-share.
        assert sheds[2] >= sheds[0], sheds

    def test_slo_accountant_report(self, drill):
        """The drill's outcomes feed SloAccountant: targets chosen below
        the achieved ratios are met, an impossible target is flagged."""
        service, outcomes = drill
        acct = SloAccountant()
        acct.set_target(0, min_grant_ratio=0.2)
        acct.set_target(2, min_grant_ratio=0.01)
        for o in outcomes:
            outcome = (
                "granted" if isinstance(o, ServiceGrant) else o.reason.value
            )
            acct.record(o.request.tenant, o.request.priority, outcome)
        report = acct.report()
        assert report["tenants"][0]["met"]
        assert report["tenants"][2]["met"]
        assert report["all_met"]
        strict = SloAccountant()
        strict.set_target(2, min_grant_ratio=0.99)
        for o in outcomes:
            strict.record(
                o.request.tenant,
                o.request.priority,
                "granted" if isinstance(o, ServiceGrant) else o.reason.value,
            )
        assert not strict.report()["tenants"][2]["met"]
        assert not strict.report()["all_met"]
