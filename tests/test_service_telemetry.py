"""Tests for the service telemetry primitives and registry, and for the
fault-path instrumentation (breaker transitions, supervisor restarts)."""

import threading

import pytest

from repro.errors import InvalidParameterError
from repro.service.breaker import BreakerConfig, BreakerState, CircuitBreaker
from repro.service.supervisor import ShardSupervisor, SupervisorConfig
from repro.service.telemetry import (
    Counter,
    Gauge,
    Histogram,
    SloAccountant,
    Telemetry,
    exponential_buckets,
)


class TestCounterGauge:
    def test_counter_monotonic(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(InvalidParameterError):
            c.inc(-1)

    def test_counter_thread_safety(self):
        c = Counter()
        threads = [
            threading.Thread(target=lambda: [c.inc() for _ in range(10_000)])
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 40_000

    def test_gauge_last_write_wins(self):
        g = Gauge()
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5


class TestHistogram:
    def test_count_sum_mean(self):
        h = Histogram([1.0, 2.0, 4.0])
        for v in (0.5, 1.5, 3.0, 8.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(13.0)
        assert h.mean == pytest.approx(13.0 / 4)

    def test_quantiles_bracket_samples(self):
        h = Histogram(exponential_buckets(0.001, 2.0, 16))
        samples = [0.001 * 1.05**i for i in range(200)]
        for v in samples:
            h.observe(v)
        lo, hi = min(samples), max(samples)
        assert lo <= h.quantile(0.0) <= h.quantile(0.5) <= h.quantile(1.0) <= hi
        # p50 lands within a bucket of the true median.
        true_median = sorted(samples)[100]
        assert h.quantile(0.5) == pytest.approx(true_median, rel=1.0)

    def test_empty_histogram(self):
        h = Histogram([1.0])
        assert h.quantile(0.5) == 0.0
        assert h.snapshot()["count"] == 0

    def test_overflow_bucket(self):
        h = Histogram([1.0])
        h.observe(100.0)
        assert h.count == 1
        assert h.quantile(1.0) == pytest.approx(100.0)

    def test_invalid_buckets(self):
        with pytest.raises(InvalidParameterError):
            Histogram([])
        with pytest.raises(InvalidParameterError):
            Histogram([2.0, 1.0])

    def test_invalid_quantile(self):
        with pytest.raises(InvalidParameterError):
            Histogram([1.0]).quantile(1.5)


class TestExponentialBuckets:
    def test_layout(self):
        b = exponential_buckets(1.0, 2.0, 4)
        assert b == (1.0, 2.0, 4.0, 8.0)

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            exponential_buckets(0.0, 2.0, 4)
        with pytest.raises(InvalidParameterError):
            exponential_buckets(1.0, 1.0, 4)
        with pytest.raises(InvalidParameterError):
            exponential_buckets(1.0, 2.0, 0)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        t = Telemetry()
        assert t.counter("a") is t.counter("a")
        assert t.gauge("g") is t.gauge("g")
        assert t.histogram("h") is t.histogram("h")

    def test_kind_conflict_rejected(self):
        t = Telemetry()
        t.counter("x")
        with pytest.raises(InvalidParameterError):
            t.gauge("x")
        with pytest.raises(InvalidParameterError):
            t.histogram("x")

    def test_counters_prefix_filter(self):
        t = Telemetry()
        t.counter("server.granted").inc(2)
        t.counter("shard.0.granted").inc(1)
        assert t.counters("server.") == {"server.granted": 2}

    def test_snapshot_plain_data(self):
        t = Telemetry()
        t.counter("c").inc(3)
        t.gauge("g").set(7)
        t.histogram("h").observe(0.5)
        snap = t.snapshot()
        assert snap["counters"] == {"c": 3}
        assert snap["gauges"] == {"g": 7.0}
        assert snap["histograms"]["h"]["count"] == 1

    def test_render_mentions_every_metric(self):
        t = Telemetry()
        t.counter("server.granted").inc()
        t.gauge("server.slot").set(9)
        t.histogram("server.lat").observe(0.01)
        text = t.render()
        assert "server.granted" in text
        assert "server.slot" in text
        assert "server.lat" in text and "p99" in text


class TestBreakerTelemetry:
    def _breaker(self, **cfg):
        t = Telemetry()
        cfg.setdefault("failure_threshold", 2)
        cfg.setdefault("reset_ticks", 3)
        return t, CircuitBreaker(BreakerConfig(**cfg), t, shard=0)

    def test_full_cycle_counts_every_transition(self):
        t, b = self._breaker()
        assert b.state is BreakerState.CLOSED
        assert t.gauge("shard.0.breaker_state").value == 0
        b.record_failure(0)
        b.record_failure(0)  # threshold 2 -> OPEN
        assert b.state is BreakerState.OPEN
        assert t.gauge("shard.0.breaker_state").value == 2
        assert not b.allow(1)  # still inside reset_ticks
        assert b.allow(3)  # probe admitted -> HALF_OPEN
        assert t.gauge("shard.0.breaker_state").value == 1
        b.record_success(3)  # probe succeeded -> CLOSED
        assert b.state is BreakerState.CLOSED
        counters = t.snapshot()["counters"]
        assert counters["breaker.transitions.opened"] == 1
        assert counters["breaker.transitions.half_open"] == 1
        assert counters["breaker.transitions.closed"] == 1

    def test_failed_probe_reopens(self):
        t, b = self._breaker()
        b.force_open(0)
        assert b.allow(3)
        b.record_failure(3)
        assert b.state is BreakerState.OPEN
        assert t.snapshot()["counters"]["breaker.transitions.opened"] == 2
        # The reset timer restarted at the failed probe's tick.
        assert not b.allow(4)
        assert b.allow(6)

    def test_probe_limit_bounds_half_open_admissions(self):
        _, b = self._breaker(probe_limit=2, probe_successes=2)
        b.force_open(0)
        assert b.allow(3) and b.allow(3)
        assert not b.allow(3)  # third concurrent probe refused
        b.record_success(3)
        assert b.state is BreakerState.HALF_OPEN  # needs 2 successes
        b.record_success(3)
        assert b.state is BreakerState.CLOSED

    def test_success_resets_consecutive_failures(self):
        _, b = self._breaker(failure_threshold=2)
        b.record_failure(0)
        b.record_success(0)
        b.record_failure(1)
        assert b.state is BreakerState.CLOSED

    def test_open_refusals_are_side_effect_free(self):
        t, b = self._breaker()
        b.force_open(0)
        for _ in range(10):
            assert not b.allow(1)
        assert t.snapshot()["counters"]["breaker.transitions.opened"] == 1


class TestSupervisorTelemetry:
    def test_restart_counter_and_aged_restore(self):
        t = Telemetry()
        sup = ShardSupervisor(SupervisorConfig(restart_delay_ticks=2), t)
        sup.note_checkpoint(0, tick=5, busy=[3, 0, 1])
        sup.record_crash(0, tick=6)
        assert sup.is_down(0) and sup.down_shards == (0,)
        assert sup.due_for_restart(7) == ()
        assert sup.due_for_restart(8) == (0,)
        # Aged by the 3 ticks since the checkpoint, floored at zero.
        assert sup.restore_busy(0, tick=8, k=3) == [0, 0, 0]
        assert sup.restore_busy(0, tick=6, k=3) == [2, 0, 0]
        sup.mark_restarted(0)
        assert not sup.is_down(0)
        assert t.snapshot()["counters"]["server.shard_restarts"] == 1

    def test_down_shard_not_checkpointed(self):
        sup = ShardSupervisor()
        sup.note_checkpoint(1, tick=4, busy=[2])
        sup.record_crash(1, tick=4)
        sup.note_checkpoint(1, tick=5, busy=[9])  # ignored: shard is down
        assert sup.checkpoint_of(1) == (4, [2])

    def test_no_checkpoint_restores_all_free(self):
        sup = ShardSupervisor()
        sup.record_crash(2, tick=0)
        assert sup.restore_busy(2, tick=1, k=4) == [0, 0, 0, 0]


class TestSloAccountant:
    def test_empty_ratio_is_one(self):
        assert SloAccountant().grant_ratio(0) == 1.0

    def test_per_class_and_rollup_ratios(self):
        slo = SloAccountant()
        for _ in range(3):
            slo.record(0, 0, "granted")
        slo.record(0, 0, "contention")
        slo.record(0, 1, "granted")
        slo.record(0, 1, "admission_shed")
        assert slo.grant_ratio(0, 0) == 3 / 4
        assert slo.grant_ratio(0, 1) == 1 / 2
        assert slo.grant_ratio(0) == 4 / 6

    def test_report_cells_and_targets(self):
        slo = SloAccountant()
        slo.record(0, 0, "granted")
        slo.record(0, 0, "granted")
        slo.record(1, 2, "contention")
        slo.set_target(0, 0.5)
        slo.set_target(1, 0.5)
        report = slo.report()
        assert report["cells"]["0/0"] == {
            "submitted": 2,
            "granted": 2,
            "rejected": {},
        }
        assert report["cells"]["1/2"]["rejected"] == {"contention": 1}
        assert report["tenants"][0]["met"] is True
        assert report["tenants"][1]["met"] is False
        assert report["all_met"] is False

    def test_untargeted_tenant_counts_as_met(self):
        slo = SloAccountant()
        slo.record(5, 0, "dropped")
        report = slo.report()
        assert report["tenants"][5]["target"] is None
        assert report["tenants"][5]["met"] is True
        assert report["all_met"] is True

    def test_per_class_target_fails_while_rollup_passes(self):
        slo = SloAccountant()
        for _ in range(9):
            slo.record(0, 0, "granted")
        slo.record(0, 1, "timed_out")
        slo.set_target(0, 0.8)          # rollup: 9/10 -> met
        slo.set_target(0, 0.5, priority=1)  # class 1: 0/1 -> not met
        report = slo.report()
        assert report["tenants"][0]["met"] is True
        assert report["tenants"][0]["class_1"]["met"] is False
        assert report["all_met"] is False

    def test_target_validation(self):
        with pytest.raises(InvalidParameterError):
            SloAccountant().set_target(0, 1.5)

    def test_thread_safety_smoke(self):
        slo = SloAccountant()

        def worker():
            for _ in range(500):
                slo.record(0, 0, "granted")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert slo.report()["cells"]["0/0"]["submitted"] == 2000
