"""Tests for the vectorized fast-path simulator."""

import numpy as np
import pytest

from repro.core.break_first_available import BreakFirstAvailableScheduler
from repro.core.first_available import FirstAvailableScheduler
from repro.core.memo import ScheduleCache
from repro.core.policies import WeightedFairPolicy
from repro.errors import SimulationError
from repro.faults import ChannelOutage, FaultPlan
from repro.graphs.conversion import (
    CircularConversion,
    FullRangeConversion,
    NonCircularConversion,
)
from repro.sim.duration import (
    DeterministicDuration,
    GeometricDuration,
    UniformDuration,
)
from repro.sim.engine import SlottedSimulator
from repro.sim.fast import FastPacketSimulator
from repro.sim.traffic import (
    BernoulliTraffic,
    MultiTenantOnOffTraffic,
    TenantSpec,
)


class TestValidation:
    def test_scheme_gate(self):
        from repro.graphs.conversion import ConversionScheme

        class WeirdScheme(ConversionScheme):
            def adjacency(self, w):
                return (w,)

        with pytest.raises(SimulationError, match="unsupported scheme"):
            FastPacketSimulator(
                2, WeirdScheme(4, 0, 0), BernoulliTraffic(2, 4, 0.5)
            )

    def test_full_range_supported_via_circular_path(self):
        res = FastPacketSimulator(
            2, FullRangeConversion(4), BernoulliTraffic(2, 4, 0.9), seed=1
        ).run(30)
        assert res.metrics.granted <= res.metrics.submitted

    def test_dimension_mismatch(self):
        with pytest.raises(SimulationError):
            FastPacketSimulator(
                2, CircularConversion(4, 1, 1), BernoulliTraffic(3, 4, 0.5)
            )

    def test_priority_classes_rejected(self):
        sim = FastPacketSimulator(
            2,
            CircularConversion(4, 1, 1),
            BernoulliTraffic(
                2,
                4,
                1.0,
                durations=GeometricDuration(3.0),
                priority_weights=[1, 1],
            ),
            seed=1,
        )
        with pytest.raises(SimulationError, match="QoS class"):
            sim.run(20)


class TestExactEquivalence:
    @pytest.mark.parametrize(
        "scheme_cls,scheduler",
        [
            (CircularConversion, BreakFirstAvailableScheduler()),
            (NonCircularConversion, FirstAvailableScheduler()),
        ],
    )
    def test_grant_series_identical_to_full_engine(self, scheme_cls, scheduler):
        scheme = scheme_cls(8, 1, 1)
        full = SlottedSimulator(
            4, scheme, scheduler, BernoulliTraffic(4, 8, 0.9), seed=11
        ).run(100)
        fast = FastPacketSimulator(
            4, scheme, BernoulliTraffic(4, 8, 0.9), seed=11
        ).run(100)
        assert np.array_equal(
            full.metrics.granted_series(), fast.metrics.granted_series()
        )
        assert np.array_equal(
            full.metrics.submitted_series(), fast.metrics.submitted_series()
        )
        assert full.metrics.loss_probability == fast.metrics.loss_probability

    @pytest.mark.parametrize(
        "scheme_cls,scheduler",
        [
            (CircularConversion, BreakFirstAvailableScheduler()),
            (NonCircularConversion, FirstAvailableScheduler()),
        ],
    )
    @pytest.mark.parametrize(
        "durations",
        [
            DeterministicDuration(3),
            GeometricDuration(2.5),
            UniformDuration(1, 4),
        ],
        ids=["deterministic", "geometric", "uniform"],
    )
    def test_multislot_bit_identical_to_full_engine(
        self, scheme_cls, scheduler, durations
    ):
        """The ISSUE's gating test: with multi-slot traffic the fast engine
        must reproduce the full engine's per-slot grant counts (and in fact
        its complete metric summary) bit-for-bit from the same seed."""
        scheme = scheme_cls(8, 1, 1)

        def traffic():
            return BernoulliTraffic(4, 8, 0.9, durations=durations)

        full = SlottedSimulator(
            4, scheme, scheduler, traffic(), seed=17
        ).run(120, warmup=10)
        fast = FastPacketSimulator(4, scheme, traffic(), seed=17).run(
            120, warmup=10
        )
        assert np.array_equal(
            full.metrics.granted_series(), fast.metrics.granted_series()
        )
        assert np.array_equal(
            full.metrics.submitted_series(), fast.metrics.submitted_series()
        )
        assert np.array_equal(
            full.metrics.busy_series(), fast.metrics.busy_series()
        )
        assert full.summary() == fast.summary()
        assert (
            full.metrics.duration_histogram()
            == fast.metrics.duration_histogram()
        )
        assert np.array_equal(
            full.metrics.granted_by_input, fast.metrics.granted_by_input
        )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_multislot_weighted_fair_identical_to_full_engine(self, seed):
        """WFQ picks winners by tenant, so the fast engine must hand the
        policy the same full requests (tenant included) as the full
        engine's grant distribution does."""
        tenants = (
            TenantSpec(0, weight=4, load=0.6),
            TenantSpec(1, weight=1, load=0.6),
            TenantSpec(2, weight=2, load=0.6),
        )
        scheme = NonCircularConversion(8, 1, 1)

        def traffic():
            return MultiTenantOnOffTraffic(
                4, 8, tenants, durations=GeometricDuration(2.0)
            )

        def policy():
            return WeightedFairPolicy({t.tenant: t.weight for t in tenants})

        full = SlottedSimulator(
            4, scheme, FirstAvailableScheduler(), traffic(), seed=seed,
            policy=policy(),
        ).run(200)
        fast = FastPacketSimulator(
            4, scheme, traffic(), seed=seed, policy=policy()
        ).run(200)
        assert np.array_equal(
            full.metrics.granted_series(), fast.metrics.granted_series()
        )
        assert full.summary() == fast.summary()
        assert np.array_equal(
            full.metrics.granted_by_input, fast.metrics.granted_by_input
        )

    def test_multislot_exercises_source_blocking(self):
        """Sanity: the equivalence above isn't vacuous — heavy multi-slot
        traffic must actually hit the input-channel occupancy path."""
        fast = FastPacketSimulator(
            4,
            CircularConversion(8, 1, 1),
            BernoulliTraffic(4, 8, 1.0, durations=DeterministicDuration(4)),
            seed=3,
        ).run(80)
        assert fast.metrics.blocked_source > 0
        assert fast.metrics.mean_granted_duration == 4.0

    def test_config_labels_fast_path(self):
        res = FastPacketSimulator(
            2, CircularConversion(4, 1, 1), BernoulliTraffic(2, 4, 0.5), seed=1
        ).run(10)
        assert res.config["scheduler"] == "batch-fast-path"


class TestVectorizedMode:
    def test_statistically_consistent(self):
        scheme = CircularConversion(8, 1, 1)
        losses = []
        for seed in (3, 4):
            sim = FastPacketSimulator(
                8, scheme, BernoulliTraffic(8, 8, 0.9), seed=seed
            )
            losses.append(sim.run(400, warmup=20).metrics.loss_probability)
        assert abs(losses[0] - losses[1]) < 0.02

    def test_reproducible(self):
        def run():
            return FastPacketSimulator(
                4,
                CircularConversion(8, 1, 1),
                BernoulliTraffic(4, 8, 0.8),
                seed=6,
            ).run(50).summary()

        assert run() == run()

    def test_conservation(self):
        res = FastPacketSimulator(
            4,
            CircularConversion(8, 1, 1),
            BernoulliTraffic(4, 8, 1.0),
            seed=2,
        ).run(60)
        m = res.metrics
        assert m.granted + m.rejected == m.submitted
        assert 0.0 <= m.loss_probability <= 1.0
        assert m.input_fairness == 1.0  # attribution intentionally neutral

    def test_single_slot_grants_are_not_attributed(self):
        """The single-slot regime does not know which input won a grant,
        so it credits none: ``granted_by_input`` stays zero while the
        totals, the grant series and the duration histogram count every
        grant as one unit-duration connection."""
        m = FastPacketSimulator(
            4,
            CircularConversion(8, 1, 1),
            BernoulliTraffic(4, 8, 0.9),
            seed=0,
        ).run(200).metrics
        assert m.granted > 0
        assert m.granted_by_input.tolist() == [0, 0, 0, 0]
        assert m.submitted_by_input.tolist() == [0, 0, 0, 0]
        assert m.granted_series().sum() == m.granted
        assert m.granted_slots == m.granted
        assert m.duration_histogram() == {1: m.granted}
        assert m.input_fairness == 1.0


class _OwnerTrackingCache(ScheduleCache):
    """Counts hits on entries that another run put."""

    def __init__(self) -> None:
        super().__init__()
        self.run = ""
        self.owner: dict = {}
        self.cross_hits = 0

    def put(self, key, result):
        self.owner.setdefault(key, self.run)
        super().put(key, result)

    def get(self, key):
        value = super().get(key)
        if value is not None and self.owner.get(key) != self.run:
            self.cross_hits += 1
        return value


class TestRowCacheShared:
    def test_regimes_read_each_others_rows(self):
        """A single-slot run with outages passes a real availability mask,
        so its row keys can equal a multi-slot run's.  Both regimes store
        one value shape, so sharing a cache, in either order, changes
        nothing."""
        scheme = CircularConversion(8, 1, 1)
        plan = FaultPlan(
            outages=tuple(
                ChannelOutage(o, w, 0, 10_000)
                for o, w in ((0, 2), (1, 5), (2, 7), (3, 0))
            )
        )

        def sim(regime, cache):
            durations = (
                DeterministicDuration(1)
                if regime == "single"
                else DeterministicDuration(2)
            )
            traffic = BernoulliTraffic(4, 8, 0.3, durations=durations)
            return FastPacketSimulator(
                4, scheme, traffic, seed=5, cache=cache, faults=plan
            )

        alone = {
            regime: sim(regime, False).run(150).summary()
            for regime in ("single", "multi")
        }
        for order in (("multi", "single"), ("single", "multi")):
            cache = _OwnerTrackingCache()
            for regime in order:
                cache.run = regime
                assert sim(regime, cache).run(150).summary() == alone[regime]
            assert cache.cross_hits > 0, order
