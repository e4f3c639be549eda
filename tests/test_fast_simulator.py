"""Tests for the vectorized fast-path simulator."""

import numpy as np
import pytest

from repro.core.break_first_available import BreakFirstAvailableScheduler
from repro.core.first_available import FirstAvailableScheduler
from repro.errors import SimulationError
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
from repro.sim.traffic import BernoulliTraffic


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
