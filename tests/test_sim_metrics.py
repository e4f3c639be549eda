"""Tests for metric collection, Jain fairness, and result containers."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError, SimulationError
from repro.sim.metrics import MetricsCollector, jain_fairness_index
from repro.sim.results import SimulationResult, mean_confidence_interval


class TestJainIndex:
    def test_equal_shares(self):
        assert jain_fairness_index([5, 5, 5]) == pytest.approx(1.0)

    def test_one_takes_all(self):
        assert jain_fairness_index([9, 0, 0]) == pytest.approx(1 / 3)

    def test_empty_and_zero(self):
        assert jain_fairness_index([]) == 1.0
        assert jain_fairness_index([0, 0]) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            jain_fairness_index([1, -1])

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.integers(0, 10, size=6)
            if v.sum() == 0:
                continue
            j = jain_fairness_index(v)
            assert 1 / 6 - 1e-12 <= j <= 1.0 + 1e-12


class TestMetricsCollector:
    def _record(self, m, granted=2, submitted=3, offered=3, blocked=0):
        m.record_slot(
            offered=offered,
            blocked_source=blocked,
            submitted=submitted,
            granted_inputs=[0] * granted,
            granted_durations=[1] * granted,
            submitted_inputs=[0] * submitted,
            busy_channels=granted,
        )

    def test_counters(self):
        m = MetricsCollector(2, 4)
        self._record(m)
        assert m.n_slots == 1
        assert m.granted == 2
        assert m.rejected == 1
        assert m.acceptance_ratio == pytest.approx(2 / 3)
        assert m.loss_probability == pytest.approx(1 / 3)

    def test_conservation_enforced(self):
        m = MetricsCollector(2, 4)
        with pytest.raises(SimulationError, match="conservation"):
            m.record_slot(
                offered=5,
                blocked_source=0,
                submitted=3,
                granted_inputs=[],
                granted_durations=[],
                submitted_inputs=[0, 0, 0],
                busy_channels=0,
            )

    def test_granted_exceeds_submitted_rejected(self):
        m = MetricsCollector(2, 4)
        with pytest.raises(SimulationError, match="granted"):
            m.record_slot(
                offered=1,
                blocked_source=0,
                submitted=1,
                granted_inputs=[0, 1],
                granted_durations=[1, 1],
                submitted_inputs=[0],
                busy_channels=2,
            )

    def test_durations_mismatch(self):
        m = MetricsCollector(2, 4)
        with pytest.raises(SimulationError, match="disagree"):
            m.record_slot(
                offered=1,
                blocked_source=0,
                submitted=1,
                granted_inputs=[0],
                granted_durations=[],
                submitted_inputs=[0],
                busy_channels=1,
            )

    def test_per_input_and_duration_tallies(self):
        m = MetricsCollector(3, 4)
        for _ in range(2):
            m.record_slot(
                offered=5,
                blocked_source=0,
                submitted=5,
                granted_inputs=[2, 0, 2],
                granted_durations=[3, 1, 3.0],
                submitted_inputs=np.array([2, 0, 2, 1, 2]),
                busy_channels=3,
                granted_priorities=[1, 0, 1],
                submitted_priorities=[1, 0, 1, 0, 1],
            )
        assert m.granted_by_input.tolist() == [2, 0, 4]
        assert m.submitted_by_input.tolist() == [2, 2, 6]
        assert m.duration_histogram() == {1: 2, 3: 4}
        assert all(type(d) is int for d in m.granted_by_duration)
        assert m.granted_by_class == {1: 4, 0: 2}
        assert m.submitted_by_class == {1: 6, 0: 4}

    @pytest.mark.parametrize("field", ["granted_inputs", "submitted_inputs"])
    def test_out_of_range_fiber_raises(self, field):
        m = MetricsCollector(2, 4)
        slot = dict(
            offered=1,
            blocked_source=0,
            submitted=1,
            granted_inputs=[0],
            granted_durations=[1],
            submitted_inputs=[0],
            busy_channels=1,
        )
        slot[field] = [2]
        with pytest.raises(IndexError):
            m.record_slot(**slot)

    def test_utilization(self):
        m = MetricsCollector(1, 4)  # capacity 4 per slot
        self._record(m, granted=2, submitted=2, offered=2)
        assert m.utilization == pytest.approx(0.5)

    def test_empty_run_defaults(self):
        m = MetricsCollector(2, 4)
        assert m.acceptance_ratio == 1.0
        assert m.loss_probability == 0.0
        assert m.source_block_probability == 0.0
        assert m.utilization == 0.0
        assert m.input_fairness == 1.0

    def test_fairness_counts_active_inputs_only(self):
        m = MetricsCollector(3, 4)
        m.record_slot(
            offered=2,
            blocked_source=0,
            submitted=2,
            granted_inputs=[0, 1],
            granted_durations=[1, 1],
            submitted_inputs=[0, 1],
            busy_channels=2,
        )
        # Fiber 2 never submitted: perfect fairness among 0 and 1.
        assert m.input_fairness == pytest.approx(1.0)

    def test_series(self):
        m = MetricsCollector(2, 4)
        self._record(m, granted=1, submitted=2, offered=2)
        self._record(m, granted=2, submitted=2, offered=2)
        assert m.granted_series().tolist() == [1, 2]
        assert m.submitted_series().tolist() == [2, 2]
        assert len(m.busy_series()) == 2


class TestConfidenceInterval:
    def test_basic(self):
        mean, lo, hi = mean_confidence_interval(np.array([1.0, 2.0, 3.0]))
        assert mean == pytest.approx(2.0)
        assert lo < mean < hi

    def test_single_sample(self):
        assert mean_confidence_interval(np.array([2.0])) == (2.0, 2.0, 2.0)

    def test_zero_variance(self):
        assert mean_confidence_interval(np.array([3.0, 3.0])) == (3.0, 3.0, 3.0)

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            mean_confidence_interval(np.array([]))

    def test_bad_confidence(self):
        with pytest.raises(InvalidParameterError):
            mean_confidence_interval(np.array([1.0, 2.0]), confidence=1.5)

    def test_wider_at_higher_confidence(self):
        data = np.array([1.0, 2.0, 3.0, 4.0])
        _, lo95, hi95 = mean_confidence_interval(data, 0.95)
        _, lo99, hi99 = mean_confidence_interval(data, 0.99)
        assert hi99 - lo99 > hi95 - lo95


class TestSimulationResult:
    def test_summary_keys(self):
        m = MetricsCollector(2, 4)
        res = SimulationResult(config={"k": 4}, metrics=m)
        s = res.summary()
        assert {"acceptance_ratio", "loss_probability", "utilization"} <= set(s)

    def test_acceptance_interval_no_traffic(self):
        m = MetricsCollector(2, 4)
        res = SimulationResult(config={}, metrics=m)
        assert res.acceptance_interval() == (1.0, 1.0, 1.0)
