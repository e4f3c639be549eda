"""Tests for the grant policies (fairness tie-breaking, Section III)."""

import json

import numpy as np
import pytest

from repro.core.policies import (
    FixedPriorityPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    WeightedFairPolicy,
)
from repro.errors import InvalidParameterError


class TestFixedPriority:
    def test_lowest_ids_win(self):
        assert FixedPriorityPolicy().select(0, 0, [3, 1, 2], 2) == [1, 2]

    def test_n_larger_than_requesters(self):
        assert FixedPriorityPolicy().select(0, 0, [5], 3) == [5]

    def test_zero_grants(self):
        assert FixedPriorityPolicy().select(0, 0, [1, 2], 0) == []

    def test_negative_grants_rejected(self):
        with pytest.raises(InvalidParameterError):
            FixedPriorityPolicy().select(0, 0, [1], -1)

    def test_duplicate_requesters_rejected(self):
        with pytest.raises(InvalidParameterError):
            FixedPriorityPolicy().select(0, 0, [1, 1], 1)

    def test_starves_high_ids(self):
        policy = FixedPriorityPolicy()
        wins = {0: 0, 1: 0}
        for _ in range(10):
            for w in policy.select(0, 0, [0, 1], 1):
                wins[w] += 1
        assert wins == {0: 10, 1: 0}


class TestRandomPolicy:
    def test_reproducible(self):
        a = RandomPolicy(7).select(0, 0, list(range(6)), 3)
        b = RandomPolicy(7).select(0, 0, list(range(6)), 3)
        assert a == b

    def test_all_selected_when_enough(self):
        assert set(RandomPolicy(1).select(0, 0, [4, 5], 5)) == {4, 5}

    def test_winners_are_requesters(self):
        winners = RandomPolicy(3).select(0, 0, list(range(10)), 4)
        assert len(winners) == 4
        assert set(winners) <= set(range(10))
        assert len(set(winners)) == 4

    def test_roughly_uniform(self):
        policy = RandomPolicy(42)
        counts = np.zeros(4)
        for _ in range(2000):
            for w in policy.select(0, 0, [0, 1, 2, 3], 1):
                counts[w] += 1
        assert counts.min() > 400  # expectation 500 each

    def test_outputs_draw_from_independent_streams(self):
        # Output 3's winners depend on the seed and on output 3 alone, not
        # on whether output 0 drew first (the per-output decomposition).
        alone = RandomPolicy(11)
        after_other = RandomPolicy(11)
        after_other.select(0, 0, list(range(6)), 2)
        for _ in range(20):
            assert alone.select(3, 1, list(range(6)), 2) == (
                after_other.select(3, 1, list(range(6)), 2)
            )

    def test_output_state_round_trip(self):
        source = RandomPolicy(5)
        for _ in range(4):
            source.select(2, 0, [0, 1, 2], 1)
        assert source.export_output_state(1) is None  # never drew
        slice_2 = json.loads(json.dumps(source.export_output_state(2)))
        target = RandomPolicy(99)
        target.select(2, 0, [0, 1, 2], 1)
        target.absorb_output_state(2, slice_2)
        assert target.export_output_state(2) == slice_2
        for _ in range(10):
            assert target.select(2, 0, [0, 1, 2, 3], 2) == (
                source.select(2, 0, [0, 1, 2, 3], 2)
            )
        # None resets the output to its fresh seed-derived stream.
        target.absorb_output_state(2, None)
        assert target.export_output_state(2) is None


class TestRoundRobin:
    def test_rotates(self):
        policy = RoundRobinPolicy()
        assert policy.select(0, 0, [0, 1, 2], 1) == [0]
        assert policy.select(0, 0, [0, 1, 2], 1) == [1]
        assert policy.select(0, 0, [0, 1, 2], 1) == [2]
        assert policy.select(0, 0, [0, 1, 2], 1) == [0]

    def test_pointer_per_output_and_wavelength(self):
        policy = RoundRobinPolicy()
        assert policy.select(0, 0, [0, 1], 1) == [0]
        # Other output fiber / wavelength: independent pointer.
        assert policy.select(1, 0, [0, 1], 1) == [0]
        assert policy.select(0, 1, [0, 1], 1) == [0]
        assert policy.select(0, 0, [0, 1], 1) == [1]

    def test_skips_absent_requesters(self):
        policy = RoundRobinPolicy()
        assert policy.select(0, 0, [0, 1, 2], 1) == [0]
        # 1 not requesting this slot: pointer moves to the next present id.
        assert policy.select(0, 0, [0, 2], 1) == [2]
        assert policy.select(0, 0, [0, 1, 2], 1) == [0]

    def test_multiple_winners_wrap(self):
        policy = RoundRobinPolicy()
        assert policy.select(0, 0, [0, 1, 2], 2) == [0, 1]
        assert policy.select(0, 0, [0, 1, 2], 2) == [2, 0]

    def test_fair_in_long_run(self):
        policy = RoundRobinPolicy()
        wins = {i: 0 for i in range(3)}
        for _ in range(30):
            for w in policy.select(0, 0, [0, 1, 2], 1):
                wins[w] += 1
        assert all(v == 10 for v in wins.values())

    def test_reset(self):
        policy = RoundRobinPolicy()
        policy.select(0, 0, [0, 1], 1)
        policy.reset()
        assert policy.select(0, 0, [0, 1], 1) == [0]

    def test_zero_grants(self):
        assert RoundRobinPolicy().select(0, 0, [0, 1], 0) == []


class TestWeightedFairIdBased:
    """The GrantPolicy-protocol surface of WeightedFairPolicy: id-based
    ``select`` calls (no tenant information) must degrade to plain
    single-tenant round-robin, and construction must validate weights.
    The weighted/tenanted behavior itself is property-tested in
    tests/test_wfq_properties.py."""

    def test_id_based_select_degrades_to_round_robin(self):
        wfq = WeightedFairPolicy({3: 9})
        rr = RoundRobinPolicy()
        for _ in range(7):
            assert wfq.select(0, 0, [0, 1, 2], 1) == rr.select(
                0, 0, [0, 1, 2], 1
            )

    def test_zero_grants(self):
        assert WeightedFairPolicy().select(0, 0, [0, 1], 0) == []

    def test_reset_restarts_the_decision_sequence(self):
        policy = WeightedFairPolicy({0: 2, 1: 1})
        before = [policy.select(0, 0, [0, 1, 2], 1) for _ in range(4)]
        policy.reset()
        after = [policy.select(0, 0, [0, 1, 2], 1) for _ in range(4)]
        assert before == after

    def test_unknown_tenant_gets_default_weight(self):
        policy = WeightedFairPolicy({0: 4}, default_weight=2)
        assert policy.weight(0) == 4
        assert policy.weight(17) == 2

    def test_invalid_weights_rejected(self):
        with pytest.raises(InvalidParameterError):
            WeightedFairPolicy({0: 0})
        with pytest.raises(InvalidParameterError):
            WeightedFairPolicy(default_weight=0)

    def test_negative_grants_rejected(self):
        with pytest.raises(InvalidParameterError):
            WeightedFairPolicy().select(0, 0, [0, 1], -1)
