"""Property suite for :class:`~repro.core.policies.WeightedFairPolicy`.

The QoS contract the service layer builds on, stated as hypothesis
properties instead of example tests:

* **Conservation** — a selection never grants more than the channel count,
  never invents an input fiber, never grants one twice.
* **Weight respect** — from a fresh start, one deficit round (``Σw``
  allocations under full backlog) hands each tenant *exactly* its weight
  in channels; over longer windows shares track ``w_t / Σw``.
* **Starvation-freedom** — a continuously backlogged tenant waits at most
  ``2 · ceil(Σw / w_t)`` allocations between wins, even when the other
  tenants' backlogs come and go arbitrarily.
* **State round-trip** — ``export_state`` → JSON → ``restore_state``
  reproduces the winner sequence decision-for-decision, and operations on
  one output fiber never perturb another's (the property that lets the
  per-shard journals snapshot policy state independently).
"""

from __future__ import annotations

import json
import math

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distributed import SlotRequest
from repro.core.policies import WeightedFairPolicy

MAX_TENANTS = 5

#: tenant id -> weight, at least one tenant.
weights_st = st.dictionaries(
    st.integers(min_value=0, max_value=MAX_TENANTS - 1),
    st.integers(min_value=1, max_value=6),
    min_size=1,
    max_size=MAX_TENANTS,
)

#: A contention round: the subset of tenants with backlog (by index into
#: the sorted tenant list) plus how many channels are free.
_round_st = st.tuples(
    st.sets(st.integers(min_value=0, max_value=MAX_TENANTS - 1), min_size=1),
    st.integers(min_value=1, max_value=3),
)


def _requests(tenants):
    """One request per backlogged tenant; input fiber == tenant id keeps
    requesters unique and makes winners attributable to tenants."""
    return [SlotRequest(t, 0, 0, tenant=t) for t in sorted(tenants)]


class TestConservation:
    @given(
        weights_st,
        st.lists(st.integers(min_value=0, max_value=9), unique=True, min_size=1),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=3),
    )
    def test_grants_are_a_subset_without_duplicates(
        self, weights, fibers, n, output
    ):
        policy = WeightedFairPolicy(weights)
        requests = [
            SlotRequest(f, 0, output, tenant=f % MAX_TENANTS) for f in fibers
        ]
        winners = policy.select_requests(output, 0, requests, n)
        assert len(winners) == min(n, len(fibers))
        assert len(set(winners)) == len(winners)
        assert set(winners) <= set(fibers)

    @given(weights_st, st.lists(_round_st, max_size=30))
    def test_conservation_holds_across_arbitrary_rounds(self, weights, rounds):
        policy = WeightedFairPolicy(weights)
        tenants = sorted(weights)
        for subset_idx, n in rounds:
            present = {tenants[i % len(tenants)] for i in subset_idx}
            requests = _requests(present)
            winners = policy.select_requests(0, 0, requests, n)
            assert len(winners) == min(n, len(present))
            assert set(winners) <= present


class TestWeightRespect:
    @given(weights_st)
    def test_one_deficit_round_is_exact(self, weights):
        """From a fresh start, the first ``Σw`` single-channel allocations
        under full backlog give every tenant exactly its weight."""
        policy = WeightedFairPolicy(weights)
        total = sum(weights.values())
        wins = {t: 0 for t in weights}
        for _ in range(total):
            [winner] = policy.select_requests(0, 0, _requests(weights), 1)
            wins[winner] += 1
        assert wins == dict(weights)

    @given(weights_st, st.integers(min_value=1, max_value=5))
    def test_long_run_shares_track_weights(self, weights, rounds):
        policy = WeightedFairPolicy(weights)
        total = sum(weights.values())
        slots = rounds * total
        wins = {t: 0 for t in weights}
        for _ in range(slots):
            [winner] = policy.select_requests(0, 0, _requests(weights), 1)
            wins[winner] += 1
        for t, w in weights.items():
            # O(1) deficit: at most one round's worth of drift, ever.
            assert abs(wins[t] - slots * w / total) <= total


class TestStarvationFreedom:
    @pytest.mark.slow
    @given(weights_st, st.data())
    @settings(max_examples=200)
    def test_backlogged_tenant_always_wins_within_bound(self, weights, data):
        """Tenant ``victim`` stays backlogged while the others flicker
        arbitrarily; its win gap stays within ``2·ceil(Σw / w_victim)``."""
        policy = WeightedFairPolicy(weights)
        tenants = sorted(weights)
        victim = data.draw(st.sampled_from(tenants))
        total = sum(weights.values())
        bound = 2 * math.ceil(total / weights[victim])
        last_win = -1
        for i in range(4 * bound):
            others = data.draw(
                st.sets(st.sampled_from(tenants)) if len(tenants) > 1
                else st.just(set())
            )
            present = others | {victim}
            [winner] = policy.select_requests(0, 0, _requests(present), 1)
            if winner == victim:
                last_win = i
            assert i - last_win <= bound, (
                f"tenant {victim} (w={weights[victim]}) starved for "
                f"{i - last_win} allocations, bound {bound}"
            )


class TestStateRoundTrip:
    @given(weights_st, st.lists(_round_st, max_size=20), st.lists(_round_st, max_size=20))
    def test_json_round_trip_preserves_decisions(
        self, weights, warmup, replay
    ):
        """Export after arbitrary warm-up, push through real JSON, restore
        into a fresh policy: the two must agree decision-for-decision."""
        policy = WeightedFairPolicy(weights)
        tenants = sorted(weights)
        for subset_idx, n in warmup:
            present = {tenants[i % len(tenants)] for i in subset_idx}
            policy.select_requests(0, 0, _requests(present), n)

        clone = WeightedFairPolicy(weights)
        clone.restore_state(json.loads(json.dumps(policy.export_state())))
        for subset_idx, n in replay:
            present = {tenants[i % len(tenants)] for i in subset_idx}
            assert policy.select_requests(
                0, 0, _requests(present), n
            ) == clone.select_requests(0, 0, _requests(present), n)

    @given(weights_st, st.lists(_round_st, max_size=20))
    def test_output_fibers_are_independent(self, weights, rounds):
        """Interleaving traffic on other output fibers never changes the
        winner sequence on fiber 0 — the per-output state the
        multi-process service's policy slices rely on."""
        quiet = WeightedFairPolicy(weights)
        noisy = WeightedFairPolicy(weights)
        tenants = sorted(weights)
        for j, (subset_idx, n) in enumerate(rounds):
            present = {tenants[i % len(tenants)] for i in subset_idx}
            # Noise on fibers 1..3, only for the noisy policy.
            noisy.select_requests(1 + j % 3, 0, _requests(present), n)
            assert quiet.select_requests(
                0, 0, _requests(present), n
            ) == noisy.select_requests(0, 0, _requests(present), n)
