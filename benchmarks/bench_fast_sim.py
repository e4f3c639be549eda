"""Benchmark the fast-path simulator against the full engine.

Supports the BATCH story at system level: the vectorized slot loop wins
increasingly with interconnect size N.
"""

import numpy as np

from repro.core.break_first_available import BreakFirstAvailableScheduler
from repro.graphs.conversion import CircularConversion
from repro.sim.engine import SlottedSimulator
from repro.sim.fast import FastPacketSimulator
from repro.sim.traffic import BernoulliTraffic

N, K, SLOTS = 16, 16, 100


def test_full_engine_n16(benchmark):
    def run():
        return SlottedSimulator(
            N,
            CircularConversion(K, 1, 1),
            BreakFirstAvailableScheduler(),
            BernoulliTraffic(N, K, 0.9),
            seed=1,
        ).run(SLOTS)

    res = benchmark.pedantic(run, rounds=3, iterations=1)
    assert res.metrics.n_slots == SLOTS


def test_fast_path_exact_stream_n16(benchmark):
    def run():
        return FastPacketSimulator(
            N, CircularConversion(K, 1, 1), BernoulliTraffic(N, K, 0.9), seed=1
        ).run(SLOTS)

    res = benchmark.pedantic(run, rounds=3, iterations=1)
    # Exact equivalence with the full engine above (same seed).
    full = SlottedSimulator(
        N,
        CircularConversion(K, 1, 1),
        BreakFirstAvailableScheduler(),
        BernoulliTraffic(N, K, 0.9),
        seed=1,
    ).run(SLOTS)
    assert np.array_equal(
        res.metrics.granted_series(), full.metrics.granted_series()
    )
