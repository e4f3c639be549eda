"""Benchmarks QOS / ANALYT / BATCH: the extension experiments and the raw
batch-vectorization speed."""

import numpy as np

from repro.core.break_first_available import BreakFirstAvailableScheduler
from repro.core.first_available import first_available_fast
from repro.core.kernels import batch_break_first_available, batch_first_available
from repro.core.priority import PriorityScheduler
from repro.experiments.registry import run_experiment
from repro.graphs.conversion import CircularConversion
from repro.util.rng import make_rng


def test_qos_experiment(benchmark):
    res = benchmark.pedantic(
        run_experiment, args=("QOS",), kwargs={"trials": 60}, rounds=1, iterations=1
    )
    assert res.passed, res.render()


def test_analyt_experiment(benchmark):
    res = benchmark.pedantic(
        run_experiment,
        args=("ANALYT",),
        kwargs={"n_fibers": 4, "k": 8, "slots": 250},
        rounds=1,
        iterations=1,
    )
    assert res.passed, res.render()


def test_batch_experiment(benchmark):
    res = benchmark.pedantic(
        run_experiment,
        args=("BATCH",),
        kwargs={},
        rounds=1,
        iterations=1,
    )
    assert res.passed, res.render()


def test_batch_vectorized_m256_k64(benchmark):
    rng = make_rng(1)
    req = rng.binomial(16, 0.9 / 16, size=(256, 64))
    assign = benchmark(batch_first_available, req, None, 2, 2)
    assert assign.shape == (256, 64)


def test_scalar_loop_m256_k64(benchmark):
    """Baseline for the vectorized benchmark above."""
    rng = make_rng(1)
    req = rng.binomial(16, 0.9 / 16, size=(256, 64))

    def run():
        total = 0
        for m in range(256):
            total += len(
                first_available_fast(req[m].tolist(), [True] * 64, 2, 2)
            )
        return total

    total = benchmark(run)
    vec = batch_first_available(req, None, 2, 2)
    assert total == int((vec >= 0).sum())


def test_batch_bfa_m1024_k64(benchmark):
    rng = make_rng(3)
    req = rng.binomial(16, 0.9 / 16, size=(1024, 64))
    assign = benchmark(batch_break_first_available, req, None, 2, 2)
    assert assign.shape == (1024, 64)


def test_priority_two_classes(benchmark):
    scheme = CircularConversion(32, 1, 1)
    prio = PriorityScheduler(BreakFirstAvailableScheduler())
    rng = make_rng(2)
    high = rng.binomial(16, 0.5 / 16, size=32).tolist()
    low = rng.binomial(16, 0.8 / 16, size=32).tolist()
    sched = benchmark(prio.schedule, scheme, [high, low])
    assert sched.n_classes == 2
